# Convenience targets; `make ci` is the same gate CI runs.

GO ?= go

.PHONY: all build test race vet fmt labelvet fuzz bench ci

all: build

build:
	$(GO) build ./...
	$(GO) build -tags invariants ./...

test:
	$(GO) test ./...
	$(GO) test -tags invariants ./...

race:
	$(GO) test -race ./...

# `make vet` is the single local entry point for all static analysis:
# stock go vet plus the full labelvet suite (including the guardedby/
# atomicmix/ackorder/lockorder concurrency tier) in both tag states.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/labelvet ./...
	$(GO) run ./cmd/labelvet -tags invariants ./...

fmt:
	gofmt -l .

labelvet:
	$(GO) run ./cmd/labelvet ./...

# Every Fuzz* target for 10 s (differential, against reference_test.go,
# where there is a reference).
fuzz:
	sh scripts/fuzz.sh 10s

# Every benchmark workload with its end-to-end metrics (see benchmark/README.md).
bench:
	bash benchmark/run.sh

ci:
	sh scripts/ci.sh
