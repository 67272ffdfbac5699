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
# stock go vet (copylocks included) plus the six-analyzer labelvet suite
# in both tag states. `go test ./internal/analysis` runs the same
# labelvet gate, which is how CI runs it.
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
