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
# stock go vet (copylocks included) plus the three-analyzer labelvet
# suite, which internal/analysis's TestRepoClean and
# TestRepoCleanWithInvariantsTag run over the whole module in both tag
# states, as CI does, and TestPanicSites, the panic allowlist check.
vet:
	$(GO) vet ./...
	$(GO) test -run 'TestRepoClean|TestPanicSites' ./internal/analysis

fmt:
	gofmt -l .

labelvet:
	$(GO) test -run 'TestRepoClean|TestPanicSites' ./internal/analysis

# Every Fuzz* target for 10 s (differential, against reference_test.go,
# where there is a reference).
fuzz:
	sh scripts/fuzz.sh 10s

# Every benchmark workload with its end-to-end metrics (see benchmark/README.md).
bench:
	bash benchmark/run.sh

ci:
	sh scripts/ci.sh
