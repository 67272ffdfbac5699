# Convenience targets; `make ci` is the same gate CI runs.

GO ?= go

.PHONY: all build test race indexpins stamps kernels vet fmt labelvet fuzz bench ci

all: build

build:
	$(GO) build ./...
	$(GO) build -tags invariants ./...

test:
	$(GO) test ./...
	$(GO) test -tags invariants ./internal/bitstr/... ./internal/cdbs/... ./internal/keys/... ./internal/containment/... ./internal/pagestore/...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'TestArenaCloneIsolation' ./internal/containment

# The index pins: an edit touches one name's list (slice) or key range
# (paged, one tree), concurrent readers fill the all-elements memo of
# either backend, a snapshot edit copies 26 B per id.
indexpins:
	$(GO) test -count=1 -run 'TestSliceAddCost' ./internal/store
	$(GO) test -race -count=3 -run 'TestStarQueryStorm' ./internal/dyndoc
	$(GO) test -count=1 -run 'TestEditBytesBounded' ./internal/dyndoc
	$(GO) test -count=1 -run 'TestPagedOneTree' .

# The read-set stamps: a cached answer outlives every edit that cannot
# change it and no other, whichever documents share the cache; a hit
# allocates the caller's copy and nothing else, an edit's token nothing.
stamps:
	$(GO) test -race -count=3 -run 'TestStampedCacheDifferential|TestStampedCacheSharedLineages' ./internal/dyndoc
	$(GO) test -count=1 -run 'TestCacheGenerations|TestCacheRendered|TestCacheBoundsTinyLimits' ./internal/xpath/plan
	$(GO) test -count=1 -run 'TestSiblingParentAxisBytes' ./internal/xpath
	$(GO) test -count=1 -run 'TestCountHitAllocs|TestPagedInsertAllocs|TestHandleExplainGolden' .

# The label kernels: Algorithm 1, Corollary 3.3 and Algorithm 2 write
# their codes into the arena, byte-equal to what the boxed kernels
# return (under the race detector, and under the invariants tag, whose
# assertions read back what was written); a document is mirrored in one
# walk; a refused insert claims nothing; an insert allocates no code
# and an open 160 B a node.
kernels:
	$(GO) test -race -count=3 -run 'TestStoredKernelsMatchBoxed' ./internal/keys
	$(GO) test -tags invariants -count=1 -run 'TestStoredKernelsMatchBoxed|FuzzArenaBetween' ./internal/keys
	$(GO) test -run=^$$ -fuzz=FuzzArenaBetween -fuzztime=5s ./internal/keys
	$(GO) test -count=1 -run 'TestNewTreeMatchesMapBuild' ./internal/scheme
	$(GO) test -count=1 -run 'TestRefusedInsertClaimsNothing|TestPackedPathAllocs' ./internal/containment
	$(GO) test -count=1 -run 'TestOpenBytesBounded|TestEditBytesBounded' ./internal/dyndoc
	$(GO) test -count=1 -run 'TestPagedInsertAllocs|TestMetricsJSON' .
	$(GO) test -count=1 -run 'TestWarmLeafEditAllocs' ./internal/pagestore

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

# Short fuzz smoke runs for the label-assignment kernels and the
# word-parallel bitstr kernels (differential, against reference_test.go).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzAssignMiddleBinaryString -fuzztime=10s ./internal/cdbs
	$(GO) test -run=^$$ -fuzz=FuzzTwoBetween -fuzztime=5s ./internal/cdbs
	$(GO) test -run=^$$ -fuzz=FuzzEncodeBetween -fuzztime=10s ./internal/cdbs
	$(GO) test -run=^$$ -fuzz=FuzzBetween -fuzztime=10s ./internal/qed
	$(GO) test -run=^$$ -fuzz=FuzzEncodeBetween -fuzztime=10s ./internal/qed
	$(GO) test -run=^$$ -fuzz=FuzzArenaBetween -fuzztime=10s ./internal/keys
	$(GO) test -run=^$$ -fuzz=FuzzBitstrKernels -fuzztime=10s ./internal/bitstr
	$(GO) test -run=^$$ -fuzz=FuzzBitstrCodecs -fuzztime=10s ./internal/bitstr
	$(GO) test -run=^$$ -fuzz=FuzzReadAll -fuzztime=10s ./internal/journal
	$(GO) test -run=^$$ -fuzz=FuzzPageRoundTrip -fuzztime=10s ./internal/pagestore
	$(GO) test -run=^$$ -fuzz=FuzzMetaDecode -fuzztime=10s ./internal/pagestore
	$(GO) test -run=^$$ -fuzz=FuzzPageValidate -fuzztime=10s -fuzzminimizetime=1s ./internal/pagestore
	$(GO) test -run=^$$ -fuzz=FuzzEditCodec -fuzztime=10s ./internal/journal
	$(GO) test -run=^$$ -fuzz=FuzzStreamDecode -fuzztime=10s ./internal/journal
	$(GO) test -run=^$$ -fuzz=FuzzQueryReplyDecode -fuzztime=5s ./client

# Every benchmark workload with its end-to-end metrics (see benchmark/README.md).
bench:
	bash benchmark/run.sh

ci:
	sh scripts/ci.sh
