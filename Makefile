GO ?= go

# The benchmark selection shared by `make bench` and `make bench-json`.
BENCH_PATTERN := MulAddSlice|MulSlice|MulAddMulti|Encode|Reconstruct|Verify|DecodeErrors|Stream

.PHONY: all build build-cross test test-durability test-reconfig test-transport vet lint bench bench-check bench-pairs bench-smoke bench-json bench-soda-json bench-soda-smoke race fuzz loc

all: vet lint build test test-transport bench-check race

build:
	$(GO) build ./...

# build-cross keeps the portable (noasm) kernel path buildable: a
# non-amd64 cross-compile plus the purego tag on the host arch.
build-cross:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	$(GO) build -tags purego ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...

test:
	$(GO) test ./...

# test-durability is the fault-injection lane: the WAL/snapshot/
# recovery battery (power cuts at every byte offset, torn records,
# fsync-mode loss semantics, the kill-recover-rejoin soak) under the
# race detector.
test-durability:
	$(GO) test -race -run 'WAL|Snapshot|Recover|PowerCut|Fsync|Torn|Durable' ./internal/soda/

# test-reconfig is the online-reconfiguration lane: epoch admission,
# cross-epoch quorum rejection, live grow/shrink migration, the WAL'd
# epoch state surviving power cuts, and the grow-then-shrink soak with
# concurrent epoch-following writers/readers — under the race detector.
test-reconfig:
	$(GO) test -race -run 'Reconfig|Epoch' ./internal/soda/

# test-transport is the socket lane: the multiplexed client and the
# NetServer behind it — frames sent from the caller and on legs, the
# write-stall deadline, a server killed mid-phase, reader-dones riding the
# next frame — three times over under the race detector.
test-transport:
	$(GO) test -race -count=3 -run 'Mux|TCP|Stall|ConnWriter' ./internal/soda/

race:
	$(GO) test -race ./...

# vet also fails on any file gofmt would rewrite.
vet:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt -l:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -tags purego ./...

# lint runs sodavet — the project's own stdlib-only analyzer suite
# (atomicmix, lockhold, errwrap, epochframe, poolsafe) — over every
# package, then the analyzers' golden-fixture tests. Suppress a
# finding with `//lint:ignore <rule> <reason>`; the reason is
# mandatory and reviewed like code.
lint:
	$(GO) run ./cmd/sodavet ./...
	$(GO) test ./internal/lint/

# loc prints what the working tree adds to and removes from PARENT in
# non-test source lines (Go, assembly, scripts): the acceptance line of
# ROADMAP item 3 as one command. `make loc PARENT=HEAD~1`.
loc:
	@test -n "$(PARENT)" || { echo "usage: make loc PARENT=<rev>"; exit 2; }
	@git diff --numstat $(PARENT) -- '*.go' '*.s' '*.sh' ':!*_test.go' ':!**/testdata/**' | \
		awk '{ a += $$1; r += $$2 } END { printf "+%d -%d = %+d non-test lines against $(PARENT)\n", a, r, a - r }'

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem ./internal/gf256/ ./internal/rs/

# bench-check vets and tests the repository benchmark. bench/ is a Go
# module of its own, so the root `go test ./...` never reaches it; its
# tests include `-smoke` (every workload for 1 s, untraced and traced,
# names checked against BENCHMARK.json).
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# bench-pairs compares PARENT (a revision) with the working tree by the
# pair protocol of bench/README.md: PAIRS alternating pairs of SECONDS-
# second runs per workload, medians, quartiles, pairs won and a verdict
# per (workload, metric). `make bench-pairs PARENT=HEAD~1`; narrow it
# with WORKLOADS="loop-large". Ten pairs of all four workloads at 20 s
# take about half an hour, on an otherwise idle machine. WALDIR=<dir> in
# the environment puts both sides' WALs on that directory's device
# instead of the benchmark's private tmpfs:
# `WALDIR=/root/scratch/wal make bench-pairs PARENT=HEAD~1
# WORKLOADS=wal-small` is how the device side of the durable put-data
# rule (inline while fsyncs return from the page cache, legs once they
# wait) is compared.
PAIRS ?= 10
SECONDS ?= 20
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [PAIRS=10] [SECONDS=20] [WORKLOADS=...]"; exit 2; }
	scripts/bench-pairs.sh $(PARENT) $(PAIRS) $(SECONDS) $(WORKLOADS)

# bench-smoke compiles and runs every benchmark a fixed 10 iterations on
# both the SIMD and purego kernel ladders: a CI-friendly check that the
# benchmark suite itself stays healthy, with no performance gating. Of
# internal/soda only the streaming-encode layer benchmark depends on the
# ladder, so only it rides along on both; the client quorum-path layer
# benchmark (inline and on legs: 128 B, 1 MiB, and 128 B over servers
# that log to b.TempDir() without syncing) runs once, at the -cpu list it
# is quoted at.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=10x ./internal/gf256/ ./internal/rs/
	$(GO) test -run '^$$' -bench Stream -benchtime=10x ./internal/soda/
	$(GO) test -run '^$$' -bench SmallOpsParallel -benchtime=10x -cpu 1,2,4 ./internal/soda/
	$(GO) test -tags purego -run '^$$' -bench . -benchtime=10x ./internal/gf256/ ./internal/rs/
	$(GO) test -tags purego -run '^$$' -bench Stream -benchtime=10x ./internal/soda/

# bench-json reruns the bench suite and regenerates BENCH_rs.json in one
# deterministic format (sorted keys, tool-computed derived ratios), so
# perf-trajectory entries are produced, not hand-edited. The narrative
# "notes" field of the existing file is preserved.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_rs.json -- \
		$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 300ms -benchmem ./internal/gf256/ ./internal/rs/

# bench-soda-json reruns the open-loop load suite and regenerates
# BENCH_soda.json deterministically (sorted keys, fixed schema,
# tool-computed derived ratios; the "notes" field of the existing file
# is preserved). Numbers are machine-dependent; the schema is not.
bench-soda-json:
	$(GO) run ./cmd/sodaload -suite -out BENCH_soda.json

# bench-soda-smoke runs the suite twice at a tiny rate/duration and
# checks both regenerations produce the committed BENCH_soda.json
# schema: a CI-friendly determinism check on the harness and its
# output shape, with no performance gating.
bench-soda-smoke:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && set -ex && \
	$(GO) run ./cmd/sodaload -suite -rate 2000 -duration 300ms -keys 256 -out "$$d/a.json" && \
	$(GO) run ./cmd/sodaload -suite -rate 2000 -duration 300ms -keys 256 -seed 2 -out "$$d/b.json" && \
	$(GO) run ./cmd/sodaload -compare-schema "$$d/a.json" "$$d/b.json" && \
	$(GO) run ./cmd/sodaload -compare-schema "$$d/a.json" BENCH_soda.json

# fuzz runs each fuzz target briefly; lengthen with FUZZTIME=5m etc.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/rs/ -fuzz FuzzDecodeErrors -fuzztime $(FUZZTIME)
	$(GO) test ./internal/soda/ -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/soda/ -run '^$$' -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/soda/ -run '^$$' -fuzz FuzzParseWALRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/soda/ -run '^$$' -fuzz FuzzReadSnapshot -fuzztime $(FUZZTIME)
