GO ?= go

# The benchmark selection shared by `make bench` and `make bench-json`.
BENCH_PATTERN := MulAddSlice|MulSlice|MulAddMulti|Encode|Reconstruct|Verify|DecodeErrors|Stream

.PHONY: all build build-cross test test-durability test-reconfig test-repair test-transport test-legs test-rs-gates test-elems vet lint bench bench-check bench-pairs bench-smoke bench-json race fuzz loc

# all is the floor every change meets (ROADMAP): tier-1, the race
# detector over every package, and each lane. The benchmark pairs are
# checked by hand; every lint:ignore directive is listed in
# internal/lint/testdata/directives.txt, which `make lint` compares.
all: build test race vet lint build-cross test-transport test-legs test-reconfig test-repair test-durability test-rs-gates test-elems bench-check

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
# recovery battery (power cuts at every byte offset, torn records, a
# power cut losing no acked put, not even one in a segment created just
# before it, the kill-recover-rejoin soak) under the race detector.
test-durability:
	$(GO) test -race -run 'WAL|Snapshot|Recover|PowerCut|Fsync|Torn|Durable' ./internal/soda/

# test-reconfig is the online-reconfiguration lane: epoch admission,
# cross-epoch quorum rejection, live grow/shrink migration, the WAL'd
# epoch state surviving power cuts, and the grow-then-shrink soak with
# concurrent epoch-following writers/readers — under the race detector.
test-reconfig:
	$(GO) test -race -run 'Reconfig|Epoch' ./internal/soda/

# test-repair is the anti-entropy lane: the membership lifecycle, repair
# racing torn writes, donors that lie about value lengths or serve
# rotten bytes (to a repair and to a flip's drain), a rejoin completed
# mid-read by the repair relay, and the kill-repair-rejoin soak — under
# the race detector.
test-repair:
	$(GO) test -race -run 'Repair|Rejoin|Membership|Drain' ./internal/soda/

# test-transport is the socket lane: the multiplexed client and the
# NetServer behind it — frames queued to one writer per socket by callers
# and by legs, the write-stall deadline on both ends, a server killed
# mid-phase, reader-dones riding the next frame — three times over under
# the race detector.
test-transport:
	$(GO) test -race -count=3 -run 'Mux|TCP|Stall|ConnWriter' ./internal/soda/

# test-legs is the client-pass lane: the raw / wrapped / mixed conn-set
# differentials, a conn that answers every exchange later, test hooks,
# seals, pending reads and registrations racing epoch flips — every way
# an exchange of a Write or Read is answered on the caller, taken or
# owed a leg, and every way a registration ends — three times over under
# the race detector.
test-legs:
	$(GO) test -race -count=3 -run 'Inline|Legs|Hook|Sealed|Pending|StartsNothing|Flip|Registration' ./internal/soda/

# test-rs-gates repeats the codec's exact gates — no goroutine started by
# a coding call, no allocation on the capacity-ready paths (skipped under
# the race detector, which allocates) — twenty times over under the race
# detector, where an earlier test's exiting goroutines used to trip them.
test-rs-gates:
	$(GO) test -race -count=20 -run 'CodingStartsNoGoroutines|EncodeParity|CapacityReady|ZeroAlloc' ./internal/rs/

# test-elems is the element-ownership lane: every test in alias_test.go —
# who may keep which slice on the borrowed and the handed-off put, the
# free list and its cold bit, the same-key soak — ten times over under
# the race detector. The test list is read from the file, so a new test
# there joins the lane.
test-elems:
	$(GO) test -race -count=10 -run "^($$(sed -n 's/^func \(Test[A-Za-z0-9_]*\)(.*/\1/p' internal/soda/alias_test.go | paste -sd'|'))$$" ./internal/soda/

race:
	$(GO) test -race ./...

# vet also fails on any file gofmt would rewrite.
vet:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt -l:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -tags purego ./...

# lint runs sodavet — the project's own stdlib-only analyzer suite
# (atomicmix, lockhold, errwrap, epochframe, poolsafe, testonly) — over
# every package, twice: on the host's file set, then on arm64's, so
# every analyzer also sees the portable kernel files (kernel_noasm.go)
# and testonly counts what only that build calls. sodavet is built once
# for the host; `go run` under GOARCH=arm64 would build a binary this
# machine cannot run. Then the analyzers' golden-fixture tests, and the
# golden list of lint:ignore directives. Suppress a finding with
# `//lint:ignore <rule> <reason>`; the reason is mandatory and reviewed
# like code.
lint:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
		$(GO) build -o "$$bin/sodavet" ./cmd/sodavet && \
		"$$bin/sodavet" ./... && \
		GOARCH=arm64 "$$bin/sodavet" ./...
	$(GO) test ./internal/lint/

# loc prints what the working tree adds to and removes from PARENT in
# non-test source lines (Go, assembly, scripts): the acceptance line of
# ROADMAP aim 2 as one command. `make loc PARENT=HEAD~1`.
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
# that log and sync to b.TempDir()) runs once, at the -cpu list it
# is quoted at, and so do the socket round and its transport floor —
# those two long enough (20000 rounds, twice) for a socket reader to fall
# behind its callers, with a timeout that turns a cleanup hang into a
# failure.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=10x ./internal/gf256/ ./internal/rs/
	$(GO) test -run '^$$' -bench Stream -benchtime=10x ./internal/soda/
	$(GO) test -run '^$$' -bench SmallOpsParallel -benchtime=10x -cpu 1,2,4 ./internal/soda/
	$(GO) test -run '^$$' -bench 'MuxRound|MuxFloor' -benchtime=20000x -count=2 -timeout=2m ./internal/soda/
	$(GO) test -tags purego -run '^$$' -bench . -benchtime=10x ./internal/gf256/ ./internal/rs/
	$(GO) test -tags purego -run '^$$' -bench Stream -benchtime=10x ./internal/soda/

# bench-json reruns the bench suite and regenerates BENCH_rs.json in one
# deterministic format (sorted keys, tool-computed derived ratios), so
# perf-trajectory entries are produced, not hand-edited. The narrative
# "notes" field of the existing file is preserved.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_rs.json -- \
		$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 300ms -benchmem ./internal/gf256/ ./internal/rs/

# fuzz runs every fuzz target of every package (its Fuzz* functions, as
# go test -list finds them) for FUZZTIME each; lengthen with FUZZTIME=5m etc.
FUZZTIME ?= 20s
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg); \
		for f in $$(echo "$$list" | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$f"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME); \
		done; \
	done
