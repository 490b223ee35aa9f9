package rs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// Regression tests for the codec API bugfixes that rode along with the
// SODA protocol PR. Each test fails on the pre-fix code.

// TestEncodeKeepsParityCapacity checks that EncodeInto fills the
// caller's parity buffers in place, and that a parity entry short of the
// data size — the zero-length, capacity-ready form ReconstructInto takes
// included — is an error that leaves the entry as it was rather than a
// fresh allocation.
func TestEncodeKeepsParityCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const size = 2048
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := makeShards(t, rng, e, size)

	shards := cloneShards(want)
	backing := make([][]byte, e.N())
	for i := e.K(); i < e.N(); i++ {
		backing[i] = make([]byte, size)
		shards[i] = backing[i]
	}
	if err := e.EncodeInto(shards); err != nil {
		t.Fatalf("EncodeInto: %v", err)
	}
	for i := e.K(); i < e.N(); i++ {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("parity shard %d differs from reference encode", i)
		}
		if &shards[i][0] != &backing[i][0] {
			t.Fatalf("parity shard %d was reallocated; want the caller's buffer filled in place", i)
		}
	}

	for _, short := range [][]byte{make([]byte, 0, size), make([]byte, size-1)} {
		shards = cloneShards(want)
		shards[e.K()] = short
		if err := e.EncodeInto(shards); !errors.Is(err, ErrShardSize) {
			t.Fatalf("EncodeInto with parity len %d cap %d = %v, want ErrShardSize", len(short), cap(short), err)
		}
		if len(shards[e.K()]) != len(short) || cap(shards[e.K()]) != cap(short) {
			t.Fatalf("EncodeInto replaced a short parity entry")
		}
	}
}

// gateShapes are the codes and shard sizes the zero-allocation gates run
// at: SODA's running example and the widest benchmarked code, each at a
// small value's shard and a large one's, plus a mid-sized [9,5].
var gateShapes = []struct{ n, k, size int }{
	{5, 3, 43}, {5, 3, 64 << 10},
	{9, 5, 4 << 10},
	{14, 10, 43}, {14, 10, 64 << 10},
}

// checkZeroAlloc runs run once to warm the scratch pools, the decode
// cache and the kernel tables, then fails if it allocates in steady
// state.
func checkZeroAlloc(t *testing.T, what string, run func()) {
	t.Helper()
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("%s allocates %.1f times per op, want 0", what, allocs)
	}
}

// TestEncodeCapacityReadyAllocs gates every small write's encode: with
// every parity shard allocated at the data size, EncodeInto must not
// touch the heap.
func TestEncodeCapacityReadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(72))
	for _, g := range gateShapes {
		e, err := New(g.n, g.k)
		if err != nil {
			t.Fatal(err)
		}
		shards := makeShards(t, rng, e, g.size)
		checkZeroAlloc(t, fmt.Sprintf("[%d,%d] %d B: EncodeInto", g.n, g.k, g.size), func() {
			if err := e.EncodeInto(shards); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReconstructIntoZeroAlloc gates a degraded read's decode: with a
// stable failure pattern (one data and one parity shard) repaired into
// the caller's buffers, ReconstructInto must not touch the heap.
func TestReconstructIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(75))
	for _, g := range gateShapes {
		e, err := New(g.n, g.k)
		if err != nil {
			t.Fatal(err)
		}
		want := makeShards(t, rng, e, g.size)
		shards := cloneShards(want)
		checkZeroAlloc(t, fmt.Sprintf("[%d,%d] %d B: ReconstructInto", g.n, g.k, g.size), func() {
			shards[0], shards[g.n-1] = shards[0][:0], shards[g.n-1][:0]
			if err := e.ReconstructInto(shards); err != nil {
				t.Fatal(err)
			}
		})
		for i := range want {
			if !bytes.Equal(shards[i], want[i]) {
				t.Fatalf("[%d,%d] %d B: shard %d differs after ReconstructInto", g.n, g.k, g.size, i)
			}
		}
	}
}

// TestVerifyZeroAlloc gates a SODA_err read's check: on matching shards
// Verify must not touch the heap.
func TestVerifyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(76))
	for _, g := range gateShapes {
		e, err := New(g.n, g.k)
		if err != nil {
			t.Fatal(err)
		}
		shards := makeShards(t, rng, e, g.size)
		checkZeroAlloc(t, fmt.Sprintf("[%d,%d] %d B: Verify", g.n, g.k, g.size), func() {
			if ok, err := e.Verify(shards); !ok || err != nil {
				t.Fatalf("Verify = (%v, %v), want (true, nil)", ok, err)
			}
		})
	}
}

// TestVerifySkipsFlaggedParity checks that once a parity shard is
// flagged as mismatching, later chunks no longer spend kernel work
// recomputing it: the outputs handed to codeRange shrink to the
// unflagged set, and the scan stops entirely once every parity shard
// is flagged.
func TestVerifySkipsFlaggedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 4
	size := chunks * verifyChunk
	shards := makeShards(t, rng, e, size)
	np := e.N() - e.K()

	var perChunk []int
	testHookVerifyChunk = func(live int) { perChunk = append(perChunk, live) }
	defer func() { testHookVerifyChunk = nil }()

	// Corrupt parity shard k (inside chunk 0) and parity shard k+2
	// (inside chunk 1): chunk 0 computes np outputs, chunk 1 np-1,
	// chunks 2+ np-2.
	shards[e.K()][17] ^= 0xA5
	shards[e.K()+2][verifyChunk+29] ^= 0x3C
	ok, err := e.Verify(shards)
	if ok {
		t.Fatal("Verify passed corrupted shards")
	}
	var pm *ParityMismatchError
	if !errors.As(err, &pm) || len(pm.Indices) != 2 || pm.Indices[0] != e.K() || pm.Indices[1] != e.K()+2 {
		t.Fatalf("Verify error = %v, want parity mismatch at [%d %d]", err, e.K(), e.K()+2)
	}
	want := []int{np, np - 1, np - 2, np - 2}
	if len(perChunk) != len(want) {
		t.Fatalf("Verify ran %d chunks (%v), want %d", len(perChunk), perChunk, len(want))
	}
	for i := range want {
		if perChunk[i] != want[i] {
			t.Fatalf("chunk %d computed %d parity outputs (%v), want %v", i, perChunk[i], perChunk, want)
		}
	}

	// With every parity shard corrupt in chunk 0, the scan flags them
	// all there and stops: exactly one chunk of kernel work.
	perChunk = perChunk[:0]
	shards = makeShards(t, rng, e, size)
	for i := e.K(); i < e.N(); i++ {
		shards[i][3] ^= 0xFF
	}
	if ok, _ := e.Verify(shards); ok {
		t.Fatal("Verify passed fully corrupted parity")
	}
	if len(perChunk) != 1 || perChunk[0] != np {
		t.Fatalf("fully-corrupt scan ran chunks %v, want [%d]", perChunk, np)
	}

	// And a clean verify still walks every chunk at full width.
	perChunk = perChunk[:0]
	shards = makeShards(t, rng, e, size)
	if ok, err := e.Verify(shards); !ok || err != nil {
		t.Fatalf("Verify(clean) = %v, %v", ok, err)
	}
	for i, got := range perChunk {
		if got != np {
			t.Fatalf("clean chunk %d computed %d outputs, want %d", i, got, np)
		}
	}
	if len(perChunk) != chunks {
		t.Fatalf("clean scan ran %d chunks, want %d", len(perChunk), chunks)
	}
}

// TestCodingStartsNoGoroutines checks that the Encoder codes on its
// caller whatever the shard size and however many CPUs are idle: the
// three coding entry points leave the goroutine count where it was.
func TestCodingStartsNoGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	rng := rand.New(rand.NewSource(74))
	const size = 1 << 20
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := settledGoroutines()
	want := makeShards(t, rng, e, size) // EncodeInto

	shards := cloneShards(want)
	shards[0], shards[7] = shards[0][:0], shards[7][:0]
	if err := e.ReconstructInto(shards); err != nil {
		t.Fatalf("ReconstructInto: %v", err)
	}
	shards[2][size/2] ^= 0x5a
	shards[8] = nil
	if corrupt, err := e.DecodeErrors(shards); err != nil || len(corrupt) != 1 || corrupt[0] != 2 {
		t.Fatalf("DecodeErrors = (%v, %v), want ([2], nil)", corrupt, err)
	}
	for i := range want {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("shard %d differs", i)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("coding 1 MiB shards took the goroutine count from %d to %d", before, after)
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// five readings a millisecond apart (or after a second): an earlier test's
// goroutines may still be exiting. The count stays exact — a comparison
// that only caught growth would pass a call that starts a goroutine while
// another exits.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(time.Second); still < 5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}
