package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// Regression tests for the codec API bugfixes that rode along with the
// SODA protocol PR. Each test fails on the pre-fix code.

// TestEncodeKeepsParityCapacity checks that Encode honors the buf[:0]
// convention ReconstructInto documents: a zero-length parity entry
// whose capacity covers the data size is resliced in place, not
// replaced by a fresh allocation that drops the caller's buffer.
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
		shards[i] = backing[i][:0] // capacity-ready, zero-length
	}
	if err := e.Encode(shards); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for i := e.K(); i < e.N(); i++ {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("parity shard %d differs from reference encode", i)
		}
		if &shards[i][0] != &backing[i][0] {
			t.Fatalf("parity shard %d was reallocated; want the caller's buffer resliced in place", i)
		}
	}

	// A parity entry with insufficient capacity is still allocated.
	shards = cloneShards(want)
	shards[e.K()] = make([]byte, 0, size-1)
	if err := e.Encode(shards); err != nil {
		t.Fatalf("Encode with short capacity: %v", err)
	}
	if !bytes.Equal(shards[e.K()], want[e.K()]) {
		t.Fatalf("parity shard %d differs after fallback allocation", e.K())
	}
}

// TestEncodeCapacityReadyAllocs counts allocations: with every parity
// entry capacity-ready (len 0, cap >= size), Encode must behave like
// EncodeInto and not touch the heap.
func TestEncodeCapacityReadyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const size = 4096
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	shards := makeShards(t, rng, e, size)
	run := func() {
		for i := e.K(); i < e.N(); i++ {
			shards[i] = shards[i][:0]
		}
		if err := e.Encode(shards); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the kernel tables
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("Encode with capacity-ready parity allocates %.1f times per op, want 0", allocs)
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
	before := runtime.NumGoroutine()
	want := makeShards(t, rng, e, size) // Encode

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
