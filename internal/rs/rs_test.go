package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/matrix"
)

var shapes = []struct{ n, k int }{
	{5, 3}, // SODA's running example scale
	{9, 5},
	{14, 10},
	{8, 3}, // n >= 2k: allows parity-only survivor sets
	{1, 1}, // degenerate replication-free code
	{4, 4}, // no parity at all
}

func makeShards(t *testing.T, rng *rand.Rand, e *Encoder, size int) [][]byte {
	t.Helper()
	shards := make([][]byte, e.N())
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < e.K() {
			rng.Read(shards[i])
		}
	}
	if err := e.EncodeInto(shards); err != nil {
		t.Fatalf("EncodeInto: %v", err)
	}
	return shards
}

func cloneShards(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		if s != nil {
			out[i] = append([]byte(nil), s...)
		}
	}
	return out
}

// erase marks shards[i] for repair by ReconstructInto: a fresh zero-length
// buffer with room for the shard, so a repair that writes nothing leaves
// it empty rather than holding the old bytes.
func erase(shards [][]byte, idx ...int) {
	for _, i := range idx {
		shards[i] = make([]byte, 0, len(shards[i]))
	}
}

// TestRoundTripAllErasurePatterns encodes, drops every possible set of
// up to n-k shards (exhaustively for small shapes), reconstructs, and
// compares — including survivor sets that are parity-only.
func TestRoundTripAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		e, err := New(sh.n, sh.k)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", sh.n, sh.k, err)
		}
		orig := makeShards(t, rng, e, 257) // odd size to hit kernel tails
		if ok, err := e.Verify(orig); !ok || err != nil {
			t.Fatalf("[%d,%d] Verify = (%v, %v)", sh.n, sh.k, ok, err)
		}
		// Iterate over all erasure masks with <= n-k dropped shards.
		for mask := 0; mask < 1<<sh.n; mask++ {
			dropped := 0
			for b := mask; b != 0; b >>= 1 {
				dropped += b & 1
			}
			if dropped > sh.n-sh.k {
				continue
			}
			got := cloneShards(orig)
			for i := 0; i < sh.n; i++ {
				if mask&(1<<i) != 0 {
					erase(got, i)
				}
			}
			if err := e.ReconstructInto(got); err != nil {
				t.Fatalf("[%d,%d] mask %b: ReconstructInto: %v", sh.n, sh.k, mask, err)
			}
			for i := range orig {
				if !bytes.Equal(got[i], orig[i]) {
					t.Fatalf("[%d,%d] mask %b: shard %d mismatch", sh.n, sh.k, mask, i)
				}
			}
		}
	}
}

// TestParityOnlySurvivors drops every data shard of an [8,3] code and
// recovers the data purely from parity.
func TestParityOnlySurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, err := New(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	orig := makeShards(t, rng, e, 1024)
	got := cloneShards(orig)
	erase(got, 0, 1, 2, 3, 4) // 5 erasures = n-k
	if err := e.ReconstructInto(got); err != nil {
		t.Fatalf("ReconstructInto from parity-only survivors: %v", err)
	}
	for i := range orig {
		if !bytes.Equal(got[i], orig[i]) {
			t.Fatalf("shard %d mismatch", i)
		}
	}
}

func TestReconstructDataLeavesParityMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	orig := makeShards(t, rng, e, 512)
	got := cloneShards(orig)
	erase(got, 1) // data, to repair
	got[7] = nil  // parity, absent and not to be repaired
	if err := e.ReconstructInto(got); err != nil {
		t.Fatalf("ReconstructInto: %v", err)
	}
	if !bytes.Equal(got[1], orig[1]) {
		t.Fatal("data shard 1 not recovered")
	}
	if got[7] != nil {
		t.Fatal("ReconstructInto must not touch a nil parity shard")
	}
}

func TestVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	shards := makeShards(t, rng, e, 512)
	ok, err := e.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify on intact shards = (%v, %v), want (true, nil)", ok, err)
	}
	shards[6][100] ^= 0xA5
	ok, err = e.Verify(shards)
	if ok || !errors.Is(err, ErrParityMismatch) {
		t.Fatalf("Verify on corrupted parity = (%v, %v), want (false, ErrParityMismatch)", ok, err)
	}
	if err == nil || !strings.Contains(err.Error(), "parity shard 6") {
		t.Fatalf("Verify error %q does not name the mismatching parity shard 6", err)
	}
	shards[6][100] ^= 0xA5
	shards[2][0] ^= 1 // corrupt data: parity no longer matches
	ok, err = e.Verify(shards)
	if ok || !errors.Is(err, ErrParityMismatch) {
		t.Fatalf("Verify on corrupted data = (%v, %v), want (false, ErrParityMismatch)", ok, err)
	}
}

// TestVerifyReportsAllMismatches corrupts parity shards in different
// byte ranges (and in descending index order across chunks) and checks
// the error lists every mismatching index, ascending, exactly once.
func TestVerifyReportsAllMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	size := 3 * verifyChunk / 2 // two chunks, so mismatches span chunk scans
	shards := makeShards(t, rng, e, size)
	shards[8][17] ^= 1            // first chunk, high index
	shards[8][size-1] ^= 1        // second chunk too: must not be double-reported
	shards[6][verifyChunk+5] ^= 1 // second chunk, low index
	ok, err := e.Verify(shards)
	if ok || !errors.Is(err, ErrParityMismatch) {
		t.Fatalf("Verify = (%v, %v), want (false, ErrParityMismatch)", ok, err)
	}
	var pm *ParityMismatchError
	if !errors.As(err, &pm) {
		t.Fatalf("Verify error %T is not a *ParityMismatchError", err)
	}
	if want := []int{6, 8}; len(pm.Indices) != 2 || pm.Indices[0] != want[0] || pm.Indices[1] != want[1] {
		t.Fatalf("Verify mismatch indices = %v, want %v", pm.Indices, want)
	}
	// A corrupt data shard flips every parity shard: the estimator's
	// "all parities bad" signal.
	shards = makeShards(t, rng, e, 512)
	shards[2][100] ^= 0x5a
	_, err = e.Verify(shards)
	if !errors.As(err, &pm) || len(pm.Indices) != 4 {
		t.Fatalf("Verify with corrupt data reported %v, want all 4 parity shards", err)
	}
}

// TestEncodeInto checks the allocation-free encode path: preallocated
// parity matches a separate encode of the same data, and missing parity
// is an error rather than an allocation.
func TestEncodeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := makeShards(t, rng, e, 513)
	got := make([][]byte, 9)
	for i := 0; i < 5; i++ {
		got[i] = append([]byte(nil), want[i]...)
	}
	if err := e.EncodeInto(got); !errors.Is(err, ErrShardSize) {
		t.Fatalf("EncodeInto with missing parity = %v, want ErrShardSize", err)
	}
	for i := 5; i < 9; i++ {
		got[i] = make([]byte, 513)
	}
	if err := e.EncodeInto(got); err != nil {
		t.Fatalf("EncodeInto: %v", err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("EncodeInto shard %d differs from the reference encode", i)
		}
	}
}

// TestEncodeParity checks the inline encode from scattered data slices:
// for every shape and for sizes on both sides of a tile edge, parity
// equals EncodeInto's whatever mix of outputs is streamed, the data is only
// read, nothing is allocated, and a wrong count or size is an error.
func TestEncodeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sh := range shapes {
		e, err := New(sh.n, sh.k)
		if err != nil {
			t.Fatal(err)
		}
		np := sh.n - sh.k
		for _, size := range []int{1, 513, tileSize(sh.k) - 1, tileSize(sh.k), tileSize(sh.k) + 257, 3*tileSize(sh.k) + 64} {
			want := makeShards(t, rng, e, size)
			data := cloneShards(want[:sh.k])
			for mask := 0; mask < 1<<np; mask += max(1, (1<<np)/4) {
				parity := make([][]byte, np)
				stream := make([]bool, np)
				for i := range parity {
					parity[i] = bytes.Repeat([]byte{0xa5}, size)
					stream[i] = mask&(1<<i) != 0
				}
				if mask == 0 {
					stream = nil
				}
				if err := e.EncodeParity(data, parity, stream); err != nil {
					t.Fatalf("[%d,%d] size %d: EncodeParity: %v", sh.n, sh.k, size, err)
				}
				for i := range parity {
					if !bytes.Equal(parity[i], want[sh.k+i]) {
						t.Fatalf("[%d,%d] size %d mask %b: parity %d differs from EncodeInto", sh.n, sh.k, size, mask, i)
					}
				}
				for i := range data {
					if !bytes.Equal(data[i], want[i]) {
						t.Fatalf("[%d,%d] size %d: EncodeParity wrote data shard %d", sh.n, sh.k, size, i)
					}
				}
			}
		}
	}

	e, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, 3)
	for i := range data {
		data[i] = make([]byte, 100<<10)
		rng.Read(data[i])
	}
	parity := [][]byte{make([]byte, 100<<10), make([]byte, 100<<10)}
	stream := []bool{true, false}
	run := func() {
		if err := e.EncodeParity(data, parity, stream); err != nil {
			t.Fatal(err)
		}
	}
	run()
	// Allocation counts are not meaningful under -race.
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 && !raceEnabled {
		t.Errorf("EncodeParity allocates %.1f times per op, want 0", allocs)
	}
	for name, call := range map[string]func() error{
		"two data":      func() error { return e.EncodeParity(data[:2], parity, nil) },
		"one parity":    func() error { return e.EncodeParity(data, parity[:1], nil) },
		"one flag":      func() error { return e.EncodeParity(data, parity, stream[:1]) },
		"empty data":    func() error { return e.EncodeParity([][]byte{nil, nil, nil}, parity, nil) },
		"short data":    func() error { return e.EncodeParity([][]byte{data[0], data[1], data[2][:5]}, parity, nil) },
		"short parity":  func() error { return e.EncodeParity(data, [][]byte{parity[0], parity[1][:5]}, nil) },
		"absent parity": func() error { return e.EncodeParity(data, [][]byte{parity[0], nil}, nil) },
	} {
		if err := call(); !errors.Is(err, ErrShardCount) && !errors.Is(err, ErrShardSize) {
			t.Errorf("%s: EncodeParity = %v, want a shard count/size error", name, err)
		}
	}
}

// TestReconstructInto checks the caller-supplied-buffer repair path:
// zero-length entries with capacity are filled in place, nil entries
// are skipped, and an undersized buffer is an error.
func TestReconstructInto(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1031
	orig := makeShards(t, rng, e, size)

	bufData := make([]byte, size)
	bufParity := make([]byte, size)
	got := cloneShards(orig)
	got[1] = bufData[:0]
	got[7] = bufParity[:0]
	got[3] = nil // absent and not to be repaired
	if err := e.ReconstructInto(got); err != nil {
		t.Fatalf("ReconstructInto: %v", err)
	}
	if !bytes.Equal(got[1], orig[1]) || !bytes.Equal(got[7], orig[7]) {
		t.Fatal("ReconstructInto did not repair the targeted shards")
	}
	if &got[1][0] != &bufData[0] || &got[7][0] != &bufParity[0] {
		t.Fatal("ReconstructInto must fill the caller's buffers in place")
	}
	if got[3] != nil {
		t.Fatal("ReconstructInto must leave nil shards untouched")
	}

	// Undersized buffer: error before any mutation.
	got = cloneShards(orig)
	got[2] = make([]byte, 0, size-1)
	if err := e.ReconstructInto(got); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ReconstructInto with undersized buffer = %v, want ErrShardSize", err)
	}
}

func TestSystematicPrefixIsData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, 3)
	shards := make([][]byte, 5)
	for i := range data {
		data[i] = make([]byte, 64)
		rng.Read(data[i])
		shards[i] = append([]byte(nil), data[i]...)
	}
	shards[3], shards[4] = make([]byte, 64), make([]byte, 64)
	if err := e.EncodeInto(shards); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(shards[i], data[i]) {
			t.Fatalf("systematic code must leave data shard %d untouched", i)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := New(3, 5); !errors.Is(err, ErrInvalidShape) {
		t.Fatalf("New(3,5) = %v, want ErrInvalidShape", err)
	}
	if _, err := New(300, 5); !errors.Is(err, ErrInvalidShape) {
		t.Fatalf("New(300,5) = %v, want ErrInvalidShape", err)
	}
	if _, err := New(5, 0); !errors.Is(err, ErrInvalidShape) {
		t.Fatalf("New(5,0) = %v, want ErrInvalidShape", err)
	}
	// 255 distinct nonzero evaluation points, no more.
	if _, err := New(256, 10); !errors.Is(err, ErrInvalidShape) {
		t.Fatalf("New(256,10) = %v, want ErrInvalidShape", err)
	}
	if _, err := New(255, 10); err != nil {
		t.Fatalf("New(255,10): %v", err)
	}

	e, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EncodeInto(make([][]byte, 4)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("EncodeInto with 4 shards = %v, want ErrShardCount", err)
	}
	if err := e.ReconstructInto(make([][]byte, 6)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("ReconstructInto with 6 shards = %v, want ErrShardCount", err)
	}
	if _, err := e.Verify(make([][]byte, 4)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("Verify with 4 shards = %v, want ErrShardCount", err)
	}

	shards := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 9), nil, nil}
	if err := e.EncodeInto(shards); !errors.Is(err, ErrShardSize) {
		t.Fatalf("EncodeInto with ragged data = %v, want ErrShardSize", err)
	}
	shards = [][]byte{nil, make([]byte, 8), make([]byte, 8), nil, nil}
	if err := e.EncodeInto(shards); !errors.Is(err, ErrShardSize) {
		t.Fatalf("EncodeInto with missing data = %v, want ErrShardSize", err)
	}
	shards = [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8), make([]byte, 7), nil}
	if err := e.EncodeInto(shards); !errors.Is(err, ErrShardSize) {
		t.Fatalf("EncodeInto with short parity = %v, want ErrShardSize", err)
	}

	// Too few survivors.
	shards = make([][]byte, 5)
	shards[0] = make([]byte, 8)
	shards[4] = make([]byte, 8)
	if err := e.ReconstructInto(shards); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("ReconstructInto with 2 of 3 = %v, want ErrTooFewShards", err)
	}
	// Ragged survivors.
	shards[3] = make([]byte, 9)
	if err := e.ReconstructInto(shards); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ReconstructInto with ragged survivors = %v, want ErrShardSize", err)
	}
}

// TestSingularDecodeMatrix doctors the generator so a survivor set
// selects a singular sub-matrix, and checks the error surfaces as
// matrix.ErrSingular rather than a panic or silent corruption.
func TestSingularDecodeMatrix(t *testing.T) {
	e, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Make generator row 2 a duplicate of row 0: survivors {0, 2} now
	// select a singular 2x2 sub-generator.
	copy(e.gen.Row(2), e.gen.Row(0))
	shards := [][]byte{make([]byte, 8), make([]byte, 0, 8), make([]byte, 8), nil}
	if err := e.ReconstructInto(shards); !errors.Is(err, matrix.ErrSingular) {
		t.Fatalf("ReconstructInto with singular sub-generator = %v, want ErrSingular", err)
	}
}

func TestDecodeMatrixCache(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	orig := makeShards(t, rng, e, 128)

	drop := func(idx ...int) [][]byte {
		s := cloneShards(orig)
		erase(s, idx...)
		return s
	}

	for i := 0; i < 3; i++ {
		if err := e.ReconstructInto(drop(0, 3)); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, entries := e.cache.stats()
	if misses != 1 || hits != 2 || entries != 1 {
		t.Fatalf("after 3 identical failure patterns: hits=%d misses=%d entries=%d, want 2/1/1", hits, misses, entries)
	}
	if err := e.ReconstructInto(drop(1, 4)); err != nil {
		t.Fatal(err)
	}
	hits, misses, entries = e.cache.stats()
	if misses != 2 || hits != 2 || entries != 2 {
		t.Fatalf("after a second pattern: hits=%d misses=%d entries=%d, want 2/2/2", hits, misses, entries)
	}
}

func TestCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	e.cache = newMatrixCache(1)
	orig := makeShards(t, rng, e, 64)
	for round := 0; round < 2; round++ {
		for _, i := range []int{0, 1} {
			s := cloneShards(orig)
			erase(s, i)
			if err := e.ReconstructInto(s); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s[i], orig[i]) {
				t.Fatalf("shard %d mismatch after eviction churn", i)
			}
		}
	}
	hits, misses, entries := e.cache.stats()
	if entries != 1 {
		t.Fatalf("cache of size 1 holds %d entries", entries)
	}
	// Alternating patterns with capacity 1 can never hit.
	if hits != 0 || misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 0/4", hits, misses)
	}
}

// TestConcurrentOneEncoder hammers a single Encoder from many
// goroutines — encode, verify, and reconstruct mixed — to exercise the
// pooled scratch and the decode-matrix cache under the race detector.
func TestConcurrentOneEncoder(t *testing.T) {
	e, err := New(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 20; iter++ {
				size := 1000 + rng.Intn(9000)
				shards := make([][]byte, 9)
				for i := range shards {
					shards[i] = make([]byte, size)
					if i < 5 {
						rng.Read(shards[i])
					}
				}
				if err := e.EncodeInto(shards); err != nil {
					t.Errorf("EncodeInto: %v", err)
					return
				}
				if ok, err := e.Verify(shards); err != nil || !ok {
					t.Errorf("Verify = (%v, %v)", ok, err)
					return
				}
				want := cloneShards(shards)
				// Alternate between two failure patterns so cache hits
				// and misses both happen concurrently.
				drop := []int{0, 6}
				if iter%2 == 1 {
					drop = []int{2, 3}
				}
				erase(shards, drop...)
				if err := e.ReconstructInto(shards); err != nil {
					t.Errorf("ReconstructInto: %v", err)
					return
				}
				for i := range shards {
					if !bytes.Equal(shards[i], want[i]) {
						t.Errorf("shard %d mismatch after concurrent reconstruct", i)
						return
					}
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	if hits, misses, _ := e.cache.stats(); hits+misses == 0 {
		t.Fatal("concurrent reconstructs should have touched the decode-matrix cache")
	}
}

func TestReconstructNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	e, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	shards := makeShards(t, rng, e, 64)
	want := cloneShards(shards)
	if err := e.ReconstructInto(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatal("ReconstructInto with nothing missing must not alter shards")
		}
	}
}
