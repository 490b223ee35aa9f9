package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		sorted []uint32
		p      float64
		want   uint32
	}{
		{ten, 50, 50},   // rank ceil(5.0) = 5
		{ten, 51, 60},   // rank ceil(5.1) = 6
		{ten, 99, 100},  // rank ceil(9.9) = 10
		{ten, 100, 100}, // rank 10
		{ten, 1, 10},    // rank ceil(0.1) = 1
		{[]uint32{7}, 50, 7},
		{[]uint32{1, 2, 3}, 50, 2}, // rank ceil(1.5) = 2
		{[]uint32{1, 2, 3, 4}, 50, 2},
		{nil, 50, 0},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %d, want %d", tc.sorted, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %g, want 5", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	// Root [100, 200). Children [110,150) and [130,170) overlap: their
	// union is 60, not 80. [190,260) outlives the root and is clipped to
	// 10. [20,90) lies before it and counts for nothing.
	children := []interval{{130, 170}, {110, 150}, {190, 260}, {20, 90}}
	self, covered := selfTime(100, 200, children)
	if covered != 70 || self != 30 {
		t.Errorf("self %d covered %d, want 30 and 70", self, covered)
	}
	if self, covered := selfTime(0, 50, nil); self != 50 || covered != 0 {
		t.Errorf("no children: self %d covered %d, want 50 and 0", self, covered)
	}
	// A child nested inside another adds nothing.
	if got := unionLen([]interval{{0, 100}, {10, 20}, {100, 110}}); got != 110 {
		t.Errorf("unionLen = %d, want 110", got)
	}
}

func TestOutputCheck(t *testing.T) {
	const size, key = 128, 42
	value := func(key, seq uint32) []byte {
		v := randomBlock(size, 1, 0)
		fillValue(v, key, seq)
		return v
	}
	// History of key 42: sequences 1..3 were written and returned, the
	// write of 4 has been issued and has not returned.
	const done, issued = 3, 4
	for _, seq := range []uint32{3, 4} {
		if err := checkValue(value(key, seq), size, key, done, issued); err != nil {
			t.Errorf("read concurrent with write 4 returned %d: %v", seq, err)
		}
	}
	reject := func(name, want string, v []byte) {
		t.Helper()
		err := checkValue(v, size, key, done, issued)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, want)
		}
	}
	reject("stale sequence", "stale", value(key, 2))
	reject("sequence from the future", "only 4 issued", value(key, 5))
	reject("another key's value", "read from key", value(key+1, 3))
	reject("short value", "bytes", value(key, 3)[:size-1])
	for _, off := range []int{hdrLen, size / 2, size - 1} {
		v := value(key, 3)
		v[off] ^= 1
		reject("corrupted body", "CRC", v)
	}
}

func TestSeedFixesTheOpStream(t *testing.T) {
	stream := func(seed uint64) []op {
		var ops []op
		for client := 0; client < 4; client++ {
			rng := newGen(seed, client)
			for range 1000 {
				ops = append(ops, nextOp(rng, 10000))
			}
		}
		return ops
	}
	a, b, c := stream(1), stream(1), stream(2)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave two different op streams")
	}
	if slices.Equal(a, c) {
		t.Error("seeds 1 and 2 gave the same op stream")
	}
	if slices.Equal(a[:1000], a[1000:2000]) {
		t.Error("clients 0 and 1 share an op stream")
	}
	writes := 0
	for _, o := range a {
		if o.write {
			writes++
		}
	}
	if writes < 1800 || writes > 2200 {
		t.Errorf("%d writes in 4000 ops, want about half", writes)
	}
}

// TestSmoke is `go run -C bench . -smoke`: every workload for a second,
// untraced and traced, with the emitted names checked against
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	if err := runSmoke(filepath.Join("out", "wal")); err != nil {
		t.Fatal(err)
	}
}
