package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestMulTableRowExhaustive checks every row of the 256x256 product
// table against the scalar field core.
func TestMulTableRowExhaustive(t *testing.T) {
	mulTableOnce.Do(buildMulTable)
	for c := 0; c < 256; c++ {
		row := &mulTable[c]
		for a := 0; a < 256; a++ {
			if got, want := row[a], Mul(byte(c), byte(a)); got != want {
				t.Fatalf("mulTable[%#x][%#x] = %#x, want %#x", c, a, got, want)
			}
		}
	}
}

// randSlice returns a deterministic pseudo-random slice that includes
// zeros (the scalar path special-cases them).
func randSlice(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	rng.Read(s)
	for i := 0; i < n; i += 7 {
		s[i] = 0
	}
	return s
}

// TestMulSliceMatchesScalar runs the table kernel against the log/exp
// reference for all 256 coefficients, with lengths chosen to exercise
// both the unrolled body and the tail.
func TestMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		src := randSlice(rng, n)
		for c := 0; c < 256; c++ {
			fast := make([]byte, n)
			ref := make([]byte, n)
			rng.Read(fast) // ensure stale contents get overwritten
			copy(ref, fast)
			MulSlice(byte(c), fast, src)
			mulSliceScalar(byte(c), ref, src)
			if !bytes.Equal(fast, ref) {
				t.Fatalf("MulSlice(c=%#x, n=%d) diverges from scalar reference", c, n)
			}
		}
	}
}

// TestMulAddSliceMatchesScalar is the same equivalence check for the
// fused multiply-accumulate.
func TestMulAddSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		src := randSlice(rng, n)
		base := randSlice(rng, n)
		for c := 0; c < 256; c++ {
			fast := make([]byte, n)
			ref := make([]byte, n)
			copy(fast, base)
			copy(ref, base)
			MulAddSlice(byte(c), fast, src)
			mulAddSliceScalar(byte(c), ref, src)
			if !bytes.Equal(fast, ref) {
				t.Fatalf("MulAddSlice(c=%#x, n=%d) diverges from scalar reference", c, n)
			}
		}
	}
}

func TestMulSliceAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randSlice(rng, 100)
	want := make([]byte, len(s))
	MulSlice(0x53, want, s)
	MulSlice(0x53, s, s) // in place
	if !bytes.Equal(s, want) {
		t.Fatal("in-place MulSlice differs from out-of-place")
	}
}

func benchSlices(size int) (dst, src []byte) {
	rng := rand.New(rand.NewSource(5))
	dst = make([]byte, size)
	src = make([]byte, size)
	rng.Read(dst)
	rng.Read(src)
	return
}

func BenchmarkMulAddSlice(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{
		{"1KiB", 1 << 10},
		{"64KiB", 64 << 10},
		{"1MiB", 1 << 20},
	} {
		dst, src := benchSlices(bc.size)
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(bc.size))
			for i := 0; i < b.N; i++ {
				MulAddSlice(0x53, dst, src)
			}
		})
	}
}

// BenchmarkMulAddSliceScalar is the seed log/exp kernel, kept as the
// baseline for the table-driven speedup.
func BenchmarkMulAddSliceScalar(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{
		{"1KiB", 1 << 10},
		{"64KiB", 64 << 10},
		{"1MiB", 1 << 20},
	} {
		dst, src := benchSlices(bc.size)
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(bc.size))
			for i := 0; i < b.N; i++ {
				mulAddSliceScalar(0x53, dst, src)
			}
		})
	}
}

func BenchmarkMulSlice(b *testing.B) {
	dst, src := benchSlices(64 << 10)
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		MulSlice(0x53, dst, src)
	}
}

// mulSliceScalar is the original log/exp reference kernel, kept for
// equivalence tests and as the baseline the table kernel is benchmarked
// against.
func mulSliceScalar(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		lc := int(logTable[c])
		for i, s := range src {
			if s == 0 {
				dst[i] = 0
			} else {
				dst[i] = expTable[lc+int(logTable[s])]
			}
		}
	}
}

// mulAddSliceScalar is the original log/exp reference for MulAddSlice.
func mulAddSliceScalar(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	lc := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[lc+int(logTable[s])]
		}
	}
}
