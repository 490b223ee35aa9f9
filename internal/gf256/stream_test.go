package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// streamTestLengths straddle the 128- and 256-byte kernel blocks, the
// CopyStream cut-over, the 4 KiB tile and the 8 KiB table block.
var streamTestLengths = []int{0, 1, 63, 64, 127, 128, 129, 255, 256, 257, 383, 384, 385, 511, 512, 513, 4095, 4096, 4097, 4096 + 128, 8191, 8192, 8193, 16411}

// alignedAt returns n bytes whose base address is off past a 64-byte
// boundary, with a guard on both sides so an overrun shows.
func alignedAt(off, n int) (buf, window []byte) {
	buf = make([]byte, n+192)
	skip := -int(uintptr(unsafe.Pointer(&buf[0])))&63 + 64 + off
	return buf, buf[skip : skip+n : skip+n]
}

// checkGuards fails if anything outside window changed from fill.
func checkGuards(t *testing.T, buf, window []byte, fill byte, what string) {
	t.Helper()
	lo := int(uintptr(unsafe.Pointer(unsafe.SliceData(window))) - uintptr(unsafe.Pointer(&buf[0])))
	for i, b := range buf {
		if (i < lo || i >= lo+len(window)) && b != fill {
			t.Fatalf("%s: wrote outside dst at offset %d", what, i-lo)
		}
	}
}

// TestMulMultiStreamEquivalence: under every tier, for every
// destination misalignment 0..63, the streaming twin stores exactly
// the scalar reference's bytes and nothing else.
func TestMulMultiStreamEquivalence(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, k := range []int{1, 2, 3, 10} {
			for _, n := range streamTestLengths {
				coeffs := multiCoeffs(rng, k)
				inputs := make([][]byte, k)
				for j := range inputs {
					inputs[j] = randSlice(rng, n)
				}
				want := make([]byte, n)
				mulAddMultiSeed(coeffs, inputs, want)
				for off := 0; off < 64; off++ {
					buf, dst := alignedAt(off, n)
					for i := range buf {
						buf[i] = 0xa5 // stale contents must be overwritten
					}
					MulMultiStream(coeffs, inputs, dst)
					if !bytes.Equal(dst, want) {
						t.Fatalf("k=%d n=%d off=%d: MulMultiStream diverges from seed scalar kernel", k, n, off)
					}
					checkGuards(t, buf, dst, 0xa5, "MulMultiStream")
				}
			}
		}
	})
}

// TestMulMultiStreamDegenerate: no inputs zeroes dst, as MulMulti does.
func TestMulMultiStreamDegenerate(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		_, dst := alignedAt(0, 512)
		for i := range dst {
			dst[i] = 0xff
		}
		MulMultiStream(nil, nil, dst)
		if !bytes.Equal(dst, make([]byte, 512)) {
			t.Fatal("MulMultiStream with no inputs must zero dst")
		}
		MulMultiStream([]byte{3}, [][]byte{nil}, nil) // zero length: no fault
	})
}

// TestCopyStreamEquivalence: CopyStream is copy — same bytes, same
// count, nothing outside dst — for every misalignment of dst, with src
// at an unrelated alignment and either side the shorter one.
func TestCopyStreamEquivalence(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for _, n := range streamTestLengths {
			src := randSlice(rng, n+7)[7:]
			for off := 0; off < 64; off++ {
				buf, dst := alignedAt(off, n)
				if got := CopyStream(dst, src); got != n || !bytes.Equal(dst, src) {
					t.Fatalf("n=%d off=%d: CopyStream = %d, bytes equal %v", n, off, got, bytes.Equal(dst, src))
				}
				checkGuards(t, buf, dst, 0, "CopyStream")
			}
		}
		_, dst := alignedAt(5, 1000)
		src := randSlice(rng, 600)
		if got := CopyStream(dst, src); got != 600 || !bytes.Equal(dst[:600], src) || !bytes.Equal(dst[600:], make([]byte, 400)) {
			t.Fatalf("short src: CopyStream = %d", got)
		}
		if got := CopyStream(dst[:300], src); got != 300 || !bytes.Equal(dst[:300], src[:300]) {
			t.Fatalf("short dst: CopyStream = %d", got)
		}
	})
}

// BenchmarkMulMultiStream and BenchmarkCopyStream walk 256 MiB of
// destinations so every store misses, plain against streaming; the hot
// sub-benchmarks reuse one destination, where streaming must lose.
func BenchmarkMulMultiStream(b *testing.B) {
	const size, k = 128 << 10, 3
	rng := rand.New(rand.NewSource(23))
	coeffs := multiCoeffs(rng, k)
	inputs := make([][]byte, k)
	for j := range inputs {
		inputs[j] = randSlice(rng, size)
	}
	benchStream(b, size, func(dst []byte) { MulMulti(coeffs, inputs, dst) }, func(dst []byte) { MulMultiStream(coeffs, inputs, dst) })
}

func BenchmarkCopyStream(b *testing.B) {
	const size = 128 << 10
	src := randSlice(rand.New(rand.NewSource(24)), size)
	benchStream(b, size, func(dst []byte) { copy(dst, src) }, func(dst []byte) { CopyStream(dst, src) })
}

func benchStream(b *testing.B, size int, plain, stream func(dst []byte)) {
	arena := make([]byte, 256<<20)
	for i := 0; i < len(arena); i += 4096 {
		arena[i] = 1 // fault the pages in before anything is timed
	}
	for _, bc := range []struct {
		name string
		span int
		f    func([]byte)
	}{
		{"cold/plain", len(arena), plain},
		{"cold/stream", len(arena), stream},
		{"hot/plain", size, plain},
		{"hot/stream", size, stream},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			for i, lo := 0, 0; i < b.N; i++ {
				bc.f(arena[lo : lo+size])
				if lo += size; lo+size > bc.span {
					lo = 0
				}
			}
		})
	}
}
