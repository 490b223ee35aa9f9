package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// mulAddMultiSeed is the ground-truth reference for the fused kernels:
// a loop of seed scalar log/exp multiply-accumulates.
func mulAddMultiSeed(coeffs []byte, inputs [][]byte, dst []byte) {
	for j, c := range coeffs {
		mulAddSliceScalar(c, dst, inputs[j])
	}
}

// multiTestLengths exercises every dispatch boundary: the table's
// 8-byte unroll, the AVX2 multi block (128), the GFNI multi block
// (256), the table fallback's L1 tile (8 KiB), and odd tails on either
// side of each.
var multiTestLengths = []int{0, 1, 7, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 1000, 4096, 4097, 8191, 8192, 8193, 16411}

// multiCoeffs returns k pseudo-random coefficients that always include
// the special cases 0 and 1 once k allows.
func multiCoeffs(rng *rand.Rand, k int) []byte {
	coeffs := make([]byte, k)
	rng.Read(coeffs)
	if k > 1 {
		coeffs[rng.Intn(k)] = 0
	}
	if k > 2 {
		coeffs[0] = 1
	}
	return coeffs
}

// forEachKernel runs f once per kernel tier available on this
// machine/build, restoring the best tier afterwards. Under the purego
// tag only "table" runs, so the suite stays meaningful on every build.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func() {
		if err := SetKernel("auto"); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range AvailableKernels() {
		t.Run(name, func(t *testing.T) {
			if err := SetKernel(name); err != nil {
				t.Fatal(err)
			}
			f(t)
		})
	}
}

// TestMulAddMultiEquivalence is the fused-kernel property test: for
// every kernel tier, shard counts 1..16, and lengths straddling every
// block boundary, MulAddMulti must equal both a sequential MulAddSlice
// loop and the seed scalar reference.
func TestMulAddMultiEquivalence(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for k := 1; k <= 16; k++ {
			for _, n := range multiTestLengths {
				coeffs := multiCoeffs(rng, k)
				inputs := make([][]byte, k)
				for j := range inputs {
					inputs[j] = randSlice(rng, n)
				}
				base := randSlice(rng, n)

				fused := append([]byte(nil), base...)
				MulAddMulti(coeffs, inputs, fused)

				seq := append([]byte(nil), base...)
				for j, c := range coeffs {
					MulAddSlice(c, seq, inputs[j])
				}

				seed := append([]byte(nil), base...)
				mulAddMultiSeed(coeffs, inputs, seed)

				if !bytes.Equal(fused, seq) {
					t.Fatalf("k=%d n=%d: MulAddMulti diverges from sequential MulAddSlice", k, n)
				}
				if !bytes.Equal(fused, seed) {
					t.Fatalf("k=%d n=%d: MulAddMulti diverges from seed scalar kernel", k, n)
				}
			}
		}
	})
}

// TestMulMultiEquivalence is the overwrite-variant property test.
func TestMulMultiEquivalence(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for k := 1; k <= 16; k++ {
			for _, n := range multiTestLengths {
				coeffs := multiCoeffs(rng, k)
				inputs := make([][]byte, k)
				for j := range inputs {
					inputs[j] = randSlice(rng, n)
				}

				fused := randSlice(rng, n) // stale contents must be overwritten
				MulMulti(coeffs, inputs, fused)

				seed := make([]byte, n)
				mulAddMultiSeed(coeffs, inputs, seed)

				if !bytes.Equal(fused, seed) {
					t.Fatalf("k=%d n=%d: MulMulti diverges from seed scalar kernel", k, n)
				}
			}
		}
	})
}

// TestMulSliceMatchesScalarAllKernels runs the single-coefficient
// entry points under each forced tier, at every dispatch boundary and
// for all 256 coefficients: MulAddSlice, and MulSlice both out of
// place and in place (dst aliasing src exactly), against the log/exp
// references.
func TestMulSliceMatchesScalarAllKernels(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, n := range multiTestLengths {
			src := randSlice(rng, n)
			base := randSlice(rng, n)
			for c := 0; c < 256; c++ {
				ref := append([]byte(nil), base...)
				mulAddSliceScalar(byte(c), ref, src)
				fast := append([]byte(nil), base...)
				MulAddSlice(byte(c), fast, src)
				if !bytes.Equal(fast, ref) {
					t.Fatalf("MulAddSlice(c=%#x, n=%d) diverges under forced kernel", c, n)
				}

				mulSliceScalar(byte(c), ref, src)
				fast = append(fast[:0], base...) // stale contents must be overwritten
				MulSlice(byte(c), fast, src)
				if !bytes.Equal(fast, ref) {
					t.Fatalf("MulSlice(c=%#x, n=%d) diverges under forced kernel", c, n)
				}
				fast = append(fast[:0], src...)
				MulSlice(byte(c), fast, fast)
				if !bytes.Equal(fast, ref) {
					t.Fatalf("in-place MulSlice(c=%#x, n=%d) diverges under forced kernel", c, n)
				}
			}
		}
	})
}

// TestMulSliceZeroAlloc pins that the single-coefficient entry points
// allocate nothing: their one-element coefficient and input lists stay
// on the stack.
func TestMulSliceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	forEachKernel(t, func(t *testing.T) {
		dst, src := benchSlices(1000)
		if allocs := testing.AllocsPerRun(20, func() {
			MulSlice(0x53, dst, src)
			MulAddSlice(0x53, dst, src)
		}); allocs != 0 {
			t.Fatalf("MulSlice+MulAddSlice: %v allocs per run, want 0", allocs)
		}
	})
}

// TestMulMultiZeroCoeffs checks the degenerate shapes: no inputs (dst
// zeroed / untouched) and all-zero coefficients.
func TestMulMultiZeroCoeffs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dst := randSlice(rng, 300)
	orig := append([]byte(nil), dst...)
	MulAddMulti(nil, nil, dst)
	if !bytes.Equal(dst, orig) {
		t.Fatal("MulAddMulti with no inputs must leave dst untouched")
	}
	MulMulti(nil, nil, dst)
	for _, b := range dst {
		if b != 0 {
			t.Fatal("MulMulti with no inputs must zero dst")
		}
	}
	coeffs := make([]byte, 3)
	inputs := [][]byte{randSlice(rng, 300), randSlice(rng, 300), randSlice(rng, 300)}
	MulMulti(coeffs, inputs, dst)
	for _, b := range dst {
		if b != 0 {
			t.Fatal("MulMulti with all-zero coefficients must zero dst")
		}
	}
}

func TestMulMultiPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("count mismatch", func() {
		MulAddMulti(make([]byte, 2), make([][]byte, 3), make([]byte, 8))
	})
	mustPanic("length mismatch", func() {
		MulMulti(make([]byte, 1), [][]byte{make([]byte, 7)}, make([]byte, 8))
	})
}

// TestGFNIMatrix pins the affine-matrix packing against the scalar
// field core for every coefficient and byte value, independently of
// the assembly (so the table is validated even where GFNI is absent).
func TestGFNIMatrix(t *testing.T) {
	for c := 0; c < 256; c++ {
		m := gfniMatrix(byte(c))
		for a := 0; a < 256; a++ {
			var got byte
			for i := 0; i < 8; i++ {
				row := byte(m >> (8 * (7 - i)))
				// parity(row & a) -> bit i
				p := row & byte(a)
				p ^= p >> 4
				p ^= p >> 2
				p ^= p >> 1
				got |= (p & 1) << i
			}
			if want := Mul(byte(c), byte(a)); got != want {
				t.Fatalf("gfniMatrix(%#x) applied to %#x = %#x, want %#x", c, a, got, want)
			}
		}
	}
}

// FuzzMulAddMulti cross-checks the fused kernel against the seed
// scalar reference on fuzz-chosen shard counts, lengths, and contents.
func FuzzMulAddMulti(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(1), int64(1))
	f.Add(bytes.Repeat([]byte{0xa5}, 300), uint8(7), int64(42))
	f.Add(make([]byte, 4096), uint8(15), int64(-1))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8, seed int64) {
		k := int(kRaw%16) + 1
		n := len(data)
		rng := rand.New(rand.NewSource(seed))
		coeffs := make([]byte, k)
		rng.Read(coeffs)
		inputs := make([][]byte, k)
		inputs[0] = data
		for j := 1; j < k; j++ {
			inputs[j] = randSlice(rng, n)
		}
		base := randSlice(rng, n)

		fused := append([]byte(nil), base...)
		MulAddMulti(coeffs, inputs, fused)
		seed2 := append([]byte(nil), base...)
		mulAddMultiSeed(coeffs, inputs, seed2)
		if !bytes.Equal(fused, seed2) {
			t.Fatalf("k=%d n=%d: MulAddMulti diverges from seed scalar kernel", k, n)
		}
	})
}

// BenchmarkMulAddMulti measures the fused kernel at the codec's
// realistic shard count (k=10) across shard sizes.
func BenchmarkMulAddMulti(b *testing.B) {
	const k = 10
	for _, bc := range []struct {
		name string
		size int
	}{
		{"1KiB", 1 << 10},
		{"64KiB", 64 << 10},
		{"1MiB", 1 << 20},
	} {
		rng := rand.New(rand.NewSource(6))
		coeffs := make([]byte, k)
		rng.Read(coeffs)
		inputs := make([][]byte, k)
		for j := range inputs {
			inputs[j] = make([]byte, bc.size)
			rng.Read(inputs[j])
		}
		dst := make([]byte, bc.size)
		b.Run(fmt.Sprintf("k%d/%s", k, bc.name), func(b *testing.B) {
			b.SetBytes(int64(k * bc.size)) // input bytes processed
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulAddMulti(coeffs, inputs, dst)
			}
		})
	}
}

// BenchmarkMulAddMultiUnfused is the same linear combination as k
// sequential MulAddSlice calls — the pre-fusion codec inner loop, kept
// for the fused-vs-unfused delta.
func BenchmarkMulAddMultiUnfused(b *testing.B) {
	const k = 10
	for _, bc := range []struct {
		name string
		size int
	}{
		{"1KiB", 1 << 10},
		{"64KiB", 64 << 10},
		{"1MiB", 1 << 20},
	} {
		rng := rand.New(rand.NewSource(6))
		coeffs := make([]byte, k)
		rng.Read(coeffs)
		inputs := make([][]byte, k)
		for j := range inputs {
			inputs[j] = make([]byte, bc.size)
			rng.Read(inputs[j])
		}
		dst := make([]byte, bc.size)
		b.Run(fmt.Sprintf("k%d/%s", k, bc.name), func(b *testing.B) {
			b.SetBytes(int64(k * bc.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, c := range coeffs {
					MulAddSlice(c, dst, inputs[j])
				}
			}
		})
	}
}

// BenchmarkMulAddMultiKernels compares the dispatch tiers (GFNI vs
// AVX2 vs table) on the same fused workload. Tiers the machine lacks
// are skipped.
func BenchmarkMulAddMultiKernels(b *testing.B) {
	const k, size = 10, 64 << 10
	rng := rand.New(rand.NewSource(6))
	coeffs := make([]byte, k)
	rng.Read(coeffs)
	inputs := make([][]byte, k)
	for j := range inputs {
		inputs[j] = make([]byte, size)
		rng.Read(inputs[j])
	}
	dst := make([]byte, size)
	defer func() {
		if err := SetKernel("auto"); err != nil {
			b.Fatal(err)
		}
	}()
	for _, name := range AvailableKernels() {
		b.Run(name, func(b *testing.B) {
			if err := SetKernel(name); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(k * size))
			for i := 0; i < b.N; i++ {
				MulAddMulti(coeffs, inputs, dst)
			}
		})
	}
}
