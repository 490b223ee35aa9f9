package rs

import (
	"fmt"
	"math/rand"
	"testing"
)

var benchShapes = []struct{ n, k int }{
	{5, 3},
	{9, 5},
	{14, 10},
}

var benchSizes = []struct {
	name string
	size int
}{
	{"1KiB", 1 << 10},
	{"64KiB", 64 << 10},
	{"1MiB", 1 << 20},
}

func benchShards(b *testing.B, e *Encoder, size int) [][]byte {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	shards := make([][]byte, e.N())
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < e.K() {
			rng.Read(shards[i])
		}
	}
	if err := e.EncodeInto(shards); err != nil {
		b.Fatal(err)
	}
	return shards
}

func BenchmarkVerify(b *testing.B) {
	e, err := New(9, 5)
	if err != nil {
		b.Fatal(err)
	}
	shards := benchShards(b, e, 64<<10)
	b.SetBytes(int64(5 * (64 << 10)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := e.Verify(shards)
		if err != nil || !ok {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkEncodeInto is the steady-state write path: parity buffers
// preallocated, so the op must report 0 allocs.
func BenchmarkEncodeInto(b *testing.B) {
	for _, sh := range benchShapes {
		for _, sz := range benchSizes {
			b.Run(fmt.Sprintf("n%dk%d/%s", sh.n, sh.k, sz.name), func(b *testing.B) {
				e, err := New(sh.n, sh.k)
				if err != nil {
					b.Fatal(err)
				}
				shards := benchShards(b, e, sz.size)
				b.SetBytes(int64(sh.k * sz.size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.EncodeInto(shards); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReconstructInto measures repair of n-k erased shards (the
// first n-k, i.e. data shards for these shapes, so it measures survivor
// decode) into caller-supplied buffers. The warm rows keep a stable
// failure pattern, so the decode matrix is cached across iterations and
// the op must report 0 allocs; the cold rows give the Encoder a fresh
// decode-matrix cache every iteration, so each pays the O(k^3)
// inversion.
func BenchmarkReconstructInto(b *testing.B) {
	for _, sh := range benchShapes {
		for _, sz := range benchSizes {
			for _, cold := range []bool{false, true} {
				name := fmt.Sprintf("n%dk%d/%s", sh.n, sh.k, sz.name)
				if cold {
					name += "/cold"
				}
				b.Run(name, func(b *testing.B) {
					e, err := New(sh.n, sh.k)
					if err != nil {
						b.Fatal(err)
					}
					shards := benchShards(b, e, sz.size)
					nrepair := sh.n - sh.k
					b.SetBytes(int64(nrepair * sz.size))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if cold {
							e.cache = newMatrixCache(cacheSize)
						}
						for j := 0; j < nrepair; j++ {
							shards[j] = shards[j][:0] // erase, keep capacity
						}
						if err := e.ReconstructInto(shards); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkEncodeParallel is the concurrent-encoder throughput
// harness: many goroutines share one Encoder (as one storage node's
// write path would), each encoding its own shard set at a realistic
// shard size. Contention here is on the pooled scratch and kernel
// tables, not the data.
func BenchmarkEncodeParallel(b *testing.B) {
	for _, sz := range []struct {
		name string
		size int
	}{
		{"64KiB", 64 << 10},
		{"1MiB", 1 << 20},
	} {
		b.Run(fmt.Sprintf("n14k10/%s", sz.name), func(b *testing.B) {
			e, err := New(14, 10)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(10 * sz.size))
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(7))
				shards := make([][]byte, 14)
				for i := 0; i < 14; i++ {
					shards[i] = make([]byte, sz.size)
					if i < 10 {
						rng.Read(shards[i])
					}
				}
				for pb.Next() {
					if err := e.EncodeInto(shards); err != nil {
						b.Error(err) // Fatal must not be called off the benchmark goroutine
						return
					}
				}
			})
		})
	}
}

// BenchmarkDecodeErrors is the acceptance benchmark for syndrome-based
// error decoding: n=14, k=10, e=2 silently corrupt shards at a 64 KiB
// shard size, syndrome path (Berlekamp-Massey on fused syndromes)
// against the brute-force subset-decoding oracle (C(14,2)=91 trial
// erasure-decodes with full re-encode checks).
func BenchmarkDecodeErrors(b *testing.B) {
	for _, mode := range []string{"syndrome", "brute"} {
		for _, sz := range []struct {
			name string
			size int
		}{
			{"64KiB", 64 << 10},
			{"1MiB", 1 << 20},
		} {
			if mode == "brute" && sz.size > 64<<10 {
				continue // the oracle at 1 MiB is pointlessly slow
			}
			b.Run(fmt.Sprintf("%s/n14k10e2/%s", mode, sz.name), func(b *testing.B) {
				e, err := New(14, 10)
				if err != nil {
					b.Fatal(err)
				}
				orig := benchShards(b, e, sz.size)
				shards := make([][]byte, 14)
				for i := range shards {
					shards[i] = append([]byte(nil), orig[i]...)
				}
				corrupt := func() {
					copy(shards[3], orig[3])
					copy(shards[11], orig[11])
					shards[3][100] ^= 0x5a
					shards[11][sz.size-7] ^= 0xc3
				}
				b.SetBytes(int64(10 * sz.size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					corrupt()
					var got []int
					var err error
					if mode == "syndrome" {
						got, err = e.DecodeErrors(shards)
					} else {
						got, err = e.decodeErrorsBrute(shards)
					}
					if err != nil || len(got) != 2 {
						b.Fatalf("decode (%s) = (%v, %v)", mode, got, err)
					}
				}
			})
		}
	}
}
