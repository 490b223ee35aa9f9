package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gf256"
)

// FuzzDecodeErrors drives the syndrome decoder with fuzzer-chosen
// shape, damage pattern, and shard contents, and checks it against both
// the brute-force subset-decoding oracle and the original data, on
// every kernel tier of the dispatch ladder (gfni/avx2/table here,
// table-only under -tags purego).
func FuzzDecodeErrors(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), uint8(0), []byte("seed data for the fuzzer"))
	f.Add(int64(2), uint8(1), uint8(1), uint8(2), []byte{0x00, 0xff, 0x13})
	f.Add(int64(3), uint8(2), uint8(2), uint8(1), bytes.Repeat([]byte{0xa5}, 300))
	f.Add(int64(4), uint8(3), uint8(0), uint8(5), []byte{})

	shapes := []struct{ n, k int }{{5, 3}, {9, 5}, {14, 10}, {8, 3}}
	encoders := make([]*Encoder, len(shapes))
	for i, sh := range shapes {
		var err error
		if encoders[i], err = New(sh.n, sh.k); err != nil {
			f.Fatal(err)
		}
	}

	f.Fuzz(func(t *testing.T, seed int64, shapeSel, eSel, fSel uint8, data []byte) {
		enc := encoders[int(shapeSel)%len(shapes)]
		n, k := enc.N(), enc.K()
		d := n - k
		rng := rand.New(rand.NewSource(seed))
		size := 1 + len(data)%512

		// Build a valid codeword whose data shards mix the fuzz input
		// with rng filler.
		orig := make([][]byte, n)
		for i := 0; i < k; i++ {
			orig[i] = make([]byte, size)
			rng.Read(orig[i])
			for j := range orig[i] {
				if x := (i*size + j); x < len(data) {
					orig[i][j] ^= data[x]
				}
			}
		}
		if err := enc.Encode(orig); err != nil {
			t.Fatal(err)
		}

		nf := int(fSel) % (d + 1)
		ne := int(eSel) % ((d-nf)/2 + 1)
		perm := rng.Perm(n)
		damaged, wantCorrupt, _ := damage(rng, orig, perm, ne, nf, false)

		defer gf256.SetKernel("auto")
		for _, kern := range gf256.AvailableKernels() {
			if err := gf256.SetKernel(kern); err != nil {
				t.Fatal(err)
			}
			fast := cloneShards(damaged)
			got, err := enc.DecodeErrors(fast)
			if err != nil {
				t.Fatalf("kernel %s [%d,%d] e=%d f=%d size=%d: DecodeErrors: %v", kern, n, k, ne, nf, size, err)
			}
			if !slices.Equal(got, wantCorrupt) {
				t.Fatalf("kernel %s [%d,%d]: corrupt = %v, want %v", kern, n, k, got, wantCorrupt)
			}
			for i := range orig {
				if !bytes.Equal(fast[i], orig[i]) {
					t.Fatalf("kernel %s [%d,%d] e=%d f=%d: shard %d not restored", kern, n, k, ne, nf, i)
				}
			}
		}

		brute := cloneShards(damaged)
		gotBrute, err := enc.decodeErrorsBrute(brute)
		if err != nil {
			t.Fatalf("[%d,%d] e=%d f=%d: oracle: %v", n, k, ne, nf, err)
		}
		if !slices.Equal(gotBrute, wantCorrupt) {
			t.Fatalf("[%d,%d]: oracle corrupt = %v, want %v", n, k, gotBrute, wantCorrupt)
		}
		for i := range orig {
			if !bytes.Equal(brute[i], orig[i]) {
				t.Fatalf("[%d,%d]: oracle shard %d not restored", n, k, i)
			}
		}

		// Beyond-radius damage must fail loudly or land on a codeword,
		// never panic or return a non-codeword silently.
		if d >= 1 {
			over := cloneShards(orig)
			for _, p := range perm[:d/2+1] {
				corruptShard(rng, over, p)
			}
			if _, err := enc.DecodeErrors(over); err == nil {
				if ok, _ := enc.Verify(over); !ok {
					t.Fatalf("[%d,%d]: beyond-radius decode returned nil error on a non-codeword", n, k)
				}
			} else if !errors.Is(err, ErrTooManyErrors) {
				t.Fatalf("[%d,%d]: beyond-radius failure class: %v", n, k, err)
			}
		}
	})
}
