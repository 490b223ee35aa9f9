package rs

import (
	"encoding/hex"
	"testing"
)

// TestGoldenParity pins the stored format. Elements are persisted in
// WALs and snapshots with no generator id, so the parity bytes of a
// value are part of the on-disk format: a change to the generator (the
// evaluation points, their order, the systematic form) must show up
// here as a diff, not as old data that silently stops decoding.
//
// The vectors were produced by PR 28's WithGenerator(GeneratorRSView)
// encoder — the code every SODA_err cluster stored under — from the 60
// bytes in[i] = 7i+3 split into k data shards.
func TestGoldenParity(t *testing.T) {
	in := make([]byte, 60)
	for i := range in {
		in[i] = byte(i*7 + 3)
	}
	for _, g := range []struct {
		n, k   int
		parity []string
	}{
		{5, 3, []string{
			"5029a2e691e5a3b0bf116ae3a9d0a645ba0ad2ab",
			"23da76fcf6117e963962993713b7523e9ba9a158",
		}},
		{9, 5, []string{
			"61c2a24818d00b6f96cedcbe",
			"3d2288792c0a600cf374af07",
			"3833a4bd5519d275f24038ad",
			"d2887ff4155d502e7387f80d",
		}},
		{14, 10, []string{
			"e6cd24681467",
			"bba10ee477e6",
			"f049e8c04e4c",
			"73c3695a6948",
		}},
	} {
		e, err := New(g.n, g.k)
		if err != nil {
			t.Fatal(err)
		}
		size := len(in) / g.k
		shards := make([][]byte, g.n)
		for i := 0; i < g.k; i++ {
			shards[i] = in[i*size : (i+1)*size]
		}
		if err := e.Encode(shards); err != nil {
			t.Fatal(err)
		}
		for i, want := range g.parity {
			if got := hex.EncodeToString(shards[g.k+i]); got != want {
				t.Errorf("[%d,%d] parity shard %d = %s, want %s", g.n, g.k, g.k+i, got, want)
			}
		}
	}
}
