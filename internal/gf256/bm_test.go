package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// powerSumSyndromes computes S_t = sum_i mults[pos[i]]*points[pos[i]]^t
// * mags[i] for t = 0..d-1: the syndrome sequence an errata vector with
// the given positions and magnitudes produces. Decoding depends on the
// received word only through these, so the tests can work on errata
// vectors directly without materializing a code.
func powerSumSyndromes(d int, points, mults []byte, pos []int, mags []byte) []byte {
	s := make([]byte, d)
	for t := 0; t < d; t++ {
		for i, p := range pos {
			s[t] ^= Mul(Mul(mults[p], Pow(points[p], t)), mags[i])
		}
	}
	return s
}

func TestBerlekampMasseyLocatesPowerSums(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points := make([]byte, 30)
	mults := make([]byte, len(points))
	for i := range points {
		points[i] = Exp(i)
		mults[i] = 1
	}
	var bm BM
	for trial := 0; trial < 500; trial++ {
		d := 2 + rng.Intn(10)
		nerr := rng.Intn(d/2 + 1)
		perm := rng.Perm(len(points))[:nerr]
		xs := make([]byte, 0, nerr)
		for _, p := range perm {
			xs = append(xs, points[p])
		}
		want := ErrataLocatorInto(nil, xs)
		mags := make([]byte, nerr)
		for i := range mags {
			mags[i] = byte(1 + rng.Intn(255))
		}
		s := powerSumSyndromes(d, points, mults, perm, mags)
		got := bm.Run(s)
		// The minimal LFSR of the power sums is the locator up to
		// normalization; both have constant term 1, so compare directly.
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (d=%d, errs=%v): BM = %v, want locator %v", trial, d, perm, got, want)
		}
	}
}

func TestBerlekampMasseyZeroSequence(t *testing.T) {
	var bm BM
	if got := bm.Run(make([]byte, 8)); !bytes.Equal(got, []byte{1}) {
		t.Fatalf("BM of zero sequence = %v, want [1]", got)
	}
	if got := bm.Run(nil); !bytes.Equal(got, []byte{1}) {
		t.Fatalf("BM of empty sequence = %v, want [1]", got)
	}
}

func TestErrataLocatorRoots(t *testing.T) {
	xs := []byte{Exp(3), Exp(10), Exp(200)}
	loc := ErrataLocatorInto(nil, xs)
	if deg := PolyDegree(loc); deg != len(xs) {
		t.Fatalf("locator degree %d, want %d", deg, len(xs))
	}
	for _, x := range xs {
		if v := PolyEval(loc, Inv(x)); v != 0 {
			t.Fatalf("locator(1/%#02x) = %#02x, want 0", x, v)
		}
	}
	if v := PolyEval(loc, Inv(Exp(5))); v == 0 {
		t.Fatal("locator vanishes at a non-root")
	}
	if got := ErrataLocatorInto(nil, nil); !bytes.Equal(got, []byte{1}) {
		t.Fatalf("empty locator = %v, want [1]", got)
	}
}

// TestErasureModifiedSyndromesMatchesPolyMul checks the direct
// convolution against the definition Xi = Gamma*S mod x^d, tail from
// coefficient f on.
func TestErasureModifiedSyndromesMatchesPolyMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(12)
		f := rng.Intn(d + 1)
		s := make([]byte, d)
		rng.Read(s)
		xs := make([]byte, f)
		for i := range xs {
			xs[i] = byte(1 + rng.Intn(255))
		}
		gamma := ErrataLocatorInto(nil, xs)
		got := ErasureModifiedSyndromes(nil, s, gamma)
		full := PolyMul(gamma, s)
		want := make([]byte, d)
		copy(want, full)
		if !bytes.Equal(got, want[f:]) {
			t.Fatalf("trial %d: modified syndromes %v, want %v", trial, got, want[f:])
		}
	}
}
