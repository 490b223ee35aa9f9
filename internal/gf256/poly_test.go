package gf256

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPolyDegree(t *testing.T) {
	cases := []struct {
		p    []byte
		want int
	}{
		{nil, -1},
		{[]byte{0}, -1},
		{[]byte{0, 0, 0}, -1},
		{[]byte{5}, 0},
		{[]byte{0, 1}, 1},
		{[]byte{1, 0, 3, 0, 0}, 2},
	}
	for _, c := range cases {
		if got := PolyDegree(c.p); got != c.want {
			t.Errorf("PolyDegree(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPolyTrim(t *testing.T) {
	if got := PolyTrim([]byte{1, 2, 0, 0}); !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("PolyTrim = %v", got)
	}
	if got := PolyTrim([]byte{0, 0}); len(got) != 0 {
		t.Fatalf("PolyTrim zero poly = %v, want empty", got)
	}
}

func TestPolyMulEval(t *testing.T) {
	f := func(a, b []byte, x byte) bool {
		return PolyEval(PolyMul(a, b), x) == Mul(PolyEval(a, x), PolyEval(b, x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolyMulZero(t *testing.T) {
	if PolyMul(nil, []byte{1, 2}) != nil {
		t.Fatal("0 * p must be the zero polynomial")
	}
	if PolyMul([]byte{0, 0}, []byte{1}) != nil {
		t.Fatal("0 * p must be the zero polynomial (explicit zeros)")
	}
}

func TestPolyEvalHorner(t *testing.T) {
	// p(x) = 3 + 2x + x^2 at x=2: 3 ^ Mul(2,2) ^ Mul(1,4) = 3^4^4 = 3.
	p := []byte{3, 2, 1}
	if got := PolyEval(p, 2); got != 3 {
		t.Fatalf("PolyEval = %#x, want 0x3", got)
	}
	if PolyEval(nil, 7) != 0 {
		t.Fatal("empty poly evaluates to 0")
	}
	if PolyEval([]byte{9}, 0) != 9 {
		t.Fatal("constant poly at 0")
	}
}
