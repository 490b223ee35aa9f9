package gf256

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestMulTableSmall(t *testing.T) {
	// Hand-checked products in GF(2^8)/0x11D.
	cases := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 7, 0},
		{1, 1, 1},
		{1, 0xFF, 0xFF},
		{2, 2, 4},
		{2, 0x80, 0x1D},    // 2*x^7 = x^8 = poly reduction
		{0x53, 0xCA, 0x8F}, // validated against the schoolbook reference below
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulAgainstSchoolbook(t *testing.T) {
	// Carry-less multiply then reduce by Poly: the definitional product.
	ref := func(a, b byte) byte {
		var p uint16
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				p ^= uint16(a) << i
			}
		}
		for d := 15; d >= 8; d-- {
			if p&(1<<d) != 0 {
				p ^= uint16(Poly) << (d - 8)
			}
		}
		return byte(p)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), ref(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x,%#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	assoc := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(assoc, nil); err != nil {
		t.Error("associativity:", err)
	}
	comm := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error("commutativity:", err)
	}
	distrib := func(a, b, c byte) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(distrib, nil); err != nil {
		t.Error("distributivity:", err)
	}
}

func TestInverses(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Mul(%#x, Inv) = %#x, want 1", a, Mul(byte(a), inv))
		}
		if Div(1, byte(a)) != inv {
			t.Fatalf("Div(1,%#x) != Inv(%#x)", a, a)
		}
	}
}

func TestDivMulRoundTrip(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(x, 0) must panic")
		}
	}()
	Div(5, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) must panic")
		}
	}()
	Inv(0)
}

// TestZeroHasNoLog checks that no power of the generator 2 is zero, so
// zero has no logarithm: Mul and Div never read logTable[0] as one.
func TestZeroHasNoLog(t *testing.T) {
	for e, x := range expTable {
		if x == 0 {
			t.Fatalf("2^%d = 0", e)
		}
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(int(logTable[a])) != byte(a) {
			t.Fatalf("Exp(log(%#x)) != %#x", a, a)
		}
	}
	for e := -600; e < 600; e++ {
		if Exp(e) != Exp(e+255) {
			t.Fatalf("Exp not periodic at %d", e)
		}
	}
}

func TestGeneratorIsPrimitive(t *testing.T) {
	seen := make(map[byte]bool)
	x := byte(1)
	for i := 0; i < 255; i++ {
		if seen[x] {
			t.Fatalf("generator cycle shorter than 255 (repeat at %d)", i)
		}
		seen[x] = true
		x = Mul(x, 2)
	}
	if x != 1 {
		t.Fatal("generator^255 != 1")
	}
}

func TestPow(t *testing.T) {
	for a := 0; a < 256; a++ {
		acc := byte(1)
		for e := 0; e < 10; e++ {
			if got := pow(byte(a), e); got != acc {
				t.Fatalf("pow(%#x,%d) = %#x, want %#x", a, e, got, acc)
			}
			acc = Mul(acc, byte(a))
		}
	}
	if pow(0, 0) != 1 {
		t.Fatal("0^0 must be 1")
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 3, 0xFF, 0x80}
	for _, c := range []byte{0, 1, 2, 0x53, 0xFF} {
		dst := make([]byte, len(src))
		MulSlice(c, dst, src)
		for i := range src {
			if dst[i] != Mul(c, src[i]) {
				t.Fatalf("MulSlice c=%#x i=%d: got %#x want %#x", c, i, dst[i], Mul(c, src[i]))
			}
		}
	}
}

func TestMulAddSlice(t *testing.T) {
	f := func(c byte, src []byte) bool {
		dst := make([]byte, len(src))
		for i := range dst {
			dst[i] = byte(i * 37)
		}
		want := make([]byte, len(src))
		copy(want, dst)
		for i := range src {
			want[i] ^= Mul(c, src[i])
		}
		MulAddSlice(c, dst, src)
		for i := range dst {
			if dst[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSlice(t *testing.T) {
	dst := []byte{1, 2, 3}
	AddSlice(dst, []byte{1, 2, 3})
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("dst[%d] = %d, want 0", i, v)
		}
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MulSlice":    func() { MulSlice(2, make([]byte, 3), make([]byte, 4)) },
		"MulAddSlice": func() { MulAddSlice(2, make([]byte, 3), make([]byte, 4)) },
		"AddSlice":    func() { AddSlice(make([]byte, 3), make([]byte, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths must panic", name)
				}
			}()
			fn()
		}()
	}
}

// pow returns a^e for e >= 0, with the convention 0^0 = 1: the
// log-table reference the syndrome tests raise evaluation points with.
func pow(a byte, e int) byte {
	if e < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", e))
	}
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*e)%255]
}
