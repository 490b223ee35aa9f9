// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is realized as GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1), the
// conventional polynomial 0x11D used by Reed-Solomon codes (e.g. in
// CD/DVD and QR-code standards). Elements are bytes; addition is XOR;
// multiplication is carried out through logarithm/antilogarithm tables
// built at package initialization from the generator element 2.
//
// All operations are constant-time table lookups (except Div and Inv,
// which check for division by zero) and allocation-free, making the
// package suitable as the innermost kernel of the erasure-coding stack.
package gf256

// Poly is the irreducible polynomial defining the field, in bit-vector
// form: x^8 + x^4 + x^3 + x^2 + 1.
const Poly = 0x11D

var (
	// expTable[i] = 2^i for i in [0, 510); doubled so that Mul can
	// index expTable[log(a)+log(b)] without a modular reduction.
	expTable [510]byte
	// logTable[a] = discrete log of a to base 2, for a != 0.
	logTable [256]uint16
	// invTable[a] = multiplicative inverse of a, for a != 0.
	invTable [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		expTable[i+255] = byte(x)
		logTable[x] = uint16(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	if x != 1 {
		panic("gf256: generator does not have order 255")
	}
	for a := 1; a < 256; a++ {
		invTable[a] = expTable[255-int(logTable[a])]
	}
}

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b in GF(2^8). It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += 255
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTable[a]
}

// Exp returns 2^e for any integer exponent e (negative allowed).
func Exp(e int) byte {
	e %= 255
	if e < 0 {
		e += 255
	}
	return expTable[e]
}

// Slice kernels (MulSlice, MulAddSlice, AddSlice) live in
// kernel.go, where the hot loops are table-driven and unrolled.
