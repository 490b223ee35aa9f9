package gf256

// Polynomial helpers over GF(2^8). A polynomial is a []byte of
// coefficients in ascending degree order: p[i] is the coefficient of x^i.
// These serve Berlekamp-Massey and Chien search (bm.go).

// PolyDegree returns the degree of p, ignoring trailing zero
// coefficients. The zero polynomial has degree -1.
func PolyDegree(p []byte) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// PolyTrim returns p with trailing zero coefficients removed.
func PolyTrim(p []byte) []byte {
	return p[:PolyDegree(p)+1]
}

// PolyEval evaluates p at the point x using Horner's rule.
func PolyEval(p []byte, x byte) byte {
	var acc byte
	for i := len(p) - 1; i >= 0; i-- {
		acc = Mul(acc, x) ^ p[i]
	}
	return acc
}
