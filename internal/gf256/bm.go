package gf256

// Syndrome-based error location: Berlekamp-Massey and Chien search over
// GF(2^8).
//
// The algebra targets generalized Reed-Solomon (GRS) codes in
// evaluation-point view. Codeword position i carries the locator X_i (a
// distinct nonzero field element) and a nonzero column multiplier u_i,
// and the d parity checks are the weighted power sums
//
//	S_t = sum_i u_i * X_i^t * r_i,   t = 0 .. d-1,
//
// which vanish exactly on codewords. An errata vector eps (errors at
// unknown positions, erasures at known ones) therefore shows up as
//
//	S_t = sum_{i in errata} (u_i * eps_i) * X_i^t,
//
// a power-sum sequence whose minimal LFSR — found by Berlekamp-Massey —
// is the error locator Lambda(x) = prod (1 + X_i x). Known erasures are
// folded out first: with Gamma the erasure locator, the modified
// syndromes Xi = Gamma*S mod x^d become, from coefficient f on, a pure
// power-sum sequence of the remaining unknown errors (see
// ErasureModifiedSyndromes), so plain BM on Xi[f:] finds up to
// floor((d-f)/2) of them. Chien search turns Lambda's roots back into
// positions.
//
// Everything here works on one codeword column (one byte per position).
// The rs package uses these routines only to discover the error support
// and solves for the magnitudes of whole shards with the fused slice
// kernels; its tests check the result against decodeErrorsBrute, a
// combinatorial subset decoder.

import "fmt"

// maxSyndromes bounds the syndrome sequences the scratch-backed decoder
// accepts: codes over GF(2^8) have at most 255 evaluation points, so
// never more than 255 parity checks.
const maxSyndromes = 255

// BM holds the fixed-size working state of Berlekamp-Massey so repeated
// runs (one per corrupt codeword column) are allocation-free. The zero
// value is ready to use. A BM must not be used concurrently.
type BM struct {
	lambda, prev, tmp [maxSyndromes + 1]byte
}

// Run synthesizes the minimal LFSR for the sequence s: the lowest-degree
// polynomial Lambda with Lambda[0] = 1 such that
//
//	sum_{i=0..deg} Lambda[i] * s[j-i] = 0   for deg <= j < len(s).
//
// For a power-sum sequence s_t = sum_i c_i * X_i^t with distinct X_i,
// nonzero c_i and 2*len({X_i}) <= len(s), the result is exactly the
// locator prod_i (1 + X_i x). The returned slice aliases the receiver's
// scratch and is valid until the next Run. len(s) must be at most 255.
func (bm *BM) Run(s []byte) []byte {
	if len(s) > maxSyndromes {
		panic(fmt.Sprintf("gf256: BM sequence length %d > %d", len(s), maxSyndromes))
	}
	lambda := bm.lambda[:1]
	lambda[0] = 1
	prev := bm.prev[:1] // the last Lambda before a length change
	prev[0] = 1
	degL := 0       // current LFSR length L
	gap := 1        // iterations since prev was saved (the x^gap shift)
	last := byte(1) // the discrepancy prev was saved at
	for r := 0; r < len(s); r++ {
		// Discrepancy: how far the current LFSR is from predicting s[r].
		d := s[r]
		for i := 1; i < len(lambda) && i <= r; i++ {
			d ^= Mul(lambda[i], s[r-i])
		}
		if d == 0 {
			gap++
			continue
		}
		c := Div(d, last)
		if 2*degL <= r {
			// Length change: save the pre-update Lambda as the new prev.
			t := bm.tmp[:len(lambda)]
			copy(t, lambda)
			lambda = addShifted(bm.lambda[:0], lambda, c, prev, gap)
			prev = bm.prev[:len(t)]
			copy(prev, t)
			degL = r + 1 - degL
			last = d
			gap = 1
		} else {
			lambda = addShifted(bm.lambda[:0], lambda, c, prev, gap)
			gap++
		}
	}
	if len(lambda) > degL+1 {
		lambda = lambda[:degL+1]
	}
	return PolyTrim(lambda)
}

// addShifted returns a + c*x^shift*b in dst's backing array. dst's
// array may be a's (the update is in place there).
func addShifted(dst, a []byte, c byte, b []byte, shift int) []byte {
	n := len(a)
	if m := len(b) + shift; m > n {
		n = m
	}
	dst = dst[:n]
	copy(dst, a)
	for i := len(a); i < n; i++ {
		dst[i] = 0
	}
	for i, bv := range b {
		dst[i+shift] ^= Mul(c, bv)
	}
	return dst
}

// ErrataLocatorInto appends to dst[:0] the locator polynomial
// prod_i (1 + xs[i]*x), whose roots are the inverses of the xs. An
// empty xs yields the constant 1. The xs must be nonzero and distinct
// for the result to be a valid locator; this is not checked.
func ErrataLocatorInto(dst []byte, xs []byte) []byte {
	dst = append(dst[:0], 1)
	for _, x := range xs {
		dst = append(dst, 0)
		// Multiply by (1 + x*t) in place, highest coefficient first.
		for i := len(dst) - 1; i >= 1; i-- {
			dst[i] ^= Mul(x, dst[i-1])
		}
	}
	return dst
}

// ErasureModifiedSyndromes appends to dst[:0] the tail of the
// erasure-modified syndromes: with Gamma the degree-f erasure locator
// and Xi = Gamma*S mod x^d, it returns Xi[f:].
//
// Why the tail: S_t = sum u_i*eps_i*X_i^t over erasures and errors, so
// Xi picks up Gamma(x)/(1 + X_i x) terms. For an erasure, Gamma
// contains the factor (1 + X_i x) and the term collapses to a
// polynomial of degree < f; for an error i it contributes
// gamma_i * X_i^(t-f) to coefficient t >= f, with gamma_i =
// X_i^f * Gamma(1/X_i) != 0. So Xi[f:] is a pure power-sum sequence of
// the unknown errors alone — exactly what (*BM).Run expects — with
// capacity floor((d-f)/2).
func ErasureModifiedSyndromes(dst, s, gamma []byte) []byte {
	f := len(gamma) - 1
	if f < 0 {
		panic("gf256: empty erasure locator (want the constant polynomial 1)")
	}
	dst = dst[:0]
	for t := f; t < len(s); t++ {
		var acc byte
		for j := 0; j <= f; j++ {
			acc ^= Mul(gamma[j], s[t-j])
		}
		dst = append(dst, acc)
	}
	return dst
}

// ChienSearchInto appends to out[:0] every index i for which points[i]
// is a root locator of lambda, i.e. lambda(1/points[i]) == 0. All
// points must be nonzero.
func ChienSearchInto(out []int, lambda, points []byte) []int {
	out = out[:0]
	for i, x := range points {
		if PolyEval(lambda, Inv(x)) == 0 {
			out = append(out, i)
		}
	}
	return out
}
