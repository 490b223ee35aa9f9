// Package matrix implements dense matrices over GF(2^8).
//
// The erasure-coding stack uses these for systematic MDS generator
// construction (Vandermonde) and for reconstruction by
// Gauss-Jordan inversion of the sub-generator selected by the surviving
// coded elements. Matrices are small (at most n x n for cluster sizes of
// a few hundred), so the O(n^3) dense algorithms are the right tool.
package matrix

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/gf256"
)

// ErrSingular is returned when inverting a matrix that has no inverse.
var ErrSingular = errors.New("matrix: singular matrix")

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte // len rows*cols, row-major
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Vandermonde returns the rows x cols matrix with entry (i, j) equal to
// alpha_i^j where alpha_i is the i-th distinct nonzero field element
// (generator powers). Any cols rows of it are linearly independent,
// making it a valid (non-systematic) MDS generator for rows <= 255.
func Vandermonde(rows, cols int) *Matrix {
	if rows > 255 {
		panic("matrix: Vandermonde supports at most 255 rows over GF(2^8)")
	}
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		alpha := gf256.Exp(i)
		v := byte(1)
		for j := 0; j < cols; j++ {
			m.Set(i, j, v)
			v = gf256.Mul(v, alpha)
		}
	}
	return m
}

// At returns the entry at (r, c).
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set assigns the entry at (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Mul returns m * o. It panics on incompatible shapes.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := New(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		mRow := m.Row(i)
		outRow := out.Row(i)
		for kk := 0; kk < m.cols; kk++ {
			if mRow[kk] == 0 {
				continue
			}
			gf256.MulAddSlice(mRow[kk], outRow, o.Row(kk))
		}
	}
	return out
}

// SubMatrix returns the matrix formed by the given row indices (in
// order), keeping all columns. The data is copied.
func (m *Matrix) SubMatrix(rowIdx []int) *Matrix {
	out := New(len(rowIdx), m.cols)
	for i, r := range rowIdx {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("matrix: row index %d out of range", r))
		}
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// Invert returns the inverse of a square matrix by Gauss-Jordan
// elimination with partial pivoting (any nonzero pivot works in a field).
// It returns ErrSingular if the matrix is not invertible.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert non-square %dx%d", m.rows, m.cols)
	}
	n := m.rows
	// Work on an augmented copy [A | I].
	work := New(n, 2*n)
	for i := 0; i < n; i++ {
		copy(work.Row(i)[:n], m.Row(i))
		work.Set(i, n+i, 1)
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			pr, cr := work.Row(pivot), work.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
		}
		// Scale pivot row to make the pivot 1, then eliminate the
		// column from every other row. Columns left of col in the
		// A-part of the pivot row are already zero, so the row
		// operations only need the suffix starting at col.
		inv := gf256.Inv(work.At(col, col))
		pivRow := work.Row(col)[col:]
		gf256.MulSlice(inv, pivRow, pivRow)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			c := work.At(r, col)
			if c != 0 {
				gf256.MulAddSlice(c, work.Row(r)[col:], pivRow)
			}
		}
	}
	out := New(n, n)
	for i := 0; i < n; i++ {
		copy(out.Row(i), work.Row(i)[n:])
	}
	return out, nil
}

// String renders the matrix in hex, one row per line (for debugging).
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%02x", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SystematicVandermonde returns an n x k MDS generator whose first k
// rows are the identity, derived by right-multiplying a Vandermonde
// matrix by the inverse of its top k x k block. Encoding with it leaves
// the first k coded elements equal to the data elements, which keeps
// the common read path copy-free.
func SystematicVandermonde(n, k int) (*Matrix, error) {
	if k <= 0 || n < k {
		return nil, fmt.Errorf("matrix: invalid MDS shape n=%d k=%d", n, k)
	}
	v := Vandermonde(n, k)
	top := v.SubMatrix(seq(k))
	topInv, err := top.Invert()
	if err != nil {
		return nil, fmt.Errorf("matrix: Vandermonde top block singular: %w", err)
	}
	return v.Mul(topInv), nil
}

// EvalPoints returns the n evaluation points alpha_i = 2^i used
// by Vandermonde and SystematicVandermonde: codeword position i of the
// RS-view code carries the value q(alpha_i). n must be at most 255 so
// the points are distinct and nonzero.
func EvalPoints(n int) []byte {
	if n > 255 {
		panic("matrix: at most 255 distinct nonzero evaluation points over GF(2^8)")
	}
	pts := make([]byte, n)
	for i := range pts {
		pts[i] = gf256.Exp(i)
	}
	return pts
}

// GRSDualMultipliers returns the column multipliers w_i of the dual of
// the evaluation code on the given (distinct) points:
//
//	w_i = 1 / prod_{j != i} (alpha_i + alpha_j).
//
// The dual of {(q(alpha_0), ..., q(alpha_{n-1})) : deg q < k} is the
// generalized Reed-Solomon code generated by the rows (w_i*alpha_i^t)
// for t = 0..n-k-1, which is what gives the code a BCH-style syndrome
// structure (see GRSParityCheck).
func GRSDualMultipliers(points []byte) []byte {
	w := make([]byte, len(points))
	for i, xi := range points {
		p := byte(1)
		for j, xj := range points {
			if j != i {
				p = gf256.Mul(p, xi^xj)
			}
		}
		w[i] = gf256.Inv(p)
	}
	return w
}

// GRSParityCheck returns the (n-k) x n parity-check matrix H of the
// RS-view evaluation code on EvalPoints(n), with
//
//	H[t][i] = w_i * alpha_i^t,
//
// so H*c = 0 exactly when c is a codeword of SystematicVandermonde(n, k).
// The weighted-power-sum rows are what make syndrome decoding
// (Berlekamp-Massey / Chien / Forney in gf256) applicable: the syndrome
// of an errata vector is a power-sum sequence in the errata locators.
func GRSParityCheck(n, k int) (*Matrix, error) {
	if k <= 0 || n < k || n > 255 {
		return nil, fmt.Errorf("matrix: invalid GRS shape n=%d k=%d (need 0 < k <= n <= 255)", n, k)
	}
	if n == k {
		return nil, fmt.Errorf("matrix: GRS parity check needs n > k")
	}
	points := EvalPoints(n)
	w := GRSDualMultipliers(points)
	h := New(n-k, n)
	for i := 0; i < n; i++ {
		v := w[i]
		for t := 0; t < n-k; t++ {
			h.Set(t, i, v)
			v = gf256.Mul(v, points[i])
		}
	}
	return h, nil
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
