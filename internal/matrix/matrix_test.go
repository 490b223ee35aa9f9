package matrix

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gf256"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, byte(rng.Intn(256)))
		}
	}
	return m
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 16} {
		a := randMatrix(rng, n, n)
		if !Identity(n).Mul(a).Equal(a) {
			t.Fatalf("I*A != A for n=%d", n)
		}
		if !a.Mul(Identity(n)).Equal(a) {
			t.Fatalf("A*I != A for n=%d", n)
		}
	}
}

func TestMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		a := randMatrix(rng, 3+rng.Intn(4), 3+rng.Intn(4))
		b := randMatrix(rng, a.Cols(), 3+rng.Intn(4))
		c := randMatrix(rng, b.Cols(), 3+rng.Intn(4))
		if !a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c))) {
			t.Fatalf("iter %d: (AB)C != A(BC)", iter)
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Mul must panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 8, 20} {
		// Random matrices over GF(256) are invertible with high
		// probability; retry until one is.
		for {
			a := randMatrix(rng, n, n)
			inv, err := a.Invert()
			if err != nil {
				continue
			}
			if !a.Mul(inv).Equal(Identity(n)) {
				t.Fatalf("A * A^-1 != I for n=%d", n)
			}
			if !inv.Mul(a).Equal(Identity(n)) {
				t.Fatalf("A^-1 * A != I for n=%d", n)
			}
			break
		}
	}
}

func TestInvertSingular(t *testing.T) {
	// errors.Is, not ==: ErrSingular is a dispatch target for callers
	// (the rs decode path picks survivor sets by it), so the contract
	// to pin is Is-matchability even if a future caller wraps it.
	a := New(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1) // third row all zero -> singular
	if _, err := a.Invert(); !errors.Is(err, ErrSingular) {
		t.Fatalf("Invert singular: err = %v, want errors.Is ErrSingular", err)
	}
	// Duplicate rows are singular too.
	b := FromRows([][]byte{{1, 2}, {1, 2}})
	if _, err := b.Invert(); !errors.Is(err, ErrSingular) {
		t.Fatalf("Invert dup rows: err = %v, want errors.Is ErrSingular", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	if _, err := New(2, 3).Invert(); err == nil {
		t.Fatal("inverting non-square must error")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 6, 4)
	v := make([]byte, 4)
	rng.Read(v)
	col := New(4, 1)
	for i, x := range v {
		col.Set(i, 0, x)
	}
	want := a.Mul(col)
	got := a.MulVec(v)
	for i := range got {
		if got[i] != want.At(i, 0) {
			t.Fatalf("MulVec[%d] = %#x, want %#x", i, got[i], want.At(i, 0))
		}
	}
}

func TestVandermondeAnyKRowsInvertible(t *testing.T) {
	// The MDS property: every k-row subset of the n x k Vandermonde
	// matrix is invertible. Exhaustive for small shapes.
	n, k := 7, 3
	v := Vandermonde(n, k)
	idx := make([]int, k)
	var rec func(start, depth int)
	count := 0
	rec = func(start, depth int) {
		if depth == k {
			sub := v.SubMatrix(idx)
			if _, err := sub.Invert(); err != nil {
				t.Fatalf("Vandermonde rows %v singular", idx)
			}
			count++
			return
		}
		for i := start; i < n; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	if count != 35 { // C(7,3)
		t.Fatalf("enumerated %d subsets, want 35", count)
	}
}

func TestSystematicVandermondeIsMDS(t *testing.T) {
	for _, shape := range []struct{ n, k int }{{5, 3}, {7, 4}, {10, 5}, {9, 8}, {100, 51}} {
		g, err := SystematicVandermonde(shape.n, shape.k)
		if err != nil {
			t.Fatal(err)
		}
		// Top k x k block must be the identity.
		for i := 0; i < shape.k; i++ {
			for j := 0; j < shape.k; j++ {
				want := byte(0)
				if i == j {
					want = 1
				}
				if g.At(i, j) != want {
					t.Fatalf("n=%d k=%d: top block not identity at (%d,%d)", shape.n, shape.k, i, j)
				}
			}
		}
		checkMDSRandomSubsets(t, g, shape.n, shape.k)
	}
}

// checkMDSRandomSubsets verifies that many random k-row subsets of g are
// invertible (exhaustive checking is combinatorial; random sampling
// catches construction bugs reliably).
func checkMDSRandomSubsets(t *testing.T, g *Matrix, n, k int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*1000 + k)))
	for iter := 0; iter < 60; iter++ {
		idx := rng.Perm(n)[:k]
		if _, err := g.SubMatrix(idx).Invert(); err != nil {
			t.Fatalf("n=%d k=%d: rows %v singular: %v", n, k, idx, err)
		}
	}
}

func TestEncodeDecodeViaMatrix(t *testing.T) {
	// End-to-end MDS sanity: encode a data vector with the generator,
	// erase down to k arbitrary coded symbols, reconstruct by inversion.
	n, k := 9, 5
	g, err := SystematicVandermonde(n, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, k)
	rng.Read(data)
	code := g.MulVec(data)
	for iter := 0; iter < 40; iter++ {
		idx := rng.Perm(n)[:k]
		sub := g.SubMatrix(idx)
		inv, err := sub.Invert()
		if err != nil {
			t.Fatal(err)
		}
		avail := make([]byte, k)
		for i, r := range idx {
			avail[i] = code[r]
		}
		got := inv.MulVec(avail)
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("iter %d: reconstruction mismatch at %d", iter, i)
			}
		}
	}
}

func TestSubMatrixOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SubMatrix with bad index must panic")
		}
	}()
	New(2, 2).SubMatrix([]int{0, 5})
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows must panic")
		}
	}()
	FromRows([][]byte{{1, 2}, {3}})
}

func TestCloneIsDeep(t *testing.T) {
	a := FromRows([][]byte{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestStringFormat(t *testing.T) {
	s := FromRows([][]byte{{0x0a, 0xff}}).String()
	if s != "0a ff\n" {
		t.Fatalf("String() = %q", s)
	}
}

// TestGRSParityCheckAnnihilatesRSView is the load-bearing duality fact
// behind syndrome decoding: H * G = 0 for the RS-view systematic
// generator, so every codeword has all-zero weighted power sums.
func TestGRSParityCheckAnnihilatesRSView(t *testing.T) {
	for _, sh := range []struct{ n, k int }{{3, 1}, {5, 3}, {9, 5}, {14, 10}, {40, 20}, {255, 200}} {
		g, err := SystematicVandermonde(sh.n, sh.k)
		if err != nil {
			t.Fatalf("SystematicVandermonde(%d,%d): %v", sh.n, sh.k, err)
		}
		h, err := GRSParityCheck(sh.n, sh.k)
		if err != nil {
			t.Fatalf("GRSParityCheck(%d,%d): %v", sh.n, sh.k, err)
		}
		prod := h.Mul(g)
		for i := 0; i < prod.Rows(); i++ {
			for j := 0; j < prod.Cols(); j++ {
				if prod.At(i, j) != 0 {
					t.Fatalf("[%d,%d]: (H*G)[%d][%d] = %#02x, want 0", sh.n, sh.k, i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestGRSParityCheckStructure(t *testing.T) {
	const n, k = 9, 5
	h, err := GRSParityCheck(n, k)
	if err != nil {
		t.Fatal(err)
	}
	points := EvalPoints(n)
	w := GRSDualMultipliers(points)
	for i := 0; i < n; i++ {
		if w[i] == 0 {
			t.Fatalf("dual multiplier %d is zero", i)
		}
		power := byte(1) // alpha_i^tt
		for tt := 0; tt < n-k; tt++ {
			want := gf256.Mul(w[i], power)
			if h.At(tt, i) != want {
				t.Fatalf("H[%d][%d] = %#02x, want w_i*alpha_i^t = %#02x", tt, i, h.At(tt, i), want)
			}
			power = gf256.Mul(power, points[i])
		}
	}
	// Any (n-k) columns of H must be independent (the dual is MDS): spot
	// check a few square submatrices by transposed inversion.
	for _, cols := range [][]int{{0, 1, 2, 3}, {5, 6, 7, 8}, {0, 3, 4, 8}} {
		sub := New(n-k, n-k)
		for r := 0; r < n-k; r++ {
			for c, ci := range cols {
				sub.Set(r, c, h.At(r, ci))
			}
		}
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("columns %v of H are dependent: %v", cols, err)
		}
	}
}

func TestGRSParityCheckErrors(t *testing.T) {
	if _, err := GRSParityCheck(5, 5); err == nil {
		t.Fatal("n == k has no parity rows and must be rejected")
	}
	if _, err := GRSParityCheck(256, 10); err == nil {
		t.Fatal("n > 255 must be rejected")
	}
	if _, err := GRSParityCheck(4, 0); err == nil {
		t.Fatal("k = 0 must be rejected")
	}
}

func TestEvalPointsDistinctNonzero(t *testing.T) {
	pts := EvalPoints(255)
	seen := map[byte]bool{}
	for i, p := range pts {
		if p == 0 || seen[p] {
			t.Fatalf("point %d = %#02x is zero or repeated", i, p)
		}
		seen[p] = true
	}
}

// Test-only constructors and views of a Matrix.

// FromRows builds a matrix from row slices, which must all have equal
// length. The data is copied.
func FromRows(rows [][]byte) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrix: FromRows needs at least one row and column")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("matrix: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have identical shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// MulVec returns m * v as a fresh slice. len(v) must equal m.Cols().
func (m *Matrix) MulVec(v []byte) []byte {
	if len(v) != m.cols {
		panic("matrix: MulVec dimension mismatch")
	}
	out := make([]byte, m.rows)
	for i := 0; i < m.rows; i++ {
		for j, x := range v {
			out[i] ^= gf256.Mul(m.At(i, j), x)
		}
	}
	return out
}
