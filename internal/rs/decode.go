package rs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/gf256"
	"repro/internal/matrix"
)

// Syndrome-based error-and-erasure decoding.
//
// SODA_err (Konwar et al., IPDPS 2016) must tolerate servers that
// return *wrong* coded elements, not just servers that return nothing:
// during steady state the paper requires n >= k + 2e for e corrupt
// responses, and with f additional erasures the decoding radius is
// 2e + f <= n - k. DecodeErrors realizes that bound: it locates and
// corrects the corrupt shards without being told which they are.
//
// The pipeline, in order of bytes touched:
//
//  1. Syndromes. The code's parity-check rows are weighted power sums
//     (matrix.GRSParityCheck), so the d = n-k syndrome shards
//     S_t = sum_i H[t][i]*shard_i are computed in one fused, L2-tiled
//     pass over all present shards — the same codeRange Encode uses.
//     This is the only full-width pass over the input: everything
//     after it reads the much smaller syndrome shards. All-zero
//     syndromes (the healthy case) cost exactly this one pass plus a
//     scan.
//
//  2. Support discovery. A corrupt byte column makes the syndrome
//     column a power-sum sequence of its errata locators, so
//     Berlekamp-Massey plus Chien search (gf256/bm.go) on a single
//     mismatching column yields error positions. Because real
//     corruption is shard-granular, a handful of columns — usually
//     one — reveals the whole support; the consistency check below
//     tells us when the support is complete, so we never scan columns
//     we do not need.
//
//  3. Magnitudes, in bulk. With the errata support P (erasures F plus
//     located errors U, m = |P|) fixed, the magnitudes of every byte
//     column solve the same m x m system: the first m syndrome rows
//     restricted to P, which is a nonsingular diag(w)*Vandermonde
//     block. The inverse is applied to the syndrome shards with the
//     fused kernels — magnitude shards = M^-1 * syndrome shards — and
//     the d-m leftover syndrome rows are recomputed from the
//     magnitudes and compared: they agree if and only if the support
//     covers every corrupt column (any miss would need an errata
//     vector of weight > d to fool d independent GRS rows), so a
//     mismatch column feeds back into step 2. The per-pattern solve
//     setup is cached like reconstruction's decode matrices, keyed by
//     the errata bitmask, so a stable corruption pattern pays the
//     algebra once.
//
//  4. Apply. Erased shards receive their magnitude shard directly
//     (they were read as zero); corrupt shards are fixed by XOR.
//
// decodeErrorsBrute (brute_test.go) is the combinatorial alternative, the
// test oracle and benchmark baseline: C(n, e) trial erasure-decodes with a
// full re-encode check each. BenchmarkDecodeErrors compares the two.

// DecodeErrors locates and corrects corrupt shards. Up to f shards may
// be missing (nil or empty: erasures) and up to e present shards may be
// silently corrupt, for any e, f with 2e + f <= n-k. Erased shards are
// allocated and filled, corrupt shards are corrected in place, and the
// ascending indices of the shards that were actually corrupt are
// returned. Shards beyond the decoding radius return ErrTooManyErrors.
func (e *Encoder) DecodeErrors(shards [][]byte) ([]int, error) {
	return e.decodeErrors(shards, nil, false)
}

// DecodeErrorsInto is the steady-state, allocation-free form of
// DecodeErrors. Erasure handling follows ReconstructInto: a shard to
// repair is a zero-length slice with capacity for the shard size, and a
// nil entry is an erasure that is accounted for but not rebuilt.
// Corrupt shard indices are appended to corrupt[:0] and returned; give
// it capacity n-k to keep the call allocation-free.
func (e *Encoder) DecodeErrorsInto(shards [][]byte, corrupt []int) ([]int, error) {
	return e.decodeErrors(shards, corrupt[:0], true)
}

// MaxErrors returns the number of silently corrupt shards DecodeErrors
// can locate alongside the given number of erasures: floor((n-k-f)/2).
func (e *Encoder) MaxErrors(erasures int) int {
	m := (e.n - e.k - erasures) / 2
	if m < 0 {
		m = 0
	}
	return m
}

// decodeChunk bounds the scratch of the consistency scan (step 3's
// compare of recomputed vs actual syndrome rows).
const decodeChunk = 32 << 10

// decodeScratch recycles every buffer of the decode pipeline so
// DecodeErrorsInto performs no steady-state heap allocation. The large
// buf holds the d syndrome shards and up to d magnitude shards; the
// rest are fixed-size views and small-field working arrays.
type decodeScratch struct {
	buf  []byte   // synd (d*size) then mags (d*size), grown on demand
	synd [][]byte // cap d views into buf
	mags [][]byte // cap d views into buf

	present []int    // indices of present shards
	erased  []int    // ascending erasure positions (F)
	errs    []int    // ascending located error positions (U)
	errata  []int    // merge of erased+errs, aligned with mags
	ins     [][]byte // cap n input views
	hbuf    []byte   // cap d*n packed present-restricted check rows
	hrows   [][]byte // cap d views into hbuf
	coeffs  [][]byte // cap d coefficient-row views for the solve
	chunk   [][]byte // cap d chunked magnitude views for the scan
	cmp     []byte   // cap decodeChunk expected-syndrome scratch

	gamma  []byte // erasure locator, cap n+1
	gammaF int    // erasure count gamma was built for; -1 = not built
	xs     []byte // cap n locator gather scratch
	scol   []byte // cap d one syndrome column
	xi     []byte // cap d modified syndromes
	roots  []int  // cap n Chien results
	bm     gf256.BM
}

func (e *Encoder) getDecodeScratch() *decodeScratch {
	s, _ := e.decscratch.Get().(*decodeScratch)
	if s == nil {
		d := e.n - e.k
		s = &decodeScratch{
			synd:    make([][]byte, d),
			mags:    make([][]byte, d),
			present: make([]int, 0, e.n),
			erased:  make([]int, 0, e.n),
			errs:    make([]int, 0, e.n),
			errata:  make([]int, 0, e.n),
			ins:     make([][]byte, e.n),
			hbuf:    make([]byte, d*e.n),
			hrows:   make([][]byte, d),
			coeffs:  make([][]byte, d),
			chunk:   make([][]byte, d),
			cmp:     make([]byte, decodeChunk),
			gamma:   make([]byte, 0, e.n+1),
			xs:      make([]byte, 0, e.n),
			scol:    make([]byte, d),
			xi:      make([]byte, 0, d),
			roots:   make([]int, 0, e.n),
		}
	}
	s.gammaF = -1
	return s
}

func (e *Encoder) putDecodeScratch(s *decodeScratch) {
	for i := range s.ins {
		s.ins[i] = nil // do not pin shard memory from the pool
	}
	e.decscratch.Put(s)
}

func (e *Encoder) decodeErrors(shards [][]byte, corrupt []int, into bool) ([]int, error) {
	if len(shards) != e.n {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), e.n)
	}
	d := e.n - e.k
	if d == 0 {
		// No redundancy: nothing can be missing or even detected.
		for i, sh := range shards {
			if len(sh) == 0 {
				return nil, fmt.Errorf("%w: shard %d missing with no parity", ErrTooFewShards, i)
			}
		}
		return corrupt, nil
	}
	s := e.getDecodeScratch()
	defer e.putDecodeScratch(s)

	size := -1
	s.present = s.present[:0]
	s.erased = s.erased[:0]
	for i, sh := range shards {
		if len(sh) == 0 {
			s.erased = append(s.erased, i)
			continue
		}
		if size < 0 {
			size = len(sh)
		} else if len(sh) != size {
			return nil, fmt.Errorf("%w: shard %d has size %d, want %d", ErrShardSize, i, len(sh), size)
		}
		s.present = append(s.present, i)
	}
	if len(s.present) < e.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(s.present), e.k)
	}
	f := len(s.erased)
	if into {
		for _, p := range s.erased {
			if shards[p] != nil && cap(shards[p]) < size {
				return nil, fmt.Errorf("%w: shard %d buffer capacity %d < shard size %d", ErrShardSize, p, cap(shards[p]), size)
			}
		}
	}

	// Step 1: fused syndrome shards over the present shards. Erased
	// positions read as zero, which is exactly how their magnitudes are
	// defined, so they are simply skipped.
	np := len(s.present)
	for t := 0; t < d; t++ {
		row := s.hbuf[t*np : (t+1)*np]
		for j, idx := range s.present {
			row[j] = e.syn.check.At(t, idx)
		}
		s.hrows[t] = row
	}
	need := 2 * d * size
	if cap(s.buf) < need {
		s.buf = make([]byte, need)
	}
	buf := s.buf[:need]
	for t := 0; t < d; t++ {
		s.synd[t] = buf[t*size : (t+1)*size]
	}
	ins := s.ins[:np]
	for j, idx := range s.present {
		ins[j] = shards[idx]
	}
	codeRange(s.hrows[:d], ins, s.synd[:d], nil, 0, size)

	// Steps 2+3: alternate bulk magnitude solves with single-column
	// support discovery until the leftover syndrome rows are consistent.
	// Each round either finishes or adds at least one new error
	// position, and the radius check bounds the rounds by (d-f)/2.
	s.errs = s.errs[:0]
	var setup *matrix.Matrix
	for {
		m := f + len(s.errs)
		mergeSorted(&s.errata, s.erased, s.errs)
		if m > 0 {
			var err error
			if setup, err = e.errataSetup(s.errata, m); err != nil {
				return nil, err
			}
			for j := 0; j < m; j++ {
				s.coeffs[j] = setup.Row(j)
				s.mags[j] = buf[(d+j)*size : (d+j+1)*size]
			}
			codeRange(s.coeffs[:m], s.synd[:m], s.mags[:m], nil, 0, size)
		}
		col := e.inconsistentColumn(s, setup, m, d, size)
		if col < 0 {
			break
		}
		for t := 0; t < d; t++ {
			s.scol[t] = s.synd[t][col]
		}
		if err := e.discoverSupport(s, d, f); err != nil {
			return nil, err
		}
	}

	// Step 4: write erasure magnitudes out, XOR error magnitudes in.
	ei := 0
	for j, p := range s.errata {
		if ei < len(s.erased) && s.erased[ei] == p {
			ei++
			if into {
				if shards[p] == nil {
					continue // accounted for, but caller does not want it
				}
				shards[p] = shards[p][:size]
			} else {
				shards[p] = make([]byte, size)
			}
			copy(shards[p], s.mags[j])
			continue
		}
		gf256.AddSlice(shards[p], s.mags[j])
		corrupt = append(corrupt, p)
	}
	return corrupt, nil
}

// inconsistentColumn returns the byte offset of the first column whose
// syndromes are not explained by the solved magnitudes, or -1 when all
// leftover rows agree. With no errata assumed (m == 0) it is a plain
// nonzero scan of the syndrome shards; otherwise each leftover row
// t >= m is recomputed from the magnitude shards in bounded chunks and
// compared.
func (e *Encoder) inconsistentColumn(s *decodeScratch, setup *matrix.Matrix, m, d, size int) int {
	for t := m; t < d; t++ {
		if m == 0 {
			if i := firstNonzero(s.synd[t]); i >= 0 {
				return i
			}
			continue
		}
		row := setup.Row(t)
		for lo := 0; lo < size; lo += decodeChunk {
			hi := lo + decodeChunk
			if hi > size {
				hi = size
			}
			for j := 0; j < m; j++ {
				s.chunk[j] = s.mags[j][lo:hi]
			}
			cmp := s.cmp[:hi-lo]
			gf256.MulMulti(row, s.chunk[:m], cmp)
			if !bytes.Equal(cmp, s.synd[t][lo:hi]) {
				for i := range cmp {
					if cmp[i] != s.synd[t][lo+i] {
						return lo + i
					}
				}
			}
		}
	}
	return -1
}

// discoverSupport runs the single-column errata algebra on the gathered
// syndrome column s.scol: erasure-modified syndromes, Berlekamp-Massey,
// Chien search. Newly located error positions are inserted into s.errs;
// failure to make progress within the decoding radius is
// ErrTooManyErrors.
func (e *Encoder) discoverSupport(s *decodeScratch, d, f int) error {
	if s.gammaF != f {
		s.xs = s.xs[:0]
		for _, p := range s.erased {
			s.xs = append(s.xs, e.syn.points[p])
		}
		s.gamma = gf256.ErrataLocatorInto(s.gamma, s.xs)
		s.gammaF = f
	}
	s.xi = gf256.ErasureModifiedSyndromes(s.xi, s.scol[:d], s.gamma)
	lambda := s.bm.Run(s.xi)
	nu := gf256.PolyDegree(lambda)
	if nu <= 0 || 2*nu > d-f {
		// An inconsistent column with no locatable error (nu == 0) or a
		// locator past the radius: the shards are outside 2e + f <= n-k.
		return fmt.Errorf("%w: column locator degree %d with %d erasures, %d parity shards", ErrTooManyErrors, nu, f, d)
	}
	s.roots = gf256.ChienSearchInto(s.roots, lambda, e.syn.points)
	if len(s.roots) != nu {
		return fmt.Errorf("%w: locator degree %d with %d roots", ErrTooManyErrors, nu, len(s.roots))
	}
	added := 0
	for _, p := range s.roots {
		if slices.Contains(s.erased, p) || slices.Contains(s.errs, p) {
			continue
		}
		s.errs = append(s.errs, p)
		added++
	}
	if added > 0 {
		slices.Sort(s.errs)
	}
	if added == 0 {
		return fmt.Errorf("%w: no new error position from an inconsistent column", ErrTooManyErrors)
	}
	if 2*len(s.errs)+f > d {
		return fmt.Errorf("%w: located %d errors and %d erasures against %d parity shards", ErrTooManyErrors, len(s.errs), f, d)
	}
	return nil
}

// errataSetup returns the cached d x m solve matrix for the ascending
// errata positions P: rows 0..m-1 hold the inverse of the first m
// syndrome rows restricted to P (magnitudes = inverse * syndromes), and
// rows m..d-1 hold the raw leftover rows used by the consistency scan.
func (e *Encoder) errataSetup(positions []int, m int) (*matrix.Matrix, error) {
	d := e.n - e.k
	var key shardKey
	for _, p := range positions {
		key[p>>6] |= 1 << (p & 63)
	}
	if e.errataCache != nil {
		if mtx, ok := e.errataCache.get(key); ok {
			return mtx, nil
		}
	}
	top := matrix.New(m, m)
	for t := 0; t < m; t++ {
		for j, p := range positions {
			top.Set(t, j, e.syn.check.At(t, p))
		}
	}
	inv, err := top.Invert()
	if err != nil {
		// Unreachable for distinct positions (the block is a scaled
		// Vandermonde), but surface it rather than corrupt data.
		return nil, fmt.Errorf("rs: errata solve for positions %v: %w", positions, err)
	}
	setup := matrix.New(d, m)
	for t := 0; t < m; t++ {
		copy(setup.Row(t), inv.Row(t))
	}
	for t := m; t < d; t++ {
		row := setup.Row(t)
		for j, p := range positions {
			row[j] = e.syn.check.At(t, p)
		}
	}
	if e.errataCache != nil {
		e.errataCache.put(key, setup)
	}
	return setup, nil
}

// mergeSorted merges two ascending, disjoint int slices into *dst.
func mergeSorted(dst *[]int, a, b []int) {
	out := (*dst)[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	*dst = out
}

// firstNonzero returns the index of the first nonzero byte, eight
// bytes per probe, or -1 for an all-zero slice.
func firstNonzero(b []byte) int {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != 0 {
			break
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			return i
		}
	}
	return -1
}
