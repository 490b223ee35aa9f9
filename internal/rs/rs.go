// Package rs implements a systematic Reed-Solomon codec over GF(2^8)
// for arbitrary [n, k] shapes with n <= 255: erasure decoding, and
// error-and-erasure decoding (decode.go) on the same stored bytes.
//
// In SODA (Konwar et al., IPDPS 2016) every server stores exactly one
// coded element of each version, so the cluster of n servers is one
// [n, k] MDS codeword: a write encodes the value into n shards, and a
// read that has heard from any k servers reconstructs. This package is
// that inner loop. There is one code: shard i carries q(alpha_i) for
// the polynomial of degree < k through the data (alpha_i =
// matrix.EvalPoints), in systematic form (matrix.SystematicVandermonde),
// so shards 0..k-1 are the data itself (copy-free reads when no server
// has failed) and shards k..n-1 are parity. Its dual is a generalized
// Reed-Solomon code (matrix.GRSParityCheck), which is what lets a
// SODA_err reader locate corrupt elements in what a SODA writer stored.
// Elements are persisted with no generator id, so the generator is part
// of the stored format: golden_test.go pins its bytes.
//
// Performance structure, innermost to outermost:
//
//   - gf256 fused kernels: MulMulti/MulAddMulti accumulate all k
//     inputs into a register-resident output block in one pass, on the
//     best of the GFNI -> AVX2 -> table dispatch ladder (see
//     gf256/kernel.go).
//   - tiling: byte ranges are cut so the k input blocks stay in L2
//     while every output is computed for that range (codeRange).
//   - decode-matrix cache: reconstruction after a given failure pattern
//     needs the inverse of the k x k sub-generator chosen by the
//     surviving shards; the inverse is cached in a bounded
//     approximate-LRU keyed by the survivor bitmask, so a stable
//     failure pattern pays the O(k^3) inversion once, and concurrent
//     readers share it under an RLock.
//
// Every call codes on the calling goroutine: an Encoder owns no
// goroutines, so callers that want cores in parallel code in parallel.
//
// The steady-state entry points — EncodeInto, EncodeParity,
// ReconstructInto, Verify, and Encode/Reconstruct with pre-allocated
// targets — perform no heap allocations: coefficients are precomputed,
// and call scratch is recycled through sync.Pools.
package rs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/gf256"
	"repro/internal/matrix"
)

var (
	// ErrInvalidShape is returned by New for unusable [n, k] shapes.
	ErrInvalidShape = errors.New("rs: invalid code shape")
	// ErrShardCount is returned when a shard slice does not have
	// exactly n entries.
	ErrShardCount = errors.New("rs: wrong number of shards")
	// ErrShardSize is returned when present shards have mismatched
	// sizes, or a required shard is missing/empty.
	ErrShardSize = errors.New("rs: shards have invalid sizes")
	// ErrTooFewShards is returned by Reconstruct when fewer than k
	// shards are present.
	ErrTooFewShards = errors.New("rs: too few shards to reconstruct")
	// ErrParityMismatch is the class of Verify's mismatch report; the
	// concrete error is a *ParityMismatchError listing every parity
	// shard that disagrees with the data shards.
	ErrParityMismatch = errors.New("rs: parity mismatch")
	// ErrTooManyErrors is returned by DecodeErrors when the shards are
	// not within the decoding radius: more than e corrupt shards with
	// 2e + erasures <= n-k.
	ErrTooManyErrors = errors.New("rs: too many corrupt shards to locate")
)

// ParityMismatchError reports every parity shard whose stored bytes
// disagree with recomputation from the data shards. It unwraps to
// ErrParityMismatch. Because a single corrupt data shard flips
// essentially every parity shard while a corrupt parity shard flips
// only itself, len(Indices) is the cheap first estimate of where
// corruption sits before paying for DecodeErrors.
type ParityMismatchError struct {
	// Indices holds the mismatching parity shard indices (in [k, n)),
	// ascending.
	Indices []int
}

func (e *ParityMismatchError) Error() string {
	if len(e.Indices) == 1 {
		return fmt.Sprintf("rs: parity mismatch: parity shard %d", e.Indices[0])
	}
	return fmt.Sprintf("rs: parity mismatch: parity shards %v", e.Indices)
}

// Unwrap ties the error to the ErrParityMismatch class.
func (e *ParityMismatchError) Unwrap() error { return ErrParityMismatch }

// Encoder is a reusable [n, k] systematic Reed-Solomon codec. It is
// safe for concurrent use.
type Encoder struct {
	n, k int
	gen  *matrix.Matrix     // n x k systematic generator (top k rows = I)
	syn  *syndromeStructure // the error decoder's algebra; nil when n == k

	// parityCoeffs[i] is generator row k+i: the coefficients of parity
	// shard k+i. Precomputed so Encode/Verify never allocate them.
	parityCoeffs [][]byte

	cache       *matrixCache // decode matrices keyed by survivor bitmask
	errataCache *matrixCache // errata-solve setups keyed by errata bitmask

	scratch    sync.Pool // *codecScratch
	verscratch sync.Pool // *verifyScratch
	decscratch sync.Pool // *decodeScratch
}

// cacheSize bounds each of an Encoder's two matrix caches, in entries:
// about 64 * k^2 bytes of decode matrices.
const cacheSize = 64

// New returns an [n, k] Encoder: n total shards of which k carry data,
// tolerating any n-k erasures, or e corrupt shards beside f erasures
// for any 2e + f <= n-k. Requires 0 < k <= n <= 255 (the evaluation
// points are distinct and nonzero).
func New(n, k int) (*Encoder, error) {
	if k <= 0 || n < k || n > 255 {
		return nil, fmt.Errorf("%w: n=%d k=%d (need 0 < k <= n <= 255)", ErrInvalidShape, n, k)
	}
	gen, syn, err := buildGenerator(n, k)
	if err != nil {
		return nil, fmt.Errorf("rs: building generator: %w", err)
	}
	e := &Encoder{
		n:            n,
		k:            k,
		gen:          gen,
		syn:          syn,
		parityCoeffs: make([][]byte, n-k),
		cache:        newMatrixCache(cacheSize),
		errataCache:  newMatrixCache(cacheSize),
	}
	for i := range e.parityCoeffs {
		e.parityCoeffs[i] = gen.Row(k + i)
	}
	return e, nil
}

// N returns the total number of shards.
func (e *Encoder) N() int { return e.n }

// K returns the number of data shards.
func (e *Encoder) K() int { return e.k }

// Close does nothing: an Encoder owns no goroutines and nothing to
// release. It remains only because bench/probe.go calls it and bench/
// is frozen between benchmark changes (ROADMAP 5 (a)).
func (e *Encoder) Close() {}

// Encode fills the parity shards shards[k..n-1] from the data shards
// shards[0..k-1]. Data shards must all be present with equal size.
// Parity shards may be missing (nil or zero length, matching
// Reconstruct's convention) or preallocated at the data size. A missing
// parity entry whose capacity already covers the data size — the
// buf[:0] convention ReconstructInto documents — is resliced in place;
// only entries with insufficient capacity are allocated, so a caller
// that provisions capacity keeps its buffers and the call stays
// allocation-free.
func (e *Encoder) Encode(shards [][]byte) error {
	if len(shards) != e.n {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), e.n)
	}
	size, err := e.dataSize(shards)
	if err != nil {
		return err
	}
	// Validate every parity size before allocating any, so a failed
	// call never mutates the caller's slice.
	for i := e.k; i < e.n; i++ {
		if len(shards[i]) != 0 && len(shards[i]) != size {
			return fmt.Errorf("%w: parity shard %d has size %d, want %d", ErrShardSize, i, len(shards[i]), size)
		}
	}
	for i := e.k; i < e.n; i++ {
		if len(shards[i]) == 0 {
			if cap(shards[i]) >= size {
				shards[i] = shards[i][:size]
			} else {
				shards[i] = make([]byte, size)
			}
		}
	}
	codeRange(e.parityCoeffs, shards[:e.k], shards[e.k:], nil, 0, size)
	return nil
}

// EncodeInto is the steady-state form of Encode: every parity shard
// must already be allocated at the data size, and the call performs no
// heap allocation.
func (e *Encoder) EncodeInto(shards [][]byte) error {
	if len(shards) != e.n {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), e.n)
	}
	size, err := e.dataSize(shards)
	if err != nil {
		return err
	}
	for i := e.k; i < e.n; i++ {
		if len(shards[i]) != size {
			return fmt.Errorf("%w: parity shard %d has size %d, want %d (EncodeInto needs preallocated parity)", ErrShardSize, i, len(shards[i]), size)
		}
	}
	codeRange(e.parityCoeffs, shards[:e.k], shards[e.k:], nil, 0, size)
	return nil
}

// EncodeParity computes the n-k parity shards from k data slices that
// need not be neighbours in one shards slice — a value's own sub-slices,
// say — so the caller can encode before (or without) copying the data
// anywhere. All slices must have one nonzero size. It allocates
// nothing. parity[i] is written with non-temporal stores where
// stream[i] is set (gf256.MulMultiStream: for a buffer known to be out
// of cache and not read back soon); stream may be nil.
func (e *Encoder) EncodeParity(data, parity [][]byte, stream []bool) error {
	if len(data) != e.k || len(parity) != e.n-e.k || (stream != nil && len(stream) != len(parity)) {
		return fmt.Errorf("%w: got %d data, %d parity, %d stream flags, want %d, %d", ErrShardCount, len(data), len(parity), len(stream), e.k, e.n-e.k)
	}
	size, err := e.dataSize(data)
	if err != nil {
		return err
	}
	for i, p := range parity {
		if len(p) != size {
			return fmt.Errorf("%w: parity shard %d has size %d, want %d", ErrShardSize, e.k+i, len(p), size)
		}
	}
	codeRange(e.parityCoeffs, data, parity, stream, 0, size)
	return nil
}

// Verify recomputes the parity shards and reports whether they match.
// All n shards must be present with equal size. On a mismatch it
// returns false together with a *ParityMismatchError listing every
// mismatching parity shard: the cheap corruption estimate that decides
// whether DecodeErrors is worth running (one bad parity shard means the
// parity itself is corrupt; several usually mean a bad data shard). The
// match path performs no heap allocation.
func (e *Encoder) Verify(shards [][]byte) (bool, error) {
	if len(shards) != e.n {
		return false, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), e.n)
	}
	size, err := e.dataSize(shards)
	if err != nil {
		return false, err
	}
	for i := e.k; i < e.n; i++ {
		if len(shards[i]) != size {
			return false, fmt.Errorf("%w: parity shard %d has size %d, want %d", ErrShardSize, i, len(shards[i]), size)
		}
	}
	np := e.n - e.k
	if np == 0 {
		return true, nil
	}
	// Recompute parity in bounded chunks so a mismatch exits early and
	// the pooled scratch stays constant regardless of shard size.
	chunk := verifyChunk
	if chunk > size {
		chunk = size
	}
	vs := e.getVerifyScratch(np * chunk)
	defer e.putVerifyScratch(vs)
	buf := vs.buf[:np*chunk]
	// live holds the parity indices not yet flagged as mismatching; the
	// outputs and coefficient rows handed to the kernels are compacted
	// to it per chunk, so a shard flagged bad stops costing kernel work
	// for the rest of the scan, and the scan stops outright once every
	// parity shard is flagged. bad stays nil until the first mismatch so
	// the match path is allocation-free.
	live := vs.live[:0]
	for i := 0; i < np; i++ {
		live = append(live, e.k+i)
	}
	var bad []int
	for lo := 0; lo < size && len(live) > 0; lo += chunk {
		hi := lo + chunk
		if hi > size {
			hi = size
		}
		m := hi - lo
		for j := 0; j < e.k; j++ {
			vs.ins[j] = shards[j][lo:hi]
		}
		nl := len(live)
		for s, idx := range live {
			vs.outs[s] = buf[s*chunk : s*chunk+m]
			vs.coefs[s] = e.parityCoeffs[idx-e.k]
		}
		if testHookVerifyChunk != nil {
			testHookVerifyChunk(nl)
		}
		codeRange(vs.coefs[:nl], vs.ins, vs.outs[:nl], nil, 0, m)
		w := 0
		for s, idx := range live {
			if bytes.Equal(vs.outs[s], shards[idx][lo:hi]) {
				live[w] = idx
				w++
			} else {
				bad = append(bad, idx)
			}
		}
		live = live[:w]
	}
	if bad != nil {
		slices.Sort(bad) // chunks flag indices in detection order
		return false, &ParityMismatchError{Indices: bad}
	}
	return true, nil
}

// testHookVerifyChunk, when non-nil, observes the number of unflagged
// parity outputs Verify hands to the kernels for each chunk. Test-only.
var testHookVerifyChunk func(liveOutputs int)

// verifyChunk bounds Verify's scratch buffer per parity shard.
const verifyChunk = 64 << 10

// Reconstruct recomputes every missing shard (nil or empty entries) in
// place, data and parity alike, allocating buffers for them. At least
// k shards must be present, and all present shards must have equal
// size.
func (e *Encoder) Reconstruct(shards [][]byte) error {
	return e.reconstruct(shards, false, false)
}

// ReconstructData recomputes only the missing data shards
// shards[0..k-1], leaving missing parity shards untouched. This is the
// read-repair fast path: a SODA read needs the value, not the parity.
func (e *Encoder) ReconstructData(shards [][]byte) error {
	return e.reconstruct(shards, true, false)
}

// ReconstructInto is the steady-state, allocation-free form of
// Reconstruct. A shard to repair is passed as a zero-length slice with
// capacity of at least the shard size (for example buf[:0]); it is
// resliced to the shard size in place and filled. nil entries are
// treated as absent and left untouched, so the caller chooses exactly
// which shards to repair and supplies the memory.
func (e *Encoder) ReconstructInto(shards [][]byte) error {
	return e.reconstruct(shards, false, true)
}

// codecScratch recycles the per-call bookkeeping of reconstruct.
type codecScratch struct {
	present    []int
	missData   []int
	missParity []int
	inputs     [][]byte
	outputs    [][]byte
	coeffs     [][]byte
	coefbuf    []byte // composed coefficient rows for survivor-direct parity
}

func (e *Encoder) getScratch() *codecScratch {
	s, _ := e.scratch.Get().(*codecScratch)
	if s == nil {
		s = &codecScratch{
			present:    make([]int, 0, e.n),
			missData:   make([]int, 0, e.k),
			missParity: make([]int, 0, e.n-e.k+1),
			inputs:     make([][]byte, e.k),
			coefbuf:    make([]byte, (e.n-e.k)*e.k),
			outputs:    make([][]byte, 0, e.n),
			coeffs:     make([][]byte, 0, e.n),
		}
	}
	return s
}

func (e *Encoder) putScratch(s *codecScratch) {
	clearRefs := func(v [][]byte) [][]byte {
		v = v[:cap(v)]
		for i := range v {
			v[i] = nil // do not pin shard memory from the pool
		}
		return v[:0]
	}
	s.inputs = clearRefs(s.inputs)[:cap(s.inputs)]
	s.outputs = clearRefs(s.outputs)
	s.coeffs = clearRefs(s.coeffs)
	e.scratch.Put(s)
}

func (e *Encoder) reconstruct(shards [][]byte, dataOnly, into bool) error {
	if len(shards) != e.n {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), e.n)
	}
	s := e.getScratch()
	defer e.putScratch(s)

	size := -1
	s.present = s.present[:0]
	for i, sh := range shards {
		if len(sh) == 0 {
			continue
		}
		if size < 0 {
			size = len(sh)
		} else if len(sh) != size {
			return fmt.Errorf("%w: shard %d has size %d, want %d", ErrShardSize, i, len(sh), size)
		}
		s.present = append(s.present, i)
	}
	if len(s.present) < e.k {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(s.present), e.k)
	}

	// Collect repair targets. In into mode a target is a non-nil
	// zero-length entry whose capacity the caller sized for us; nil
	// means "absent, do not repair". Otherwise any empty entry is a
	// target (parity only when !dataOnly).
	repairable := func(i int) bool {
		if into {
			return shards[i] != nil && len(shards[i]) == 0
		}
		return len(shards[i]) == 0 && (i < e.k || !dataOnly)
	}
	s.missData = s.missData[:0]
	s.missParity = s.missParity[:0]
	for i := 0; i < e.n; i++ {
		if !repairable(i) {
			continue
		}
		if into && cap(shards[i]) < size {
			return fmt.Errorf("%w: shard %d buffer capacity %d < shard size %d", ErrShardSize, i, cap(shards[i]), size)
		}
		if i < e.k {
			s.missData = append(s.missData, i)
		} else {
			s.missParity = append(s.missParity, i)
		}
	}
	if len(s.missData) == 0 && len(s.missParity) == 0 {
		return nil
	}
	materialize := func(i int) {
		if into {
			shards[i] = shards[i][:size]
		} else {
			shards[i] = make([]byte, size)
		}
	}

	// Both repair stages decode from the same first k survivors, so
	// the inverted sub-generator is computed at most once per call.
	chosen := s.present[:e.k]
	var dec *matrix.Matrix

	if len(s.missData) > 0 {
		// Decode the missing data rows from the first k survivors.
		var err error
		if dec, err = e.decodeMatrix(chosen); err != nil {
			return err
		}
		inputs := s.inputs[:e.k]
		for i, idx := range chosen {
			inputs[i] = shards[idx]
		}
		outputs := s.outputs[:0]
		coeffs := s.coeffs[:0]
		for _, idx := range s.missData {
			materialize(idx)
			outputs = append(outputs, shards[idx])
			coeffs = append(coeffs, dec.Row(idx))
		}
		codeRange(coeffs, inputs, outputs, nil, 0, size)
	}

	if len(s.missParity) > 0 {
		// Re-encode missing parity. Usually every data shard is
		// present (or was just repaired) and the precomputed generator
		// rows apply directly. ReconstructInto may leave data shards
		// absent, though; then each parity row is composed with the
		// decode matrix — parity = genRow·data = (genRow·dec)·survivors
		// — so the parity is rebuilt straight from the k survivors.
		dataComplete := true
		for i := 0; i < e.k; i++ {
			if len(shards[i]) != size {
				dataComplete = false
				break
			}
		}
		inputs := s.inputs[:e.k]
		outputs := s.outputs[:0]
		coeffs := s.coeffs[:0]
		if dataComplete {
			copy(inputs, shards[:e.k])
			for _, idx := range s.missParity {
				materialize(idx)
				outputs = append(outputs, shards[idx])
				coeffs = append(coeffs, e.parityCoeffs[idx-e.k])
			}
		} else {
			if dec == nil {
				var err error
				if dec, err = e.decodeMatrix(chosen); err != nil {
					return err
				}
			}
			for i, idx := range chosen {
				inputs[i] = shards[idx]
			}
			buf := s.coefbuf[:len(s.missParity)*e.k]
			for i, idx := range s.missParity {
				materialize(idx)
				outputs = append(outputs, shards[idx])
				row := buf[i*e.k : (i+1)*e.k]
				gRow := e.parityCoeffs[idx-e.k]
				for j := 0; j < e.k; j++ {
					var acc byte
					for m := 0; m < e.k; m++ {
						acc ^= gf256.Mul(gRow[m], dec.Row(m)[j])
					}
					row[j] = acc
				}
				coeffs = append(coeffs, row)
			}
		}
		codeRange(coeffs, inputs, outputs, nil, 0, size)
	}
	return nil
}

// decodeMatrix returns the inverse of the k x k sub-generator selected
// by the (sorted, distinct) surviving shard indices, consulting the LRU
// cache first.
func (e *Encoder) decodeMatrix(chosen []int) (*matrix.Matrix, error) {
	var key shardKey
	for _, idx := range chosen {
		key[idx>>6] |= 1 << (idx & 63)
	}
	if e.cache != nil {
		if m, ok := e.cache.get(key); ok {
			return m, nil
		}
	}
	sub := e.gen.SubMatrix(chosen)
	dec, err := sub.Invert()
	if err != nil {
		return nil, fmt.Errorf("rs: decode matrix for shards %v: %w", chosen, err)
	}
	if e.cache != nil {
		e.cache.put(key, dec)
	}
	return dec, nil
}

// CacheStats reports decode-matrix cache hits, misses, and the current
// number of cached inverses. All zeros when caching is disabled.
func (e *Encoder) CacheStats() (hits, misses uint64, entries int) {
	if e.cache == nil {
		return 0, 0, 0
	}
	return e.cache.stats()
}

// verifyScratch recycles Verify's recomputed-parity buffer and views.
type verifyScratch struct {
	buf   []byte
	ins   [][]byte
	outs  [][]byte
	coefs [][]byte
	live  []int
}

func (e *Encoder) getVerifyScratch(need int) *verifyScratch {
	vs, _ := e.verscratch.Get().(*verifyScratch)
	if vs == nil {
		vs = &verifyScratch{
			ins:   make([][]byte, e.k),
			outs:  make([][]byte, e.n-e.k),
			coefs: make([][]byte, e.n-e.k),
			live:  make([]int, 0, e.n-e.k),
		}
	}
	if cap(vs.buf) < need {
		vs.buf = make([]byte, need)
	}
	return vs
}

func (e *Encoder) putVerifyScratch(vs *verifyScratch) {
	for i := range vs.ins {
		vs.ins[i] = nil
	}
	for i := range vs.outs {
		vs.outs[i] = nil
		vs.coefs[i] = nil
	}
	e.verscratch.Put(vs)
}

// dataSize validates that shards[0..k-1] are present with equal size
// and returns that size.
func (e *Encoder) dataSize(shards [][]byte) (int, error) {
	size := len(shards[0])
	if size == 0 {
		return 0, fmt.Errorf("%w: data shard 0 is missing or empty", ErrShardSize)
	}
	for i := 1; i < e.k; i++ {
		if len(shards[i]) != size {
			return 0, fmt.Errorf("%w: data shard %d has size %d, want %d", ErrShardSize, i, len(shards[i]), size)
		}
	}
	return size, nil
}

// viewPool recycles the per-range input window headers used by
// codeRange. Sized for the maximum code length so any Encoder can
// share it.
var viewPool = sync.Pool{New: func() any {
	s := make([][]byte, 256)
	return &s
}}

// tileTarget bounds a tile's working set — k input blocks plus the
// output block — to roughly half a typical 1 MiB L2, leaving room for
// the destination shard and the coefficient tables.
const tileTarget = 512 << 10

// tileSize returns the byte-range tile for k input shards, 4 KiB
// granular.
func tileSize(k int) int {
	t := tileTarget / (k + 1)
	t &^= 4095
	if t < 4096 {
		t = 4096
	}
	if t > 128<<10 {
		t = 128 << 10
	}
	return t
}

// codeRange is the coding loop: outputs[o][lo:hi] = sum_j coeffs[o][j] *
// inputs[j][lo:hi] for every output. The gf256 fused kernels make one
// register-resident pass over each output block; the range is cut into
// tiles small enough that the k input blocks (plus the output block)
// stay resident in L2 while every output is computed for that tile, so
// each input tile is fetched from memory once per range instead of once
// per output. An output whose stream flag is set is written with
// non-temporal stores; a nil stream means none is. It allocates nothing
// in steady state.
func codeRange(coeffs, inputs, outputs [][]byte, stream []bool, lo, hi int) {
	if lo >= hi || len(outputs) == 0 {
		return
	}
	vp := viewPool.Get().(*[][]byte)
	views := (*vp)[:len(inputs)]
	blk := tileSize(len(inputs))
	for lo < hi {
		bhi := lo + blk
		if bhi > hi {
			bhi = hi
		}
		for j, in := range inputs {
			views[j] = in[lo:bhi]
		}
		for o, out := range outputs {
			if stream != nil && stream[o] {
				gf256.MulMultiStream(coeffs[o], views, out[lo:bhi])
			} else {
				gf256.MulMulti(coeffs[o], views, out[lo:bhi])
			}
		}
		lo = bhi
	}
	for j := range views {
		views[j] = nil // do not pin shard memory from the pool
	}
	viewPool.Put(vp)
}
