package rs

import (
	"bytes"
	"fmt"
)

// decodeErrorsBrute is the combinatorial reference decoder and the
// benchmark baseline DecodeErrors is measured against: for every
// candidate corrupt set T of growing size, erase T, reconstruct, and
// accept the first candidate whose re-encoded codeword matches every
// untouched shard. That is sum_e C(n, e) trial decodes, each paying a
// k x k inversion plus a full-shard re-encode — the cost DecodeErrors's
// single fused syndrome pass replaces. Works for any generator.
func (e *Encoder) decodeErrorsBrute(shards [][]byte) ([]int, error) {
	if len(shards) != e.n {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), e.n)
	}
	var present []int
	f, size := 0, 0
	for i, sh := range shards {
		if len(sh) == 0 {
			f++
		} else {
			present = append(present, i)
			size = len(sh)
		}
	}
	if len(present) < e.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(present), e.k)
	}
	maxE := (e.n - e.k - f) / 2
	for etry := 0; etry <= maxE; etry++ {
		var found []int
		var result [][]byte
		combinations(len(present), etry, func(pick []int) bool {
			cand := make([][]byte, e.n)
			for i := range cand {
				cand[i] = make([]byte, 0, size)
			}
			for _, idx := range present {
				cand[idx] = shards[idx]
			}
			for _, j := range pick {
				cand[present[j]] = make([]byte, 0, size)
			}
			if err := e.ReconstructInto(cand); err != nil {
				return false
			}
			if ok, _ := e.Verify(cand); !ok {
				return false
			}
			found = make([]int, 0, etry)
			for _, j := range pick {
				p := present[j]
				if !bytes.Equal(cand[p], shards[p]) {
					found = append(found, p)
				}
			}
			result = cand
			return true
		})
		if result != nil {
			for i := range shards {
				if len(shards[i]) == 0 {
					shards[i] = result[i]
				} else if !bytes.Equal(shards[i], result[i]) {
					copy(shards[i], result[i])
				}
			}
			return found, nil
		}
	}
	return nil, fmt.Errorf("%w: no codeword within %d errors of the shards", ErrTooManyErrors, maxE)
}

// combinations invokes fn on every size-r index subset of [0, n) in
// lexicographic order until fn returns true.
func combinations(n, r int, fn func([]int) bool) {
	if r > n {
		return
	}
	pick := make([]int, r)
	for i := range pick {
		pick[i] = i
	}
	for {
		if fn(pick) {
			return
		}
		i := r - 1
		for ; i >= 0 && pick[i] == n-r+i; i-- {
		}
		if i < 0 {
			return
		}
		pick[i]++
		for j := i + 1; j < r; j++ {
			pick[j] = pick[j-1] + 1
		}
	}
}
