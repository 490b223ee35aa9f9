package rs

import "repro/internal/matrix"

// syndromeStructure is the algebra the error decoder needs: the
// parity-check matrix whose rows are the syndrome coefficients, plus
// the locator point of every shard position.
type syndromeStructure struct {
	check  *matrix.Matrix // (n-k) x n, check * codeword = 0
	points []byte         // points[i]: locator of shard i (nonzero, distinct)
}

// buildGenerator constructs the systematic evaluation-point generator
// of the [n, k] code and, when it has parity rows to locate errors
// with, its syndrome structure.
func buildGenerator(n, k int) (*matrix.Matrix, *syndromeStructure, error) {
	gen, err := matrix.SystematicVandermonde(n, k)
	if err != nil || n == k {
		return gen, nil, err
	}
	check, err := matrix.GRSParityCheck(n, k)
	if err != nil {
		return nil, nil, err
	}
	return gen, &syndromeStructure{check: check, points: matrix.EvalPoints(n)}, nil
}
