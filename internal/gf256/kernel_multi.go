package gf256

// Fused multi-shard kernels.
//
// Erasure coding computes each output shard as a k-term linear
// combination out = sum_j c_j * in_j. Doing that as k MulAddSlice calls
// walks the output shard k times: every pass reloads and restores every
// output byte, so for an [n, k] code the dst traffic alone is
// (n-k) * k * size loads plus as many stores. The fused kernels below
// make one pass over dst: a block of the output stays in registers
// while all k inputs are accumulated into it, so dst is written exactly
// once (and read exactly once for MulAddMulti, not at all for
// MulMulti). Input traffic is unchanged — each input block is read once
// per output — which is why the rs codec additionally tiles byte ranges
// so the k input blocks stay in L2 across all n-k outputs.
//
// Per 64-byte block the memory operations drop from 3k (src load, dst
// load, dst store, per input) to k+2.

// MulMulti computes dst[i] = sum_j coeffs[j] * inputs[j][i]: one fused
// register-resident pass over dst. len(coeffs) must equal len(inputs)
// and every input must have exactly len(dst) bytes. An empty coeffs
// zeroes dst. dst must not overlap any input except exactly (identical
// base and length).
func MulMulti(coeffs []byte, inputs [][]byte, dst []byte) {
	checkMulti(coeffs, inputs, dst)
	if len(dst) == 0 {
		return
	}
	if len(coeffs) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	mulTableOnce.Do(buildMulTable)
	i := 0
	if useGFNI && len(dst) >= 256 {
		n := len(dst) &^ 255
		mulMultiGFNI(gfniTable, coeffs, inputs, dst[:n], 0)
		i = n
	}
	if useAVX2 && len(dst)-i >= 128 {
		n := (len(dst) - i) &^ 127
		mulMultiAVX2(nibTable, coeffs, inputs, dst[i:i+n], i)
		i += n
	}
	mulMultiGeneric(coeffs, inputs, dst, i)
}

// MulAddMulti computes dst[i] ^= sum_j coeffs[j] * inputs[j][i], the
// accumulate form of MulMulti: dst is read once and written once no
// matter how many inputs there are.
func MulAddMulti(coeffs []byte, inputs [][]byte, dst []byte) {
	checkMulti(coeffs, inputs, dst)
	if len(dst) == 0 || len(coeffs) == 0 {
		return
	}
	mulTableOnce.Do(buildMulTable)
	i := 0
	if useGFNI && len(dst) >= 256 {
		n := len(dst) &^ 255
		mulAddMultiGFNI(gfniTable, coeffs, inputs, dst[:n], 0)
		i = n
	}
	if useAVX2 && len(dst)-i >= 128 {
		n := (len(dst) - i) &^ 127
		mulAddMultiAVX2(nibTable, coeffs, inputs, dst[i:i+n], i)
		i += n
	}
	mulAddMultiGeneric(coeffs, inputs, dst, i)
}

func checkMulti(coeffs []byte, inputs [][]byte, dst []byte) {
	if len(coeffs) != len(inputs) {
		panic("gf256: MulMulti coefficient/input count mismatch")
	}
	for _, in := range inputs {
		if len(in) != len(dst) {
			panic("gf256: MulMulti input length mismatch")
		}
	}
}

// multiBlock is the byte-range tile of the table fallback: the dst
// block is re-walked once per input, so it must stay in L1 across all
// of them.
const multiBlock = 8 << 10

// mulMultiGeneric is the table-driven fallback for MulMulti from offset
// lo: per L1-sized block, the first input overwrites and the rest
// accumulate, so dst never round-trips through memory cold.
func mulMultiGeneric(coeffs []byte, inputs [][]byte, dst []byte, lo int) {
	for lo < len(dst) {
		hi := lo + multiBlock
		if hi > len(dst) {
			hi = len(dst)
		}
		d := dst[lo:hi]
		switch c := coeffs[0]; c {
		case 0:
			for i := range d {
				d[i] = 0
			}
		case 1:
			copy(d, inputs[0][lo:hi])
		default:
			mulSliceTail(c, d, inputs[0][lo:hi])
		}
		for j := 1; j < len(coeffs); j++ {
			mulAddBlock(coeffs[j], d, inputs[j][lo:hi])
		}
		lo = hi
	}
}

// mulAddMultiGeneric is the table-driven fallback for MulAddMulti from
// offset lo, tiled the same way.
func mulAddMultiGeneric(coeffs []byte, inputs [][]byte, dst []byte, lo int) {
	for lo < len(dst) {
		hi := lo + multiBlock
		if hi > len(dst) {
			hi = len(dst)
		}
		d := dst[lo:hi]
		for j, c := range coeffs {
			mulAddBlock(c, d, inputs[j][lo:hi])
		}
		lo = hi
	}
}

// mulAddBlock is mulAddSliceTail with the 0/1 coefficient fast paths,
// for use on pre-sliced blocks.
func mulAddBlock(c byte, dst, src []byte) {
	switch c {
	case 0:
	case 1:
		AddSlice(dst, src)
	default:
		mulAddSliceTail(c, dst, src)
	}
}
