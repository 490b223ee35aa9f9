package gf256

// The product table, kernel dispatch and the single-coefficient entry
// points.
//
// The scalar field core (gf256.go) multiplies through log/exp lookups:
// two table reads, an integer add, and a zero-operand branch per byte.
// For the erasure-coding inner loop — dst[i] ^= c * src[i] over shards
// of kilobytes to megabytes with a fixed coefficient c — that cost is
// dominated by a full 256x256 product table: one 256-byte row per
// coefficient turns every byte into a single branch-free indexed load.
// The row fits in four cache lines and stays hot for the whole shard.
//
// The fused kernels (kernel_multi.go) dispatch over three tiers,
// selected at runtime:
//
//	gfni   VGF2P8AFFINEQB on 64-byte ZMM vectors: one instruction
//	       applies the coefficient's 8x8 GF(2) bit matrix to 64 bytes
//	       (requires GFNI + AVX-512F + OS ZMM state)
//	avx2   VPSHUFB nibble-shuffle: two 16-byte in-register lookups
//	       per 32-byte vector
//	table  the 256-byte product row, one indexed load per byte
//
// MulSlice and MulAddSlice are the fused kernels with one input.
// SetKernel caps the ladder for benchmarking and debugging; the
// `purego` build tag removes the SIMD tiers entirely.
//
// The tables (64 KiB product table, plus the SIMD-specific views) are
// built lazily on first use so that programs that only ever do scalar
// arithmetic never pay for them.

import (
	"encoding/binary"
	"fmt"
	"sync"
)

var (
	mulTableOnce sync.Once
	mulTable     *[256][256]byte
	// nibTable[c] holds, for the AVX2 kernels, the 16 products
	// c*(i) followed by the 16 products c*(i<<4): the two in-register
	// shuffle tables that split a byte multiply over its nibbles.
	nibTable *[256][32]byte
	// gfniTable[c] is the 8x8 GF(2) bit matrix of "multiply by c",
	// packed in the qword layout VGF2P8AFFINEQB expects: the row
	// producing output bit i sits in byte 7-i.
	gfniTable *[256]uint64
)

// Kernel tier names accepted by SetKernel.
const (
	KernelGFNI  = "gfni"
	KernelAVX2  = "avx2"
	KernelTable = "table"
)

// useGFNI/useAVX2 are the active dispatch flags; they start at the
// hardware's best tier and can only be lowered (never raised above
// hasGFNI/hasAVX2) by SetKernel.
var (
	useGFNI = hasGFNI
	useAVX2 = hasAVX2
)

// KernelName reports the active top kernel tier: "gfni", "avx2", or
// "table".
func KernelName() string {
	switch {
	case useGFNI:
		return KernelGFNI
	case useAVX2:
		return KernelAVX2
	default:
		return KernelTable
	}
}

// AvailableKernels lists the kernel tiers usable on this machine and
// build, best first. "table" is always present.
//
//lint:ignore testonly rs tests run every decode over each tier this lists; a _test.go file serves its own package only
func AvailableKernels() []string {
	ks := make([]string, 0, 3)
	if hasGFNI {
		ks = append(ks, KernelGFNI)
	}
	if hasAVX2 {
		ks = append(ks, KernelAVX2)
	}
	return append(ks, KernelTable)
}

// SetKernel caps the dispatch ladder at the named tier ("gfni", "avx2",
// "table"), or restores the hardware's best with "auto". It returns an
// error if the tier is unknown or not supported by this machine/build.
// It is intended for benchmarks and tests and must not be called
// concurrently with slice-kernel operations.
//
//lint:ignore testonly rs tests pin each kernel tier with it; a _test.go file serves its own package only
func SetKernel(name string) error {
	switch name {
	case "auto":
		useGFNI, useAVX2 = hasGFNI, hasAVX2
	case KernelGFNI:
		if !hasGFNI {
			return fmt.Errorf("gf256: kernel %q not supported on this CPU/build", name)
		}
		useGFNI, useAVX2 = true, hasAVX2
	case KernelAVX2:
		if !hasAVX2 {
			return fmt.Errorf("gf256: kernel %q not supported on this CPU/build", name)
		}
		useGFNI, useAVX2 = false, true
	case KernelTable:
		useGFNI, useAVX2 = false, false
	default:
		return fmt.Errorf("gf256: unknown kernel %q", name)
	}
	return nil
}

func buildMulTable() {
	t := new([256][256]byte)
	for c := 1; c < 256; c++ {
		lc := int(logTable[c])
		row := &t[c]
		for a := 1; a < 256; a++ {
			row[a] = expTable[lc+int(logTable[a])]
		}
	}
	if hasAVX2 {
		nt := new([256][32]byte)
		for c := 1; c < 256; c++ {
			row := &t[c]
			for i := 0; i < 16; i++ {
				nt[c][i] = row[i]
				nt[c][16+i] = row[i<<4]
			}
		}
		nibTable = nt
	}
	if hasGFNI {
		gt := new([256]uint64)
		for c := 1; c < 256; c++ {
			gt[c] = gfniMatrix(byte(c))
		}
		gfniTable = gt
	}
	mulTable = t
}

// gfniMatrix packs "multiply by c" as the 8x8 GF(2) bit matrix operand
// of VGF2P8AFFINEQB. Column j of the matrix is c*x^j (multiplication is
// GF(2)-linear over the bits of the input byte); the instruction reads
// the row for output bit i from byte 7-i of the qword, with row bit j
// selecting input bit j.
func gfniMatrix(c byte) uint64 {
	var rows [8]byte
	p := c // c * x^j for the current column j
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			if p&(1<<i) != 0 {
				rows[i] |= 1 << j
			}
		}
		p = Mul(p, 2)
	}
	var m uint64
	for i := 0; i < 8; i++ {
		m |= uint64(rows[i]) << (8 * (7 - i))
	}
	return m
}

// MulSlice computes dst[i] = c * src[i] for all i: MulMulti with one
// input. dst and src must have the same length; they may alias exactly.
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	MulMulti([]byte{c}, [][]byte{src}, dst)
}

// mulSliceTail is the table-row loop dst[i] = c * src[i]: the table
// tier of the fused kernels, under mulMultiGeneric. The product table
// must already be built and c must not be 0 or 1.
func mulSliceTail(c byte, dst, src []byte) {
	row := &mulTable[c]
	i := 0
	for n := len(src) &^ 7; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = row[s[0]]
		d[1] = row[s[1]]
		d[2] = row[s[2]]
		d[3] = row[s[3]]
		d[4] = row[s[4]]
		d[5] = row[s[5]]
		d[6] = row[s[6]]
		d[7] = row[s[7]]
	}
	for ; i < len(src); i++ {
		dst[i] = row[src[i]]
	}
}

// MulAddSlice computes dst[i] ^= c * src[i] for all i: MulAddMulti
// with one input.
func MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	MulAddMulti([]byte{c}, [][]byte{src}, dst)
}

// mulAddSliceTail is the table-row loop dst[i] ^= c * src[i], under
// mulAddBlock. The product table must already be built and c must not
// be 0 or 1.
func mulAddSliceTail(c byte, dst, src []byte) {
	row := &mulTable[c]
	i := 0
	for n := len(src) &^ 7; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= row[s[0]]
		d[1] ^= row[s[1]]
		d[2] ^= row[s[2]]
		d[3] ^= row[s[3]]
		d[4] ^= row[s[4]]
		d[5] ^= row[s[5]]
		d[6] ^= row[s[6]]
		d[7] ^= row[s[7]]
	}
	for ; i < len(src); i++ {
		dst[i] ^= row[src[i]]
	}
}

// AddSlice computes dst[i] ^= src[i] for all i, eight bytes per XOR.
func AddSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: AddSlice length mismatch")
	}
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}
