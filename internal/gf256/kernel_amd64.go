//go:build amd64 && !purego

package gf256

// SIMD kernel tiers of the fused kernels. A GF(2^8) multiply by a
// fixed coefficient c is GF(2)-linear, which both tiers exploit:
//
//   - AVX2: c*b == c*(b & 0x0f) ^ c*(b & 0xf0); each half has only 16
//     possible inputs, which is exactly the domain of VPSHUFB — two
//     in-register 16-byte table lookups and a XOR multiply 32 bytes
//     per instruction pair.
//   - GFNI: VGF2P8AFFINEQB applies an arbitrary 8x8 GF(2) bit matrix
//     to every byte of a ZMM vector, so "multiply by c" becomes a
//     single instruction over 64 bytes, with the matrix broadcast from
//     the 2 KiB gfniTable.

// hasAVX2 gates the AVX2 kernels. Detection needs CPU support
// (CPUID.7.EBX bit 5), AVX support, and OS support for saving YMM
// state (OSXSAVE + XGETBV).
var hasAVX2 = detectAVX2()

// hasGFNI gates the GFNI/AVX-512 kernels: CPUID GFNI (7.ECX bit 8) and
// AVX512F (7.EBX bit 16), plus OS support for saving opmask and ZMM
// state.
var hasGFNI = detectGFNI()

func detectAVX2() bool {
	maxID, _, _, _ := x86cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := x86cpuid(1, 0)
	const (
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	if ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := x86cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func detectGFNI() bool {
	if !hasAVX2 {
		return false
	}
	_, ebx7, ecx7, _ := x86cpuid(7, 0)
	const (
		cpuidAVX512F = 1 << 16 // EBX
		cpuidGFNI    = 1 << 8  // ECX
	)
	if ebx7&cpuidAVX512F == 0 || ecx7&cpuidGFNI == 0 {
		return false
	}
	// XCR0 bits 1,2 (XMM, YMM) and 5,6,7 (opmask, ZMM0-15 high halves,
	// ZMM16-31) must all be OS-enabled.
	xcr0, _ := xgetbv()
	return xcr0&0xe6 == 0xe6
}

// x86cpuid executes CPUID for the given leaf/subleaf.
func x86cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// The fused multi-shard kernels compute, over len(dst) bytes,
//
//	mulMulti*:    dst[i]  = sum_j coeffs[j] * srcs[j][off+i]
//	mulAddMulti*: dst[i] ^= sum_j coeffs[j] * srcs[j][off+i]
//
// with the output block held in registers across all len(coeffs)
// inputs. dst is the already-offset destination window; off is added
// to each source base so the wrapper can hand different byte ranges to
// different tiers without re-slicing the input headers. len(coeffs)
// must be at least 1, and len(dst) a multiple of the tier's block size
// (128 bytes for AVX2, 256 for GFNI).

//go:noescape
func mulMultiAVX2(nib *[256][32]byte, coeffs []byte, srcs [][]byte, dst []byte, off int)

//go:noescape
func mulAddMultiAVX2(nib *[256][32]byte, coeffs []byte, srcs [][]byte, dst []byte, off int)

//go:noescape
func mulMultiGFNI(mats *[256]uint64, coeffs []byte, srcs [][]byte, dst []byte, off int)

//go:noescape
func mulAddMultiGFNI(mats *[256]uint64, coeffs []byte, srcs [][]byte, dst []byte, off int)
