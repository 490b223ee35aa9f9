//go:build !amd64 || purego

package gf256

// Portable build: no SIMD kernels; the table-driven paths in kernel.go
// and kernel_multi.go are used for all slice sizes.

const (
	hasAVX2 = false
	hasGFNI = false
)

func mulMultiAVX2(nib *[256][32]byte, coeffs []byte, srcs [][]byte, dst []byte, off int) {
	panic("gf256: SIMD kernel called on a build without it")
}

func mulAddMultiAVX2(nib *[256][32]byte, coeffs []byte, srcs [][]byte, dst []byte, off int) {
	panic("gf256: SIMD kernel called on a build without it")
}

func mulMultiGFNI(mats *[256]uint64, coeffs []byte, srcs [][]byte, dst []byte, off int) {
	panic("gf256: SIMD kernel called on a build without it")
}

func mulAddMultiGFNI(mats *[256]uint64, coeffs []byte, srcs [][]byte, dst []byte, off int) {
	panic("gf256: SIMD kernel called on a build without it")
}

// MulMultiStream is MulMulti: a portable build has no streaming stores.
func MulMultiStream(coeffs []byte, inputs [][]byte, dst []byte) { MulMulti(coeffs, inputs, dst) }

// CopyStream is copy: a portable build has no streaming stores.
func CopyStream(dst, src []byte) int { return copy(dst, src) }
