//go:build amd64 && !purego

package gf256

import "unsafe"

// Streaming-store twins.
//
// A plain store to a cache line that is not in cache first reads the
// line from memory (read-for-ownership) and later writes it back: a
// destination nobody has touched for a while costs two bus transfers
// per line. A non-temporal store (VMOVNTDQ) fills a write-combining
// buffer and sends the whole line to memory once, with no read — and
// evicts the line if it was cached. So these are for a destination the
// caller knows is cold and will not read back soon; on a warm one they
// lose. The kernels end with SFENCE, as runtime.memmove's non-temporal
// path does, so the stores are ordered before whatever synchronisation
// publishes the buffer.

// streamAlign is the destination alignment the streaming kernels need:
// VMOVNTDQ faults on an unaligned ZMM operand.
const streamAlign = 64

func misalign(b []byte) int {
	return int(uintptr(unsafe.Pointer(unsafe.SliceData(b))) & (streamAlign - 1))
}

// MulMultiStream is MulMulti with non-temporal stores to dst: same
// result, but dst goes to memory without being read first and does not
// stay in cache. It takes the plain path when dst is not 64-byte
// aligned or no SIMD tier is active; a tail shorter than a kernel block
// is stored plainly.
func MulMultiStream(coeffs []byte, inputs [][]byte, dst []byte) {
	if !useAVX2 || len(coeffs) == 0 || misalign(dst) != 0 {
		MulMulti(coeffs, inputs, dst)
		return
	}
	checkMulti(coeffs, inputs, dst)
	mulTableOnce.Do(buildMulTable)
	i := 0
	if useGFNI && len(dst) >= 256 {
		n := len(dst) &^ 255
		mulMultiStreamGFNI(gfniTable, coeffs, inputs, dst[:n], 0)
		i = n
	}
	if len(dst)-i >= 128 {
		n := (len(dst) - i) &^ 127
		mulMultiStreamAVX2(nibTable, coeffs, inputs, dst[i:i+n], i)
		i += n
	}
	mulMultiGeneric(coeffs, inputs, dst, i)
}

// CopyStream is copy with non-temporal stores to dst, which must not
// overlap src: plain bytes up to dst's next 64-byte boundary, 128-byte
// streamed blocks, plain tail. Without an AVX2 tier, or below two
// blocks, it is copy.
func CopyStream(dst, src []byte) int {
	n := min(len(dst), len(src))
	if !useAVX2 || n < 256 {
		return copy(dst, src)
	}
	head := -misalign(dst) & (streamAlign - 1)
	body := head + (n-head)&^127
	copy(dst[:head], src)
	copyStreamAVX2(dst[head:body], src[head:body])
	copy(dst[body:n], src[body:])
	return n
}

// mulMultiStream* are mulMulti* with VMOVNTDQ stores and a closing
// SFENCE. dst must be 64-byte aligned.

//go:noescape
func mulMultiStreamAVX2(nib *[256][32]byte, coeffs []byte, srcs [][]byte, dst []byte, off int)

//go:noescape
func mulMultiStreamGFNI(mats *[256]uint64, coeffs []byte, srcs [][]byte, dst []byte, off int)

// copyStreamAVX2 copies len(dst) bytes, a multiple of 128, from src to
// the 32-byte-aligned dst with VMOVNTDQ stores and a closing SFENCE.
//
//go:noescape
func copyStreamAVX2(dst, src []byte)
