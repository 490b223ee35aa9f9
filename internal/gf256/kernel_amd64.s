//go:build amd64 && !purego

#include "textflag.h"

DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA, $32

// func x86cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·x86cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulAddSliceAVX2(tbl *[32]byte, dst, src []byte)
//
// Y0 = low-nibble product table (both lanes)
// Y1 = high-nibble product table (both lanes)
// Y2 = 0x0f byte mask
TEXT ·mulAddSliceAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ src_base+32(FP), SI
	SHRQ $5, CX
	JZ   done
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	VMOVDQU nibbleMask<>(SB), Y2

loop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3      // low nibbles
	VPAND   Y2, Y4, Y4      // high nibbles
	VPSHUFB Y3, Y0, Y3      // c * low
	VPSHUFB Y4, Y1, Y4      // c * high
	VPXOR   Y3, Y4, Y3      // c * src
	VPXOR   (DI), Y3, Y3    // accumulate into dst
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func mulSliceAVX2(tbl *[32]byte, dst, src []byte)
TEXT ·mulSliceAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ src_base+32(FP), SI
	SHRQ $5, CX
	JZ   done2
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	VMOVDQU nibbleMask<>(SB), Y2

loop2:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop2
	VZEROUPPER

done2:
	RET

// func mulAddSliceGFNI(mat *uint64, dst, src []byte)
//
// 64-byte ZMM blocks: one VGF2P8AFFINEQB applies the coefficient's
// 8x8 GF(2) bit matrix to the whole vector.
TEXT ·mulAddSliceGFNI(SB), NOSPLIT, $0-56
	MOVQ mat+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ src_base+32(FP), SI
	SHRQ $6, CX
	JZ   gadone
	VPBROADCASTQ (AX), Z0

galoop:
	VMOVDQU64 (SI), Z1
	VGF2P8AFFINEQB $0, Z0, Z1, Z1
	VPXORQ    (DI), Z1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       galoop
	VZEROUPPER

gadone:
	RET

// func mulSliceGFNI(mat *uint64, dst, src []byte)
TEXT ·mulSliceGFNI(SB), NOSPLIT, $0-56
	MOVQ mat+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ src_base+32(FP), SI
	SHRQ $6, CX
	JZ   gmdone
	VPBROADCASTQ (AX), Z0

gmloop:
	VMOVDQU64 (SI), Z1
	VGF2P8AFFINEQB $0, Z0, Z1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       gmloop
	VZEROUPPER

gmdone:
	RET

// Fused multi-shard kernels. Shared register plan:
//
//	R8  table base (nibble tables or GFNI matrices)
//	R9  coeffs base     R11 k = len(coeffs)
//	R10 srcs base (array of 24-byte slice headers; only ptr is read)
//	DI  dst cursor      CX  remaining blocks
//	BX  running source offset (starts at off)
//	R12 j               R13 coeff / table offset
//	DX  srcs[j] cursor  AX  scratch (3*j for the 24-byte stride)
//
// The dst block lives in Y0-Y3 (Z0-Z3 for GFNI) across the whole inner
// loop over inputs: one store (plus one load for the mulAdd variants)
// per block, however many inputs there are.

// func mulMultiAVX2(nib *[256][32]byte, coeffs []byte, srcs [][]byte, dst []byte, off int)
//
// 128-byte blocks; len(dst) must be a nonzero multiple of 128, k >= 1.
TEXT ·mulMultiAVX2(SB), NOSPLIT, $0-88
	MOVQ nib+0(FP), R8
	MOVQ coeffs_base+8(FP), R9
	MOVQ coeffs_len+16(FP), R11
	MOVQ srcs_base+32(FP), R10
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), CX
	MOVQ off+80(FP), BX
	SHRQ $7, CX
	JZ   mm2done
	VMOVDQU nibbleMask<>(SB), Y4

mm2block:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  R12, R12

mm2input:
	MOVBQZX (R9)(R12*1), R13
	SHLQ    $5, R13
	VBROADCASTI128 (R8)(R13*1), Y5    // low-nibble products of coeffs[j]
	VBROADCASTI128 16(R8)(R13*1), Y6  // high-nibble products
	LEAQ    (R12)(R12*2), AX
	MOVQ    (R10)(AX*8), DX           // srcs[j] base
	ADDQ    BX, DX
	VMOVDQU (DX), Y7
	VMOVDQU 32(DX), Y8
	VMOVDQU 64(DX), Y9
	VMOVDQU 96(DX), Y10

	VPSRLQ  $4, Y7, Y11
	VPAND   Y4, Y7, Y7
	VPAND   Y4, Y11, Y11
	VPSHUFB Y7, Y5, Y7
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y7, Y0, Y0
	VPXOR   Y11, Y0, Y0

	VPSRLQ  $4, Y8, Y11
	VPAND   Y4, Y8, Y8
	VPAND   Y4, Y11, Y11
	VPSHUFB Y8, Y5, Y8
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y8, Y1, Y1
	VPXOR   Y11, Y1, Y1

	VPSRLQ  $4, Y9, Y11
	VPAND   Y4, Y9, Y9
	VPAND   Y4, Y11, Y11
	VPSHUFB Y9, Y5, Y9
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y9, Y2, Y2
	VPXOR   Y11, Y2, Y2

	VPSRLQ  $4, Y10, Y11
	VPAND   Y4, Y10, Y10
	VPAND   Y4, Y11, Y11
	VPSHUFB Y10, Y5, Y10
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y10, Y3, Y3
	VPXOR   Y11, Y3, Y3

	INCQ R12
	CMPQ R12, R11
	JB   mm2input

	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	DECQ    CX
	JNZ     mm2block
	VZEROUPPER

mm2done:
	RET

// func mulAddMultiAVX2(nib *[256][32]byte, coeffs []byte, srcs [][]byte, dst []byte, off int)
//
// As mulMultiAVX2, but XORs the accumulated block into dst.
TEXT ·mulAddMultiAVX2(SB), NOSPLIT, $0-88
	MOVQ nib+0(FP), R8
	MOVQ coeffs_base+8(FP), R9
	MOVQ coeffs_len+16(FP), R11
	MOVQ srcs_base+32(FP), R10
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), CX
	MOVQ off+80(FP), BX
	SHRQ $7, CX
	JZ   ma2done
	VMOVDQU nibbleMask<>(SB), Y4

ma2block:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  R12, R12

ma2input:
	MOVBQZX (R9)(R12*1), R13
	SHLQ    $5, R13
	VBROADCASTI128 (R8)(R13*1), Y5
	VBROADCASTI128 16(R8)(R13*1), Y6
	LEAQ    (R12)(R12*2), AX
	MOVQ    (R10)(AX*8), DX
	ADDQ    BX, DX
	VMOVDQU (DX), Y7
	VMOVDQU 32(DX), Y8
	VMOVDQU 64(DX), Y9
	VMOVDQU 96(DX), Y10

	VPSRLQ  $4, Y7, Y11
	VPAND   Y4, Y7, Y7
	VPAND   Y4, Y11, Y11
	VPSHUFB Y7, Y5, Y7
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y7, Y0, Y0
	VPXOR   Y11, Y0, Y0

	VPSRLQ  $4, Y8, Y11
	VPAND   Y4, Y8, Y8
	VPAND   Y4, Y11, Y11
	VPSHUFB Y8, Y5, Y8
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y8, Y1, Y1
	VPXOR   Y11, Y1, Y1

	VPSRLQ  $4, Y9, Y11
	VPAND   Y4, Y9, Y9
	VPAND   Y4, Y11, Y11
	VPSHUFB Y9, Y5, Y9
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y9, Y2, Y2
	VPXOR   Y11, Y2, Y2

	VPSRLQ  $4, Y10, Y11
	VPAND   Y4, Y10, Y10
	VPAND   Y4, Y11, Y11
	VPSHUFB Y10, Y5, Y10
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y10, Y3, Y3
	VPXOR   Y11, Y3, Y3

	INCQ R12
	CMPQ R12, R11
	JB   ma2input

	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VPXOR   64(DI), Y2, Y2
	VPXOR   96(DI), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	DECQ    CX
	JNZ     ma2block
	VZEROUPPER

ma2done:
	RET

// func mulMultiGFNI(mats *[256]uint64, coeffs []byte, srcs [][]byte, dst []byte, off int)
//
// 256-byte blocks; len(dst) must be a nonzero multiple of 256, k >= 1.
// Each input contributes one VGF2P8AFFINEQB per 64 bytes: the 8x8
// GF(2) bit matrix of "multiply by coeffs[j]" is broadcast from
// gfniTable and applied to the whole ZMM vector at once.
TEXT ·mulMultiGFNI(SB), NOSPLIT, $0-88
	MOVQ mats+0(FP), R8
	MOVQ coeffs_base+8(FP), R9
	MOVQ coeffs_len+16(FP), R11
	MOVQ srcs_base+32(FP), R10
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), CX
	MOVQ off+80(FP), BX
	SHRQ $8, CX
	JZ   mmgdone

mmgblock:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ   R12, R12

mmginput:
	MOVBQZX (R9)(R12*1), R13
	VPBROADCASTQ (R8)(R13*8), Z4      // matrix of coeffs[j], all lanes
	LEAQ    (R12)(R12*2), AX
	MOVQ    (R10)(AX*8), DX
	ADDQ    BX, DX
	VMOVDQU64 (DX), Z5
	VMOVDQU64 64(DX), Z6
	VMOVDQU64 128(DX), Z7
	VMOVDQU64 192(DX), Z8
	VGF2P8AFFINEQB $0, Z4, Z5, Z5
	VGF2P8AFFINEQB $0, Z4, Z6, Z6
	VGF2P8AFFINEQB $0, Z4, Z7, Z7
	VGF2P8AFFINEQB $0, Z4, Z8, Z8
	VPXORQ  Z5, Z0, Z0
	VPXORQ  Z6, Z1, Z1
	VPXORQ  Z7, Z2, Z2
	VPXORQ  Z8, Z3, Z3
	INCQ    R12
	CMPQ    R12, R11
	JB      mmginput

	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, BX
	DECQ    CX
	JNZ     mmgblock
	VZEROUPPER

mmgdone:
	RET

// func mulAddMultiGFNI(mats *[256]uint64, coeffs []byte, srcs [][]byte, dst []byte, off int)
//
// As mulMultiGFNI, but XORs the accumulated block into dst.
TEXT ·mulAddMultiGFNI(SB), NOSPLIT, $0-88
	MOVQ mats+0(FP), R8
	MOVQ coeffs_base+8(FP), R9
	MOVQ coeffs_len+16(FP), R11
	MOVQ srcs_base+32(FP), R10
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), CX
	MOVQ off+80(FP), BX
	SHRQ $8, CX
	JZ   magdone

magblock:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ   R12, R12

maginput:
	MOVBQZX (R9)(R12*1), R13
	VPBROADCASTQ (R8)(R13*8), Z4
	LEAQ    (R12)(R12*2), AX
	MOVQ    (R10)(AX*8), DX
	ADDQ    BX, DX
	VMOVDQU64 (DX), Z5
	VMOVDQU64 64(DX), Z6
	VMOVDQU64 128(DX), Z7
	VMOVDQU64 192(DX), Z8
	VGF2P8AFFINEQB $0, Z4, Z5, Z5
	VGF2P8AFFINEQB $0, Z4, Z6, Z6
	VGF2P8AFFINEQB $0, Z4, Z7, Z7
	VGF2P8AFFINEQB $0, Z4, Z8, Z8
	VPXORQ  Z5, Z0, Z0
	VPXORQ  Z6, Z1, Z1
	VPXORQ  Z7, Z2, Z2
	VPXORQ  Z8, Z3, Z3
	INCQ    R12
	CMPQ    R12, R11
	JB      maginput

	VPXORQ  (DI), Z0, Z0
	VPXORQ  64(DI), Z1, Z1
	VPXORQ  128(DI), Z2, Z2
	VPXORQ  192(DI), Z3, Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, BX
	DECQ    CX
	JNZ     magblock
	VZEROUPPER

magdone:
	RET

// Streaming-store twins of the fused multi-shard kernels in
// kernel_amd64.s: same register plan, same accumulation, but the
// finished block leaves through VMOVNTDQ — no read-for-ownership of the
// destination line, no cache fill — and an SFENCE orders the stores
// before the return.

// func mulMultiStreamAVX2(nib *[256][32]byte, coeffs []byte, srcs [][]byte, dst []byte, off int)
//
// 128-byte blocks; len(dst) must be a nonzero multiple of 128, k >= 1,
// dst 32-byte aligned.
TEXT ·mulMultiStreamAVX2(SB), NOSPLIT, $0-88
	MOVQ nib+0(FP), R8
	MOVQ coeffs_base+8(FP), R9
	MOVQ coeffs_len+16(FP), R11
	MOVQ srcs_base+32(FP), R10
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), CX
	MOVQ off+80(FP), BX
	SHRQ $7, CX
	JZ   done
	VMOVDQU nibbleMask<>(SB), Y4

block:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  R12, R12

input:
	MOVBQZX (R9)(R12*1), R13
	SHLQ    $5, R13
	VBROADCASTI128 (R8)(R13*1), Y5    // low-nibble products of coeffs[j]
	VBROADCASTI128 16(R8)(R13*1), Y6  // high-nibble products
	LEAQ    (R12)(R12*2), AX
	MOVQ    (R10)(AX*8), DX           // srcs[j] base
	ADDQ    BX, DX
	VMOVDQU (DX), Y7
	VMOVDQU 32(DX), Y8
	VMOVDQU 64(DX), Y9
	VMOVDQU 96(DX), Y10

	VPSRLQ  $4, Y7, Y11
	VPAND   Y4, Y7, Y7
	VPAND   Y4, Y11, Y11
	VPSHUFB Y7, Y5, Y7
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y7, Y0, Y0
	VPXOR   Y11, Y0, Y0

	VPSRLQ  $4, Y8, Y11
	VPAND   Y4, Y8, Y8
	VPAND   Y4, Y11, Y11
	VPSHUFB Y8, Y5, Y8
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y8, Y1, Y1
	VPXOR   Y11, Y1, Y1

	VPSRLQ  $4, Y9, Y11
	VPAND   Y4, Y9, Y9
	VPAND   Y4, Y11, Y11
	VPSHUFB Y9, Y5, Y9
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y9, Y2, Y2
	VPXOR   Y11, Y2, Y2

	VPSRLQ  $4, Y10, Y11
	VPAND   Y4, Y10, Y10
	VPAND   Y4, Y11, Y11
	VPSHUFB Y10, Y5, Y10
	VPSHUFB Y11, Y6, Y11
	VPXOR   Y10, Y3, Y3
	VPXOR   Y11, Y3, Y3

	INCQ R12
	CMPQ R12, R11
	JB   input

	VMOVNTDQ Y0, (DI)
	VMOVNTDQ Y1, 32(DI)
	VMOVNTDQ Y2, 64(DI)
	VMOVNTDQ Y3, 96(DI)
	ADDQ     $128, DI
	ADDQ     $128, BX
	DECQ     CX
	JNZ      block
	SFENCE
	VZEROUPPER

done:
	RET

// func mulMultiStreamGFNI(mats *[256]uint64, coeffs []byte, srcs [][]byte, dst []byte, off int)
//
// 256-byte blocks; len(dst) must be a nonzero multiple of 256, k >= 1,
// dst 64-byte aligned.
TEXT ·mulMultiStreamGFNI(SB), NOSPLIT, $0-88
	MOVQ mats+0(FP), R8
	MOVQ coeffs_base+8(FP), R9
	MOVQ coeffs_len+16(FP), R11
	MOVQ srcs_base+32(FP), R10
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), CX
	MOVQ off+80(FP), BX
	SHRQ $8, CX
	JZ   done

block:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ   R12, R12

input:
	MOVBQZX (R9)(R12*1), R13
	VPBROADCASTQ (R8)(R13*8), Z4      // matrix of coeffs[j], all lanes
	LEAQ    (R12)(R12*2), AX
	MOVQ    (R10)(AX*8), DX
	ADDQ    BX, DX
	VMOVDQU64 (DX), Z5
	VMOVDQU64 64(DX), Z6
	VMOVDQU64 128(DX), Z7
	VMOVDQU64 192(DX), Z8
	VGF2P8AFFINEQB $0, Z4, Z5, Z5
	VGF2P8AFFINEQB $0, Z4, Z6, Z6
	VGF2P8AFFINEQB $0, Z4, Z7, Z7
	VGF2P8AFFINEQB $0, Z4, Z8, Z8
	VPXORQ  Z5, Z0, Z0
	VPXORQ  Z6, Z1, Z1
	VPXORQ  Z7, Z2, Z2
	VPXORQ  Z8, Z3, Z3
	INCQ    R12
	CMPQ    R12, R11
	JB      input

	VMOVNTDQ Z0, (DI)
	VMOVNTDQ Z1, 64(DI)
	VMOVNTDQ Z2, 128(DI)
	VMOVNTDQ Z3, 192(DI)
	ADDQ     $256, DI
	ADDQ     $256, BX
	DECQ     CX
	JNZ      block
	SFENCE
	VZEROUPPER

done:
	RET

// func copyStreamAVX2(dst, src []byte)
//
// 128-byte blocks; len(dst) must be a multiple of 128, dst 32-byte
// aligned. src is read unaligned.
TEXT ·copyStreamAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $7, CX
	JZ   done

loop:
	VMOVDQU  (SI), Y0
	VMOVDQU  32(SI), Y1
	VMOVDQU  64(SI), Y2
	VMOVDQU  96(SI), Y3
	VMOVNTDQ Y0, (DI)
	VMOVNTDQ Y1, 32(DI)
	VMOVNTDQ Y2, 64(DI)
	VMOVNTDQ Y3, 96(DI)
	ADDQ     $128, SI
	ADDQ     $128, DI
	DECQ     CX
	JNZ      loop
	SFENCE
	VZEROUPPER

done:
	RET
