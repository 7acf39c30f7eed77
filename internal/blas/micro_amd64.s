//go:build amd64 && !noasm

#include "textflag.h"

// func dgemmKernel8x6(kc int, a, b, c *float64, ldc int)
//
// 8×6 AVX2+FMA micro-kernel. The accumulator tile occupies Y4–Y15 (column
// j is the pair Y(4+2j) = rows 0–3, Y(5+2j) = rows 4–7); Y0/Y1 hold the
// current 8 packed A values and Y2/Y3 rotate through broadcast B values.
// Per k-step: 2 vector loads + 6 broadcasts + 12 FMAs = 96 flops.
TEXT ·dgemmKernel8x6(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), R8
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), CX
	MOVQ ldc+32(FP), DX
	SHLQ $3, DX              // ldc in bytes

	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15

	TESTQ R8, R8
	JZ    done

loop:
	VMOVUPD (SI), Y0         // a[0:4]
	VMOVUPD 32(SI), Y1       // a[4:8]

	VBROADCASTSD (DI), Y2    // b[0]
	VBROADCASTSD 8(DI), Y3   // b[1]
	VFMADD231PD  Y2, Y0, Y4
	VFMADD231PD  Y2, Y1, Y5
	VFMADD231PD  Y3, Y0, Y6
	VFMADD231PD  Y3, Y1, Y7

	VBROADCASTSD 16(DI), Y2  // b[2]
	VBROADCASTSD 24(DI), Y3  // b[3]
	VFMADD231PD  Y2, Y0, Y8
	VFMADD231PD  Y2, Y1, Y9
	VFMADD231PD  Y3, Y0, Y10
	VFMADD231PD  Y3, Y1, Y11

	VBROADCASTSD 32(DI), Y2  // b[4]
	VBROADCASTSD 40(DI), Y3  // b[5]
	VFMADD231PD  Y2, Y0, Y12
	VFMADD231PD  Y2, Y1, Y13
	VFMADD231PD  Y3, Y0, Y14
	VFMADD231PD  Y3, Y1, Y15

	ADDQ $64, SI
	ADDQ $48, DI
	DECQ R8
	JNZ  loop

done:
	// C[:, j] += acc column pair, walking one ldc stride per column.
	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	VADDPD  Y6, Y0, Y0
	VADDPD  Y7, Y1, Y1
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	VADDPD  Y10, Y0, Y0
	VADDPD  Y11, Y1, Y1
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	VADDPD  Y12, Y0, Y0
	VADDPD  Y13, Y1, Y1
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	VADDPD  Y14, Y0, Y0
	VADDPD  Y15, Y1, Y1
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)

	VZEROUPPER
	RET

// func dgemmKernel12x8(kc int, a, b, c *float64, ldc int)
//
// 12×8 AVX-512 micro-kernel. Column j of the accumulator tile is the pair
// Z(4+2j) = rows 0–7 and Y(5+2j) = rows 8–11 (YMM 16–19 need AVX512VL,
// which detection requires). Z0/Y1 hold the current 12 packed A values and
// Z2/Z3 rotate through broadcast B values — a VEX/EVEX write to a YMM
// zeroes the upper ZMM lanes, so Y2/Y3 are the correctly broadcast low
// halves of Z2/Z3. Per k-step: 2 loads + 8 broadcasts + 16 FMAs = 192
// flops from one 96-byte A panel line and one 64-byte B panel line.
TEXT ·dgemmKernel12x8(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), R8
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), CX
	MOVQ ldc+32(FP), DX
	SHLQ $3, DX              // ldc in bytes

	VPXORQ Z4, Z4, Z4
	VPXORQ Y5, Y5, Y5
	VPXORQ Z6, Z6, Z6
	VPXORQ Y7, Y7, Y7
	VPXORQ Z8, Z8, Z8
	VPXORQ Y9, Y9, Y9
	VPXORQ Z10, Z10, Z10
	VPXORQ Y11, Y11, Y11
	VPXORQ Z12, Z12, Z12
	VPXORQ Y13, Y13, Y13
	VPXORQ Z14, Z14, Z14
	VPXORQ Y15, Y15, Y15
	VPXORQ Z16, Z16, Z16
	VPXORQ Y17, Y17, Y17
	VPXORQ Z18, Z18, Z18
	VPXORQ Y19, Y19, Y19

	TESTQ R8, R8
	JZ    done12

loop12:
	VMOVUPD (SI), Z0         // a[0:8]
	VMOVUPD 64(SI), Y1       // a[8:12]

	VBROADCASTSD (DI), Z2    // b[0]
	VBROADCASTSD 8(DI), Z3   // b[1]
	VFMADD231PD  Z2, Z0, Z4
	VFMADD231PD  Y2, Y1, Y5
	VFMADD231PD  Z3, Z0, Z6
	VFMADD231PD  Y3, Y1, Y7

	VBROADCASTSD 16(DI), Z2  // b[2]
	VBROADCASTSD 24(DI), Z3  // b[3]
	VFMADD231PD  Z2, Z0, Z8
	VFMADD231PD  Y2, Y1, Y9
	VFMADD231PD  Z3, Z0, Z10
	VFMADD231PD  Y3, Y1, Y11

	VBROADCASTSD 32(DI), Z2  // b[4]
	VBROADCASTSD 40(DI), Z3  // b[5]
	VFMADD231PD  Z2, Z0, Z12
	VFMADD231PD  Y2, Y1, Y13
	VFMADD231PD  Z3, Z0, Z14
	VFMADD231PD  Y3, Y1, Y15

	VBROADCASTSD 48(DI), Z2  // b[6]
	VBROADCASTSD 56(DI), Z3  // b[7]
	VFMADD231PD  Z2, Z0, Z16
	VFMADD231PD  Y2, Y1, Y17
	VFMADD231PD  Z3, Z0, Z18
	VFMADD231PD  Y3, Y1, Y19

	ADDQ $96, SI
	ADDQ $64, DI
	DECQ R8
	JNZ  loop12

done12:
	// C[:, j] += acc pair, walking one ldc stride per column.
	VMOVUPD (CX), Z0
	VMOVUPD 64(CX), Y1
	VADDPD  Z4, Z0, Z0
	VADDPD  Y5, Y1, Y1
	VMOVUPD Z0, (CX)
	VMOVUPD Y1, 64(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Z0
	VMOVUPD 64(CX), Y1
	VADDPD  Z6, Z0, Z0
	VADDPD  Y7, Y1, Y1
	VMOVUPD Z0, (CX)
	VMOVUPD Y1, 64(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Z0
	VMOVUPD 64(CX), Y1
	VADDPD  Z8, Z0, Z0
	VADDPD  Y9, Y1, Y1
	VMOVUPD Z0, (CX)
	VMOVUPD Y1, 64(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Z0
	VMOVUPD 64(CX), Y1
	VADDPD  Z10, Z0, Z0
	VADDPD  Y11, Y1, Y1
	VMOVUPD Z0, (CX)
	VMOVUPD Y1, 64(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Z0
	VMOVUPD 64(CX), Y1
	VADDPD  Z12, Z0, Z0
	VADDPD  Y13, Y1, Y1
	VMOVUPD Z0, (CX)
	VMOVUPD Y1, 64(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Z0
	VMOVUPD 64(CX), Y1
	VADDPD  Z14, Z0, Z0
	VADDPD  Y15, Y1, Y1
	VMOVUPD Z0, (CX)
	VMOVUPD Y1, 64(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Z0
	VMOVUPD 64(CX), Y1
	VADDPD  Z16, Z0, Z0
	VADDPD  Y17, Y1, Y1
	VMOVUPD Z0, (CX)
	VMOVUPD Y1, 64(CX)
	ADDQ    DX, CX

	VMOVUPD (CX), Z0
	VMOVUPD 64(CX), Y1
	VADDPD  Z18, Z0, Z0
	VADDPD  Y19, Y1, Y1
	VMOVUPD Z0, (CX)
	VMOVUPD Y1, 64(CX)

	VZEROUPPER
	RET

// func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidx(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Level-1 vector bodies, AVX2+FMA forms (the avx2 level). n ≥ 1 is the
// caller's contract and the Go wrappers have already bounds-checked x[:n]
// and y[:n]. Each walks 16 elements per iteration in four independent YMM
// chains, then 4 at a time, then a scalar tail, so any length and any
// alignment is handled without masks.

// func ddotAVX2(n int, x, y *float64) float64
TEXT ·ddotAVX2(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, R8
	SHRQ $4, R8
	JZ   dot4

dotloop16:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ R8
	JNZ  dotloop16

dot4:
	MOVQ CX, R8
	ANDQ $15, R8
	SHRQ $2, R8
	JZ   dotreduce

dotloop4:
	VMOVUPD (SI), Y4
	VFMADD231PD (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ R8
	JNZ  dotloop4

dotreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0

	ANDQ $3, CX
	JZ   dotdone

dotloop1:
	VMOVSD (SI), X4
	VFMADD231SD (DI), X4, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  dotloop1

dotdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func daxpyAVX2(n int, alpha float64, x, y *float64)
//
// y[i] += alpha·x[i], one fused multiply-add per element.
TEXT ·daxpyAVX2(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), DI

	MOVQ CX, R8
	SHRQ $4, R8
	JZ   axpy4

axpyloop16:
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7
	VFMADD231PD (SI), Y0, Y4
	VFMADD231PD 32(SI), Y0, Y5
	VFMADD231PD 64(SI), Y0, Y6
	VFMADD231PD 96(SI), Y0, Y7
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ R8
	JNZ  axpyloop16

axpy4:
	MOVQ CX, R8
	ANDQ $15, R8
	SHRQ $2, R8
	JZ   axpy1

axpyloop4:
	VMOVUPD (DI), Y4
	VFMADD231PD (SI), Y0, Y4
	VMOVUPD Y4, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ R8
	JNZ  axpyloop4

axpy1:
	ANDQ $3, CX
	JZ   axpydone

axpyloop1:
	VMOVSD (DI), X4
	VFMADD231SD (SI), X0, X4
	VMOVSD X4, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  axpyloop1

axpydone:
	VZEROUPPER
	RET

// func dscalAVX2(n int, alpha float64, x *float64)
TEXT ·dscalAVX2(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ x+16(FP), SI

	MOVQ CX, R8
	SHRQ $4, R8
	JZ   scal4

scalloop16:
	VMULPD (SI), Y0, Y4
	VMULPD 32(SI), Y0, Y5
	VMULPD 64(SI), Y0, Y6
	VMULPD 96(SI), Y0, Y7
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, 32(SI)
	VMOVUPD Y6, 64(SI)
	VMOVUPD Y7, 96(SI)
	ADDQ $128, SI
	DECQ R8
	JNZ  scalloop16

scal4:
	MOVQ CX, R8
	ANDQ $15, R8
	SHRQ $2, R8
	JZ   scal1

scalloop4:
	VMULPD (SI), Y0, Y4
	VMOVUPD Y4, (SI)
	ADDQ $32, SI
	DECQ R8
	JNZ  scalloop4

scal1:
	ANDQ $3, CX
	JZ   scaldone

scalloop1:
	VMULSD (SI), X0, X4
	VMOVSD X4, (SI)
	ADDQ $8, SI
	DECQ CX
	JNZ  scalloop1

scaldone:
	VZEROUPPER
	RET

// AVX-512 forms of the same three bodies, for the avx512 level: 32 elements
// per iteration in four ZMM chains, then 8 at a time, then one masked step
// for the last n mod 8 — half the loads and FMAs of the AVX2 forms, which on
// L1-resident tile columns is half the time.

// func ddotAVX512(n int, x, y *float64) float64
TEXT ·ddotAVX512(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

	MOVQ CX, R8
	SHRQ $5, R8
	JZ   zdot8

zdotloop32:
	VMOVUPD (SI), Z4
	VMOVUPD 64(SI), Z5
	VMOVUPD 128(SI), Z6
	VMOVUPD 192(SI), Z7
	VFMADD231PD (DI), Z4, Z0
	VFMADD231PD 64(DI), Z5, Z1
	VFMADD231PD 128(DI), Z6, Z2
	VFMADD231PD 192(DI), Z7, Z3
	ADDQ $256, SI
	ADDQ $256, DI
	DECQ R8
	JNZ  zdotloop32

zdot8:
	MOVQ CX, R8
	ANDQ $31, R8
	SHRQ $3, R8
	JZ   zdottail

zdotloop8:
	VMOVUPD (SI), Z4
	VFMADD231PD (DI), Z4, Z0
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ R8
	JNZ  zdotloop8

zdottail:
	ANDQ $7, CX
	JZ   zdotreduce
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	VMOVUPD.Z (SI), K1, Z4
	VMOVUPD.Z (DI), K1, Z5
	VFMADD231PD Z5, Z4, Z1

zdotreduce:
	VADDPD Z1, Z0, Z0
	VADDPD Z3, Z2, Z2
	VADDPD Z2, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func daxpyAVX512(n int, alpha float64, x, y *float64)
TEXT ·daxpyAVX512(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	VBROADCASTSD alpha+8(FP), Z0
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), DI

	MOVQ CX, R8
	SHRQ $5, R8
	JZ   zaxpy8

zaxpyloop32:
	VMOVUPD (DI), Z4
	VMOVUPD 64(DI), Z5
	VMOVUPD 128(DI), Z6
	VMOVUPD 192(DI), Z7
	VFMADD231PD (SI), Z0, Z4
	VFMADD231PD 64(SI), Z0, Z5
	VFMADD231PD 128(SI), Z0, Z6
	VFMADD231PD 192(SI), Z0, Z7
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	VMOVUPD Z6, 128(DI)
	VMOVUPD Z7, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	DECQ R8
	JNZ  zaxpyloop32

zaxpy8:
	MOVQ CX, R8
	ANDQ $31, R8
	SHRQ $3, R8
	JZ   zaxpytail

zaxpyloop8:
	VMOVUPD (DI), Z4
	VFMADD231PD (SI), Z0, Z4
	VMOVUPD Z4, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ R8
	JNZ  zaxpyloop8

zaxpytail:
	ANDQ $7, CX
	JZ   zaxpydone
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	VMOVUPD.Z (DI), K1, Z4
	VMOVUPD.Z (SI), K1, Z5
	VFMADD231PD Z5, Z0, Z4
	VMOVUPD Z4, K1, (DI)

zaxpydone:
	VZEROUPPER
	RET

// func dscalAVX512(n int, alpha float64, x *float64)
TEXT ·dscalAVX512(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	VBROADCASTSD alpha+8(FP), Z0
	MOVQ x+16(FP), SI

	MOVQ CX, R8
	SHRQ $5, R8
	JZ   zscal8

zscalloop32:
	VMULPD (SI), Z0, Z4
	VMULPD 64(SI), Z0, Z5
	VMULPD 128(SI), Z0, Z6
	VMULPD 192(SI), Z0, Z7
	VMOVUPD Z4, (SI)
	VMOVUPD Z5, 64(SI)
	VMOVUPD Z6, 128(SI)
	VMOVUPD Z7, 192(SI)
	ADDQ $256, SI
	DECQ R8
	JNZ  zscalloop32

zscal8:
	MOVQ CX, R8
	ANDQ $31, R8
	SHRQ $3, R8
	JZ   zscaltail

zscalloop8:
	VMULPD (SI), Z0, Z4
	VMOVUPD Z4, (SI)
	ADDQ $64, SI
	DECQ R8
	JNZ  zscalloop8

zscaltail:
	ANDQ $7, CX
	JZ   zscaldone
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	VMOVUPD.Z (SI), K1, Z4
	VMULPD Z4, Z0, Z4
	VMOVUPD Z4, K1, (SI)

zscaldone:
	VZEROUPPER
	RET

// Transposing pack bodies. Each reads a run of stored columns of a
// column-major operand (column j at src + j·ld) over nblk full row blocks
// and writes them transposed and scaled into a packed panel:
// dst[p·stride + j] = alpha·src[p + j·ld], stride being the panel's MR or
// NR. nblk ≥ 1 is the caller's contract and the Go wrapper (transposeFast)
// has already bounds-checked every column and the panel. Loads cover whole
// row blocks only and stores whole rows of the run only, so nothing outside
// what the Go loops read and write is touched; ld, stride in elements.

// func packT8x8AVX512(nblk int, alpha float64, src *float64, ld int, dst *float64, stride int)
//
// 8 columns × 8 rows per block: eight alpha-folding loads (Z0–Z7 = one
// column each), VUNPCK{L,H}PD pairs neighbouring columns within 128-bit
// lanes, two rounds of VSHUFF64X2 move the lanes into place, eight stores.
TEXT ·packT8x8AVX512(SB), NOSPLIT, $0-48
	MOVQ nblk+0(FP), CX
	VBROADCASTSD alpha+8(FP), Z16
	MOVQ src+16(FP), SI
	MOVQ ld+24(FP), AX
	MOVQ dst+32(FP), DI
	MOVQ stride+40(FP), BX
	SHLQ $3, AX              // ld in bytes
	SHLQ $3, BX              // stride in bytes
	LEAQ (AX)(AX*2), R8      // 3·ld
	LEAQ (SI)(AX*4), R9      // column 4
	LEAQ (BX)(BX*2), R10     // 3·stride
	LEAQ (DI)(BX*4), R11     // row 4
	MOVQ BX, R12
	SHLQ $3, R12             // 8·stride: one block of rows

t8loop:
	VMULPD (SI), Z16, Z0
	VMULPD (SI)(AX*1), Z16, Z1
	VMULPD (SI)(AX*2), Z16, Z2
	VMULPD (SI)(R8*1), Z16, Z3
	VMULPD (R9), Z16, Z4
	VMULPD (R9)(AX*1), Z16, Z5
	VMULPD (R9)(AX*2), Z16, Z6
	VMULPD (R9)(R8*1), Z16, Z7

	// Lane k of Z8 is (c0[2k], c1[2k]), of Z9 (c0[2k+1], c1[2k+1]); Z10/Z11
	// the same for columns 2,3, Z12/Z13 for 4,5, Z14/Z15 for 6,7.
	VUNPCKLPD Z1, Z0, Z8
	VUNPCKHPD Z1, Z0, Z9
	VUNPCKLPD Z3, Z2, Z10
	VUNPCKHPD Z3, Z2, Z11
	VUNPCKLPD Z5, Z4, Z12
	VUNPCKHPD Z5, Z4, Z13
	VUNPCKLPD Z7, Z6, Z14
	VUNPCKHPD Z7, Z6, Z15

	// $0x88 gathers lanes 0,2 of each source, $0xDD lanes 1,3.
	VSHUFF64X2 $0x88, Z10, Z8, Z0    // even rows 0,4 of columns 0–3
	VSHUFF64X2 $0xDD, Z10, Z8, Z1    // even rows 2,6 of columns 0–3
	VSHUFF64X2 $0x88, Z14, Z12, Z2   // even rows 0,4 of columns 4–7
	VSHUFF64X2 $0xDD, Z14, Z12, Z3   // even rows 2,6 of columns 4–7
	VSHUFF64X2 $0x88, Z11, Z9, Z4    // odd rows 1,5 of columns 0–3
	VSHUFF64X2 $0xDD, Z11, Z9, Z5    // odd rows 3,7 of columns 0–3
	VSHUFF64X2 $0x88, Z15, Z13, Z6   // odd rows 1,5 of columns 4–7
	VSHUFF64X2 $0xDD, Z15, Z13, Z7   // odd rows 3,7 of columns 4–7

	VSHUFF64X2 $0x88, Z2, Z0, Z8     // row 0
	VSHUFF64X2 $0x88, Z6, Z4, Z9     // row 1
	VSHUFF64X2 $0x88, Z3, Z1, Z10    // row 2
	VSHUFF64X2 $0x88, Z7, Z5, Z11    // row 3
	VSHUFF64X2 $0xDD, Z2, Z0, Z12    // row 4
	VSHUFF64X2 $0xDD, Z6, Z4, Z13    // row 5
	VSHUFF64X2 $0xDD, Z3, Z1, Z14    // row 6
	VSHUFF64X2 $0xDD, Z7, Z5, Z15    // row 7

	VMOVUPD Z8, (DI)
	VMOVUPD Z9, (DI)(BX*1)
	VMOVUPD Z10, (DI)(BX*2)
	VMOVUPD Z11, (DI)(R10*1)
	VMOVUPD Z12, (R11)
	VMOVUPD Z13, (R11)(BX*1)
	VMOVUPD Z14, (R11)(BX*2)
	VMOVUPD Z15, (R11)(R10*1)

	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ R12, DI
	ADDQ R12, R11
	DECQ CX
	JNZ  t8loop

	VZEROUPPER
	RET

// func packT4x4AVX2(nblk int, alpha float64, src *float64, ld int, dst *float64, stride int)
//
// 4 columns × 4 rows per block: four alpha-folding loads, VUNPCK{L,H}PD
// pairs neighbouring columns within 128-bit lanes, VPERM2F128 joins the
// low lanes into rows 0,1 and the high lanes into rows 2,3, four stores.
TEXT ·packT4x4AVX2(SB), NOSPLIT, $0-48
	MOVQ nblk+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y15
	MOVQ src+16(FP), SI
	MOVQ ld+24(FP), AX
	MOVQ dst+32(FP), DI
	MOVQ stride+40(FP), BX
	SHLQ $3, AX              // ld in bytes
	SHLQ $3, BX              // stride in bytes
	LEAQ (AX)(AX*2), R8      // 3·ld
	LEAQ (BX)(BX*2), R10     // 3·stride
	LEAQ (BX*4), R12         // 4·stride: one block of rows

t4loop:
	VMULPD (SI), Y15, Y0
	VMULPD (SI)(AX*1), Y15, Y1
	VMULPD (SI)(AX*2), Y15, Y2
	VMULPD (SI)(R8*1), Y15, Y3

	VUNPCKLPD Y1, Y0, Y4     // c0[0] c1[0] | c0[2] c1[2]
	VUNPCKHPD Y1, Y0, Y5     // c0[1] c1[1] | c0[3] c1[3]
	VUNPCKLPD Y3, Y2, Y6     // c2[0] c3[0] | c2[2] c3[2]
	VUNPCKHPD Y3, Y2, Y7     // c2[1] c3[1] | c2[3] c3[3]

	VPERM2F128 $0x20, Y6, Y4, Y0   // row 0
	VPERM2F128 $0x20, Y7, Y5, Y1   // row 1
	VPERM2F128 $0x31, Y6, Y4, Y2   // row 2
	VPERM2F128 $0x31, Y7, Y5, Y3   // row 3

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(BX*1)
	VMOVUPD Y2, (DI)(BX*2)
	VMOVUPD Y3, (DI)(R10*1)

	ADDQ $32, SI
	ADDQ R12, DI
	DECQ CX
	JNZ  t4loop

	VZEROUPPER
	RET

// func packT2x4AVX2(nblk int, alpha float64, src *float64, ld int, dst *float64, stride int)
//
// 2 columns × 4 rows per block, the last two columns of NR = 6: after the
// unpack each 128-bit lane is already one row of the run, stored as such.
TEXT ·packT2x4AVX2(SB), NOSPLIT, $0-48
	MOVQ nblk+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y15
	MOVQ src+16(FP), SI
	MOVQ ld+24(FP), AX
	MOVQ dst+32(FP), DI
	MOVQ stride+40(FP), BX
	SHLQ $3, AX              // ld in bytes
	SHLQ $3, BX              // stride in bytes
	LEAQ (BX)(BX*2), R10     // 3·stride
	LEAQ (BX*4), R12         // 4·stride: one block of rows

t2loop:
	VMULPD (SI), Y15, Y0
	VMULPD (SI)(AX*1), Y15, Y1

	VUNPCKLPD Y1, Y0, Y2     // row 0 | row 2
	VUNPCKHPD Y1, Y0, Y3     // row 1 | row 3

	VMOVUPD      X2, (DI)
	VMOVUPD      X3, (DI)(BX*1)
	VEXTRACTF128 $1, Y2, (DI)(BX*2)
	VEXTRACTF128 $1, Y3, (DI)(R10*1)

	ADDQ $32, SI
	ADDQ R12, DI
	DECQ CX
	JNZ  t2loop

	VZEROUPPER
	RET

// func packRowsAVX2(kc int, alpha float64, src *float64, ld int, dst *float64, w int)
//
// The contiguous pack body: row p of a width-w panel is w consecutive stored
// elements, dst[p·w + i] = alpha·src[i + p·ld], moved as three, two or one
// and a half YMM for w = 12, 8, 6 (every MR and NR of the assembly levels,
// which this one body serves). kc ≥ 1; reads and writes exactly w elements
// per row.
TEXT ·packRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y15
	MOVQ src+16(FP), SI
	MOVQ ld+24(FP), AX
	MOVQ dst+32(FP), DI
	MOVQ w+40(FP), BX
	SHLQ $3, AX              // ld in bytes
	CMPQ BX, $12
	JEQ  rows12
	CMPQ BX, $8
	JEQ  rows8

rows6:
	VMULPD  (SI), Y15, Y0
	VMULPD  32(SI), X15, X1
	VMOVUPD Y0, (DI)
	VMOVUPD X1, 32(DI)
	ADDQ    AX, SI
	ADDQ    $48, DI
	DECQ    CX
	JNZ     rows6
	VZEROUPPER
	RET

rows8:
	VMULPD  (SI), Y15, Y0
	VMULPD  32(SI), Y15, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    AX, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     rows8
	VZEROUPPER
	RET

rows12:
	VMULPD  (SI), Y15, Y0
	VMULPD  32(SI), Y15, Y1
	VMULPD  64(SI), Y15, Y2
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	ADDQ    AX, SI
	ADDQ    $96, DI
	DECQ    CX
	JNZ     rows12
	VZEROUPPER
	RET

// func dlarfAVX512(m, n int, alpha float64, v, c *float64, ldc int)
//
// The fused reflector body behind Dlarf: for each of n columns c_k = c +
// k·ldc, w = vᵀc_k in exactly ddotAVX512's chains and reduction, coef =
// alpha·w (alpha = −τ), and unless coef == 0 — Daxpy's no-op, which a NaN
// coef is not — c_k += coef·v in exactly daxpyAVX512's FMAs. The result is
// bitwise the Ddot/Daxpy pair it fuses; what it saves is two calls per
// column and the loop counts and tail mask, computed once for all columns.
//
// m, n ≥ 1 and the Go wrapper (larfFast) has bounds-checked v[:m] and the
// last column. Touches neither R14/R15 nor X15.
TEXT ·dlarfAVX512(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), CX
	MOVQ n+8(FP), DX
	VMOVSD alpha+16(FP), X9
	MOVQ v+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R9
	SHLQ $3, R9

	MOVQ CX, R10
	SHRQ $5, R10
	MOVQ CX, R11
	ANDQ $31, R11
	SHRQ $3, R11
	ANDQ $7, CX
	MOVQ CX, R13
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	VXORPD X10, X10, X10

larfcol:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ DI, R12
	MOVQ BX, SI
	MOVQ R10, R8
	TESTQ R8, R8
	JZ   larfdot8

larfdot32:
	VMOVUPD (R12), Z4
	VMOVUPD 64(R12), Z5
	VMOVUPD 128(R12), Z6
	VMOVUPD 192(R12), Z7
	VFMADD231PD (SI), Z4, Z0
	VFMADD231PD 64(SI), Z5, Z1
	VFMADD231PD 128(SI), Z6, Z2
	VFMADD231PD 192(SI), Z7, Z3
	ADDQ $256, R12
	ADDQ $256, SI
	DECQ R8
	JNZ  larfdot32

larfdot8:
	MOVQ R11, R8
	TESTQ R8, R8
	JZ   larfdottail

larfdotloop8:
	VMOVUPD (R12), Z4
	VFMADD231PD (SI), Z4, Z0
	ADDQ $64, R12
	ADDQ $64, SI
	DECQ R8
	JNZ  larfdotloop8

larfdottail:
	TESTQ R13, R13
	JZ   larfreduce
	VMOVUPD.Z (R12), K1, Z4
	VMOVUPD.Z (SI), K1, Z5
	VFMADD231PD Z5, Z4, Z1

larfreduce:
	VADDPD Z1, Z0, Z0
	VADDPD Z3, Z2, Z2
	VADDPD Z2, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VADDSD X1, X0, X0
	VMULSD X9, X0, X0
	VUCOMISD X10, X0
	JP   larfapply
	JE   larfnext

larfapply:
	VBROADCASTSD X0, Z8
	MOVQ DI, R12
	MOVQ BX, SI
	MOVQ R10, R8
	TESTQ R8, R8
	JZ   larfaxpy8

larfaxpy32:
	VMOVUPD (R12), Z4
	VMOVUPD 64(R12), Z5
	VMOVUPD 128(R12), Z6
	VMOVUPD 192(R12), Z7
	VFMADD231PD (SI), Z8, Z4
	VFMADD231PD 64(SI), Z8, Z5
	VFMADD231PD 128(SI), Z8, Z6
	VFMADD231PD 192(SI), Z8, Z7
	VMOVUPD Z4, (R12)
	VMOVUPD Z5, 64(R12)
	VMOVUPD Z6, 128(R12)
	VMOVUPD Z7, 192(R12)
	ADDQ $256, R12
	ADDQ $256, SI
	DECQ R8
	JNZ  larfaxpy32

larfaxpy8:
	MOVQ R11, R8
	TESTQ R8, R8
	JZ   larfaxpytail

larfaxpyloop8:
	VMOVUPD (R12), Z4
	VFMADD231PD (SI), Z8, Z4
	VMOVUPD Z4, (R12)
	ADDQ $64, R12
	ADDQ $64, SI
	DECQ R8
	JNZ  larfaxpyloop8

larfaxpytail:
	TESTQ R13, R13
	JZ   larfnext
	VMOVUPD.Z (R12), K1, Z4
	VMOVUPD.Z (SI), K1, Z5
	VFMADD231PD Z5, Z8, Z4
	VMOVUPD Z4, K1, (R12)

larfnext:
	ADDQ R9, DI
	DECQ DX
	JNZ  larfcol
	VZEROUPPER
	RET
