#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// step adds p[4*k+0..3] * b[k][j..j+16] to the four rows' sums, then moves
// AX to step k+1's coefficients and BX to b's next row. Each product is
// rounded (VMULPS) before it is added (VADDPS): no fused multiply-add. The
// sums live in Y8-Y15 and b, the coefficient and the products in Y0-Y6, so
// every multiply and add reads its memory-or-register operand from a low
// register and takes the short VEX prefix.
#define STEP \
	VMOVUPS      (BX), Y0           \
	VMOVUPS      32(BX), Y1         \
	VBROADCASTSS (AX), Y2           \
	VMULPS       Y0, Y2, Y3         \
	VADDPS       Y3, Y8, Y8         \
	VMULPS       Y1, Y2, Y4         \
	VADDPS       Y4, Y9, Y9         \
	VBROADCASTSS 4(AX), Y2          \
	VMULPS       Y0, Y2, Y5         \
	VADDPS       Y5, Y10, Y10       \
	VMULPS       Y1, Y2, Y6         \
	VADDPS       Y6, Y11, Y11       \
	VBROADCASTSS 8(AX), Y2          \
	VMULPS       Y0, Y2, Y3         \
	VADDPS       Y3, Y12, Y12       \
	VMULPS       Y1, Y2, Y4         \
	VADDPS       Y4, Y13, Y13       \
	VBROADCASTSS 12(AX), Y2         \
	VMULPS       Y0, Y2, Y5         \
	VADDPS       Y5, Y14, Y14       \
	VMULPS       Y1, Y2, Y6         \
	VADDPS       Y6, Y15, Y15       \
	ADDQ         $16, AX            \
	ADDQ         R8, BX

// func mulAdd4x16(c, p, b *float32, ldn, kb, width int)
TEXT ·mulAdd4x16(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ ldn+24(FP), R8
	SHLQ $2, R8             // row stride in bytes
	MOVQ kb+32(FP), R9
	MOVQ width+40(FP), R10
	LEAQ (DI)(R8*2), R11    // row 2 of c

strip:
	// The 4 x 16 sums: rows 0..3 in Y8/Y9, Y10/Y11, Y12/Y13, Y14/Y15.
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VMOVUPS (DI)(R8*1), Y10
	VMOVUPS 32(DI)(R8*1), Y11
	VMOVUPS (R11), Y12
	VMOVUPS 32(R11), Y13
	VMOVUPS (R11)(R8*1), Y14
	VMOVUPS 32(R11)(R8*1), Y15
	MOVQ    SI, AX
	MOVQ    DX, BX
	MOVQ    R9, CX

ksteps:
	STEP
	DECQ CX
	JNZ  ksteps

	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, (DI)(R8*1)
	VMOVUPS Y11, 32(DI)(R8*1)
	VMOVUPS Y12, (R11)
	VMOVUPS Y13, 32(R11)
	VMOVUPS Y14, (R11)(R8*1)
	VMOVUPS Y15, 32(R11)(R8*1)
	ADDQ    $64, DI
	ADDQ    $64, R11
	ADDQ    $64, DX
	SUBQ    $16, R10
	JNZ     strip

	VZEROUPPER
	RET

// STEP64 adds p[4*k+0..3] * b[k][j..j+64] to the four rows' sums in
// Z16-Z31, four ZMM registers a row, then moves AX to step k+1's
// coefficients and BX to b's next row. Each product is rounded (VMULPS)
// before it is added (VADDPS): no fused multiply-add.
#define STEP64 \
	VMOVUPS      (BX), Z0           \
	VMOVUPS      64(BX), Z1         \
	VMOVUPS      128(BX), Z2        \
	VMOVUPS      192(BX), Z3        \
	VBROADCASTSS (AX), Z4           \
	VMULPS       Z0, Z4, Z5         \
	VADDPS       Z5, Z16, Z16       \
	VMULPS       Z1, Z4, Z6         \
	VADDPS       Z6, Z17, Z17       \
	VMULPS       Z2, Z4, Z7         \
	VADDPS       Z7, Z18, Z18       \
	VMULPS       Z3, Z4, Z8         \
	VADDPS       Z8, Z19, Z19       \
	VBROADCASTSS 4(AX), Z9          \
	VMULPS       Z0, Z9, Z10        \
	VADDPS       Z10, Z20, Z20      \
	VMULPS       Z1, Z9, Z11        \
	VADDPS       Z11, Z21, Z21      \
	VMULPS       Z2, Z9, Z12        \
	VADDPS       Z12, Z22, Z22      \
	VMULPS       Z3, Z9, Z13        \
	VADDPS       Z13, Z23, Z23      \
	VBROADCASTSS 8(AX), Z4          \
	VMULPS       Z0, Z4, Z5         \
	VADDPS       Z5, Z24, Z24       \
	VMULPS       Z1, Z4, Z6         \
	VADDPS       Z6, Z25, Z25       \
	VMULPS       Z2, Z4, Z7         \
	VADDPS       Z7, Z26, Z26       \
	VMULPS       Z3, Z4, Z8         \
	VADDPS       Z8, Z27, Z27       \
	VBROADCASTSS 12(AX), Z9         \
	VMULPS       Z0, Z9, Z10        \
	VADDPS       Z10, Z28, Z28      \
	VMULPS       Z1, Z9, Z11        \
	VADDPS       Z11, Z29, Z29      \
	VMULPS       Z2, Z9, Z12        \
	VADDPS       Z12, Z30, Z30      \
	VMULPS       Z3, Z9, Z13        \
	VADDPS       Z13, Z31, Z31      \
	ADDQ         $16, AX            \
	ADDQ         R8, BX

// STEP32 is STEP64 over 32 columns: rows 0..3 in Z16/Z17, Z20/Z21, Z24/Z25
// and Z28/Z29.
#define STEP32 \
	VMOVUPS      (BX), Z0           \
	VMOVUPS      64(BX), Z1         \
	VBROADCASTSS (AX), Z4           \
	VMULPS       Z0, Z4, Z5         \
	VADDPS       Z5, Z16, Z16       \
	VMULPS       Z1, Z4, Z6         \
	VADDPS       Z6, Z17, Z17       \
	VBROADCASTSS 4(AX), Z9          \
	VMULPS       Z0, Z9, Z10        \
	VADDPS       Z10, Z20, Z20      \
	VMULPS       Z1, Z9, Z11        \
	VADDPS       Z11, Z21, Z21      \
	VBROADCASTSS 8(AX), Z4          \
	VMULPS       Z0, Z4, Z7         \
	VADDPS       Z7, Z24, Z24       \
	VMULPS       Z1, Z4, Z8         \
	VADDPS       Z8, Z25, Z25       \
	VBROADCASTSS 12(AX), Z9         \
	VMULPS       Z0, Z9, Z12        \
	VADDPS       Z12, Z28, Z28      \
	VMULPS       Z1, Z9, Z13        \
	VADDPS       Z13, Z29, Z29      \
	ADDQ         $16, AX            \
	ADDQ         R8, BX

// func mulAdd4x64(c, p, b *float32, ldn, kb, width int)
TEXT ·mulAdd4x64(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ ldn+24(FP), R8
	SHLQ $2, R8             // row stride in bytes
	MOVQ kb+32(FP), R9
	MOVQ width+40(FP), R10
	LEAQ (DI)(R8*2), R11    // row 2 of c
	CMPQ R10, $64
	JLT  half

strip64:
	VMOVUPS (DI), Z16
	VMOVUPS 64(DI), Z17
	VMOVUPS 128(DI), Z18
	VMOVUPS 192(DI), Z19
	VMOVUPS (DI)(R8*1), Z20
	VMOVUPS 64(DI)(R8*1), Z21
	VMOVUPS 128(DI)(R8*1), Z22
	VMOVUPS 192(DI)(R8*1), Z23
	VMOVUPS (R11), Z24
	VMOVUPS 64(R11), Z25
	VMOVUPS 128(R11), Z26
	VMOVUPS 192(R11), Z27
	VMOVUPS (R11)(R8*1), Z28
	VMOVUPS 64(R11)(R8*1), Z29
	VMOVUPS 128(R11)(R8*1), Z30
	VMOVUPS 192(R11)(R8*1), Z31
	MOVQ    SI, AX
	MOVQ    DX, BX
	MOVQ    R9, CX

ksteps64:
	STEP64
	DECQ CX
	JNZ  ksteps64

	VMOVUPS Z16, (DI)
	VMOVUPS Z17, 64(DI)
	VMOVUPS Z18, 128(DI)
	VMOVUPS Z19, 192(DI)
	VMOVUPS Z20, (DI)(R8*1)
	VMOVUPS Z21, 64(DI)(R8*1)
	VMOVUPS Z22, 128(DI)(R8*1)
	VMOVUPS Z23, 192(DI)(R8*1)
	VMOVUPS Z24, (R11)
	VMOVUPS Z25, 64(R11)
	VMOVUPS Z26, 128(R11)
	VMOVUPS Z27, 192(R11)
	VMOVUPS Z28, (R11)(R8*1)
	VMOVUPS Z29, 64(R11)(R8*1)
	VMOVUPS Z30, 128(R11)(R8*1)
	VMOVUPS Z31, 192(R11)(R8*1)
	ADDQ    $256, DI
	ADDQ    $256, R11
	ADDQ    $256, DX
	SUBQ    $64, R10
	CMPQ    R10, $64
	JGE     strip64
	TESTQ   R10, R10
	JZ      done

half:
	// The last 32 columns.
	VMOVUPS (DI), Z16
	VMOVUPS 64(DI), Z17
	VMOVUPS (DI)(R8*1), Z20
	VMOVUPS 64(DI)(R8*1), Z21
	VMOVUPS (R11), Z24
	VMOVUPS 64(R11), Z25
	VMOVUPS (R11)(R8*1), Z28
	VMOVUPS 64(R11)(R8*1), Z29
	MOVQ    SI, AX
	MOVQ    DX, BX
	MOVQ    R9, CX

ksteps32:
	STEP32
	DECQ CX
	JNZ  ksteps32

	VMOVUPS Z16, (DI)
	VMOVUPS Z17, 64(DI)
	VMOVUPS Z20, (DI)(R8*1)
	VMOVUPS Z21, 64(DI)(R8*1)
	VMOVUPS Z24, (R11)
	VMOVUPS Z25, 64(R11)
	VMOVUPS Z28, (R11)(R8*1)
	VMOVUPS Z29, 64(R11)(R8*1)

done:
	VZEROUPPER
	RET
