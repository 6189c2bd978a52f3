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
