#include "textflag.h"

// func accumulateAVX(out, c []float64, rows [][]float64, nz []int32)
//
// Each block of outputs is loaded from out, takes the rows' products in
// nz order and is stored back: out[j] += c[i]·rows[i][j] for i in nz.
//
// Register use: DI out, CX len(out), SI c, DX rows (24-byte slice
// headers), R8 nz, R9 len(nz), BX the first output column of the
// current block, R10 the position in nz, R11 the row index i (then 3i),
// R12 &rows[i][BX]. Y0-Y3 hold the block's outputs, one per lane, Y4
// the broadcast coefficient c[i], Y5-Y8 the products.
TEXT ·accumulateAVX(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ c_base+24(FP), SI
	MOVQ rows_base+48(FP), DX
	MOVQ nz_base+72(FP), R8
	MOVQ nz_len+80(FP), R9
	XORQ BX, BX

block16:
	MOVQ CX, AX
	SUBQ BX, AX
	CMPQ AX, $16
	JLT  block4
	VMOVUPD (DI)(BX*8), Y0
	VMOVUPD 32(DI)(BX*8), Y1
	VMOVUPD 64(DI)(BX*8), Y2
	VMOVUPD 96(DI)(BX*8), Y3
	XORQ    R10, R10

row16:
	CMPQ         R10, R9
	JGE          store16
	MOVLQSX      (R8)(R10*4), R11
	VBROADCASTSD (SI)(R11*8), Y4
	LEAQ         (R11)(R11*2), R11
	MOVQ         (DX)(R11*8), R12
	LEAQ         (R12)(BX*8), R12
	VMULPD       (R12), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R12), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R12), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R12), Y4, Y8
	VADDPD       Y8, Y3, Y3
	INCQ         R10
	JMP          row16

store16:
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	ADDQ    $16, BX
	JMP     block16

block4:
	MOVQ    CX, AX
	SUBQ    BX, AX
	CMPQ    AX, $4
	JLT     block1
	VMOVUPD (DI)(BX*8), Y0
	XORQ    R10, R10

row4:
	CMPQ         R10, R9
	JGE          store4
	MOVLQSX      (R8)(R10*4), R11
	VBROADCASTSD (SI)(R11*8), Y4
	LEAQ         (R11)(R11*2), R11
	MOVQ         (DX)(R11*8), R12
	VMULPD       (R12)(BX*8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	INCQ         R10
	JMP          row4

store4:
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     block4

block1:
	CMPQ   BX, CX
	JGE    done
	VMOVSD (DI)(BX*8), X0
	XORQ   R10, R10

row1:
	CMPQ    R10, R9
	JGE     store1
	MOVLQSX (R8)(R10*4), R11
	VMOVSD  (SI)(R11*8), X4
	LEAQ    (R11)(R11*2), R11
	MOVQ    (DX)(R11*8), R12
	VMULSD  (R12)(BX*8), X4, X5
	VADDSD  X5, X0, X0
	INCQ    R10
	JMP     row1

store1:
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    block1

done:
	VZEROUPPER
	RET

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
