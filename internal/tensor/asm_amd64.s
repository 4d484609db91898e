//go:build !apan_noasm

#include "textflag.h"

// func cpuHasAvx2() bool
//
// CPUID feature probe for the AVX2 kernels: OSXSAVE (leaf 1 ECX bit 27),
// OS-enabled XMM+YMM state (XGETBV XCR0 bits 1–2), and AVX2 (leaf 7 EBX
// bit 5).
TEXT ·cpuHasAvx2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<27), CX // OSXSAVE
	JZ   no
	XORL CX, CX
	XGETBV
	ANDL $6, AX        // XCR0: XMM and YMM state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX  // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// gemmLaneMask: eight all-ones lanes then eight zero lanes. The 32 bytes
// starting 4·(8−r) bytes in are a VMASKMOVPS mask for the first r lanes.
DATA gemmLaneMask<>+0(SB)/8, $0xffffffffffffffff
DATA gemmLaneMask<>+8(SB)/8, $0xffffffffffffffff
DATA gemmLaneMask<>+16(SB)/8, $0xffffffffffffffff
DATA gemmLaneMask<>+24(SB)/8, $0xffffffffffffffff
DATA gemmLaneMask<>+32(SB)/8, $0
DATA gemmLaneMask<>+40(SB)/8, $0
DATA gemmLaneMask<>+48(SB)/8, $0
DATA gemmLaneMask<>+56(SB)/8, $0
GLOBL gemmLaneMask<>(SB), RODATA|NOPTR, $64

// MAC4 is one 4-block step of the contract for eight columns at byte offset
// off of the tile: acc += ((a0·b0 + a1·b1) + a2·b2) + a3·b3, each product and
// each sum rounded on its own. t and u are scratch.
#define MAC4(off, acc, t, u) \
	VMULPS off(R11), Y0, t \
	VMULPS off(CX), Y1, u  \
	VADDPS u, t, t         \
	VMULPS off(R12), Y2, u \
	VADDPS u, t, t         \
	VMULPS off(R8), Y3, u  \
	VADDPS u, t, t         \
	VADDPS t, acc, acc

// func gemmAccAsm(dst, a, b []float32, m, k, n int)
//
// dst[m×n] += a[m×k] · b[k×n], row-major contiguous, in exactly the
// operation order of matMulAccKernel (kernels.go). That order is per output
// element and the Go loop's inner statement is independent across j, so
// running it eight lanes wide with separate VMULPS/VADDPS in the same
// association order — never an FMA, which would skip the product's rounding
// — gives each lane the bits the Go loop gives that j. A 4-block of an a row
// is skipped when all four coefficients compare == 0, i.e. when their OR has
// no bit set below the sign bit.
//
// Tiling is free under the contract and is where the speed comes from:
// columns are taken 32 at a time, the four dst vectors of a row's tile stay
// in registers for the whole k loop, and all m rows finish a tile before the
// next begins, so the k×32 panel of b they share (22 KB at k = 172) is read
// from L1. Columns past the last full tile go eight at a time under a lane
// mask; masked-off lanes compute on zeros and are never stored.
//
// Register map:
//   R10 byte offset of the tile's first column    R13 row stride (n·4)
//   DI dst row at the tile    SI a row, advancing    BX rows left
//   R11/CX/R12/R8 b rows k..k+3 at the tile    DX k-blocks (then k%4) left
//   R9 k    AX scratch    Y0–Y3 a0..a3    Y8–Y11 dst tile    Y15 lane mask
TEXT ·gemmAccAsm(SB), NOSPLIT, $0-96
	MOVQ m+72(FP), AX
	TESTQ AX, AX
	JLE  done
	MOVQ n+88(FP), R13
	TESTQ R13, R13
	JLE  done
	SHLQ $2, R13
	MOVQ k+80(FP), R9
	XORQ R10, R10

tile32:
	LEAQ 128(R10), AX
	CMPQ AX, R13
	JGT  tile8             // fewer than 32 columns left
	MOVQ dst_base+0(FP), DI
	ADDQ R10, DI
	MOVQ a_base+24(FP), SI
	MOVQ m+72(FP), BX

row32:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VMOVUPS 64(DI), Y10
	VMOVUPS 96(DI), Y11
	MOVQ b_base+48(FP), R11
	ADDQ R10, R11
	MOVQ R9, DX
	SHRQ $2, DX
	JZ   ktail32

kblock32:
	MOVL (SI), AX
	ORL  4(SI), AX
	ORL  8(SI), AX
	ORL  12(SI), AX
	TESTL $0x7fffffff, AX
	JZ   knext32           // all four coefficients are ±0
	VBROADCASTSS (SI), Y0
	VBROADCASTSS 4(SI), Y1
	VBROADCASTSS 8(SI), Y2
	VBROADCASTSS 12(SI), Y3
	LEAQ (R11)(R13*1), CX
	LEAQ (R11)(R13*2), R12
	LEAQ (CX)(R13*2), R8
	MAC4(0, Y8, Y4, Y5)
	MAC4(32, Y9, Y6, Y7)
	MAC4(64, Y10, Y12, Y13)
	MAC4(96, Y11, Y14, Y5)

knext32:
	ADDQ $16, SI
	LEAQ (R11)(R13*4), R11
	DECQ DX
	JNZ  kblock32

ktail32:
	MOVQ R9, DX
	ANDQ $3, DX
	JZ   store32

ktailrow32:
	TESTL $0x7fffffff, (SI)
	JZ   ktnext32
	VBROADCASTSS (SI), Y0
	VMULPS (R11), Y0, Y4
	VADDPS Y4, Y8, Y8
	VMULPS 32(R11), Y0, Y5
	VADDPS Y5, Y9, Y9
	VMULPS 64(R11), Y0, Y6
	VADDPS Y6, Y10, Y10
	VMULPS 96(R11), Y0, Y7
	VADDPS Y7, Y11, Y11

ktnext32:
	ADDQ $4, SI
	ADDQ R13, R11
	DECQ DX
	JNZ  ktailrow32

store32:
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, 64(DI)
	VMOVUPS Y11, 96(DI)
	ADDQ R13, DI
	DECQ BX
	JNZ  row32
	ADDQ $128, R10
	JMP  tile32

tile8:
	MOVQ R13, AX
	SUBQ R10, AX           // bytes of columns left
	JLE  done
	CMPQ AX, $32
	JLE  mask8
	MOVQ $32, AX

mask8:
	LEAQ gemmLaneMask<>(SB), CX
	NEGQ AX
	VMOVDQU 32(CX)(AX*1), Y15
	MOVQ dst_base+0(FP), DI
	ADDQ R10, DI
	MOVQ a_base+24(FP), SI
	MOVQ m+72(FP), BX

row8:
	VMASKMOVPS (DI), Y15, Y8
	MOVQ b_base+48(FP), R11
	ADDQ R10, R11
	MOVQ R9, DX
	SHRQ $2, DX
	JZ   ktail8

kblock8:
	MOVL (SI), AX
	ORL  4(SI), AX
	ORL  8(SI), AX
	ORL  12(SI), AX
	TESTL $0x7fffffff, AX
	JZ   knext8
	VBROADCASTSS (SI), Y0
	VBROADCASTSS 4(SI), Y1
	VBROADCASTSS 8(SI), Y2
	VBROADCASTSS 12(SI), Y3
	LEAQ (R11)(R13*1), CX
	LEAQ (R11)(R13*2), R12
	LEAQ (CX)(R13*2), R8
	VMASKMOVPS (R11), Y15, Y4
	VMASKMOVPS (CX), Y15, Y5
	VMASKMOVPS (R12), Y15, Y6
	VMASKMOVPS (R8), Y15, Y7
	VMULPS Y4, Y0, Y4
	VMULPS Y5, Y1, Y5
	VADDPS Y5, Y4, Y4
	VMULPS Y6, Y2, Y6
	VADDPS Y6, Y4, Y4
	VMULPS Y7, Y3, Y7
	VADDPS Y7, Y4, Y4
	VADDPS Y4, Y8, Y8

knext8:
	ADDQ $16, SI
	LEAQ (R11)(R13*4), R11
	DECQ DX
	JNZ  kblock8

ktail8:
	MOVQ R9, DX
	ANDQ $3, DX
	JZ   store8

ktailrow8:
	TESTL $0x7fffffff, (SI)
	JZ   ktnext8
	VBROADCASTSS (SI), Y0
	VMASKMOVPS (R11), Y15, Y4
	VMULPS Y4, Y0, Y4
	VADDPS Y4, Y8, Y8

ktnext8:
	ADDQ $4, SI
	ADDQ R13, R11
	DECQ DX
	JNZ  ktailrow8

store8:
	VMASKMOVPS Y8, Y15, (DI)
	ADDQ R13, DI
	DECQ BX
	JNZ  row8
	ADDQ $32, R10
	JMP  tile8

done:
	VZEROUPPER
	RET

// func axpyAsm(y, x []float32, s float32)
//
// y[i] += s·x[i] for i < len(y) (the caller checked len(x)), with the product
// and the sum rounded on their own — separate VMULPS/VADDPS, never an FMA —
// so every lane holds the bits axpyKernel (matrix.go) gives that i. The sum
// keeps y as its first operand, as the Go statement does. Eight lanes a
// step, the last len%8 under a gemmLaneMask mask: masked-off lanes compute
// on zeros and are never stored.
//
// Register map: DI y    SI x    CX elements left    Y0 s in every lane
TEXT ·axpyAsm(SB), NOSPLIT, $0-52
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSS s+48(FP), Y0

axpy32:
	CMPQ CX, $32
	JLT  axpy8
	VMULPS (SI), Y0, Y1
	VMULPS 32(SI), Y0, Y2
	VMULPS 64(SI), Y0, Y3
	VMULPS 96(SI), Y0, Y4
	VMOVUPS (DI), Y5
	VMOVUPS 32(DI), Y6
	VMOVUPS 64(DI), Y7
	VMOVUPS 96(DI), Y8
	VADDPS Y1, Y5, Y5
	VADDPS Y2, Y6, Y6
	VADDPS Y3, Y7, Y7
	VADDPS Y4, Y8, Y8
	VMOVUPS Y5, (DI)
	VMOVUPS Y6, 32(DI)
	VMOVUPS Y7, 64(DI)
	VMOVUPS Y8, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  axpy32

axpy8:
	CMPQ CX, $8
	JLT  axpytail
	VMULPS (SI), Y0, Y1
	VMOVUPS (DI), Y5
	VADDPS Y1, Y5, Y5
	VMOVUPS Y5, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  axpy8

axpytail:
	TESTQ CX, CX
	JZ   axpydone
	SHLQ $2, CX
	NEGQ CX
	LEAQ gemmLaneMask<>(SB), AX
	VMOVDQU 32(AX)(CX*1), Y15
	VMASKMOVPS (SI), Y15, Y1
	VMASKMOVPS (DI), Y15, Y5
	VMULPS Y1, Y0, Y1
	VADDPS Y1, Y5, Y5
	VMASKMOVPS Y5, Y15, (DI)

axpydone:
	VZEROUPPER
	RET
