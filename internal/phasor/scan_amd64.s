#include "textflag.h"

// The AVX scan kernel. scanBlockAVX runs samples [k0, k1) of one scan of
// 2–10 carriers with every running phasor in a register: carriers 2j and
// 2j+1 share Yj as (re, im, re′, im′), and an odd last carrier sits alone
// in the low half of its register. AX points at the avxState: the phasor
// rows at 0–159, then one 64-byte rotation row per register, (r, r, r′, r′)
// at +0 and (i, i, i′, i′) at +32, read as memory operands.
//
// Per sample the kernel reproduces the Go kernels' operations exactly:
//   - X8 starts from the partial sum (re[k], im[k]) in SUM and from +0 in
//     PEAK and POWER (the Go kernels load it from a cleared pair), and
//     gets each carrier added in ascending order, one rounded 128-bit add
//     per carrier (no zero carrier is ever added: +0 would turn a −0
//     partial sum into +0);
//   - the mode stores the sum (SUM), keeps the power maximum and its first
//     index (PEAK), or stores the power into re[k] and keeps its maximum
//     (POWER); the power is x·x + y·y, two rounded products and one add;
//   - each phasor c advances by its rotation r: VADDSUBPD of c·(r, r) and
//     swap(c)·(i, i) gives cr·rr − ci·ri and ci·rr + cr·ri, the Go
//     kernels' two rounded products and one rounded subtract or
//     (commuted) add. No fused multiply-add may appear in this file.
// Renormalization runs in Go between blocks; every call ends with
// VZEROUPPER.

// ADDPAIR adds the two carriers of register Y (low half X) into X8.
#define ADDPAIR(Y, X) \
	VADDPD X, X8, X8; \
	VEXTRACTF128 $1, Y, X9; \
	VADDPD X9, X8, X8

// ADDODD adds the odd last carrier, held in X, into X8.
#define ADDODD(X) \
	VADDPD X, X8, X8

// ROTPAIR advances both carriers of Y by the rotation row at R (its
// (i, i, i′, i′) half at I).
#define ROTPAIR(Y, R, I) \
	VPERMILPD $5, Y, Y9; \
	VMULPD I(AX), Y9, Y9; \
	VMULPD R(AX), Y, Y10; \
	VADDSUBPD Y9, Y10, Y

// ROTODD advances the odd last carrier held in X.
#define ROTODD(X, R, I) \
	VPERMILPD $1, X, X9; \
	VMULPD I(AX), X9, X9; \
	VMULPD R(AX), X, X10; \
	VADDSUBPD X9, X10, X

#define SUMS2 ADDPAIR(Y0, X0)
#define SUMS3 SUMS2; ADDODD(X1)
#define SUMS4 SUMS2; ADDPAIR(Y1, X1)
#define SUMS5 SUMS4; ADDODD(X2)
#define SUMS6 SUMS4; ADDPAIR(Y2, X2)
#define SUMS7 SUMS6; ADDODD(X3)
#define SUMS8 SUMS6; ADDPAIR(Y3, X3)
#define SUMS9 SUMS8; ADDODD(X4)
#define SUMS10 SUMS8; ADDPAIR(Y4, X4)

#define ROTS2 ROTPAIR(Y0, 160, 192)
#define ROTS3 ROTS2; ROTODD(X1, 224, 256)
#define ROTS4 ROTS2; ROTPAIR(Y1, 224, 256)
#define ROTS5 ROTS4; ROTODD(X2, 288, 320)
#define ROTS6 ROTS4; ROTPAIR(Y2, 288, 320)
#define ROTS7 ROTS6; ROTODD(X3, 352, 384)
#define ROTS8 ROTS6; ROTPAIR(Y3, 352, 384)
#define ROTS9 ROTS8; ROTODD(X4, 416, 448)
#define ROTS10 ROTS8; ROTPAIR(Y4, 416, 448)

// POWERSQ leaves x·x + y·y of X8 = (x, y) in the low half of X11.
#define POWERSQ \
	VMULPD X8, X8, X11; \
	VPERMILPD $1, X11, X10; \
	VADDSD X10, X11, X11

// The modes. X12 is the running maximum and R9 its index; a power
// replaces it only when strictly greater (a NaN never does), so the first
// index wins a tie.
#define SUM(skip) \
	VMOVSD X8, (SI)(BX*8); \
	VMOVHPD X8, (DI)(BX*8)

#define PEAK(skip) \
	POWERSQ; \
	VUCOMISD X12, X11; \
	JLS skip; \
	VMOVAPD X11, X12; \
	MOVQ BX, R9; \
skip:

#define POWER(skip) \
	POWERSQ; \
	VMOVSD X11, (SI)(BX*8); \
	VUCOMISD X12, X11; \
	JLS skip; \
	VMOVAPD X11, X12; \
	MOVQ BX, R9; \
skip:

// LOADSUM loads the partial sum (re[k], im[k]) into X8; ZEROSUM clears
// it.
#define LOADSUM \
	VMOVSD (SI)(BX*8), X8; \
	VMOVHPD (DI)(BX*8), X8, X8

#define ZEROSUM \
	VXORPD X8, X8, X8

// LOOP is one sample loop over BX in [BX, CX): start the sum, add the
// carriers, apply the mode, advance the phasors.
#define LOOP(loop, skip, START, SUMS, MODE, ROTS) \
loop: \
	START; \
	SUMS; \
	MODE(skip); \
	ROTS; \
	INCQ BX; \
	CMPQ BX, CX; \
	JLT loop; \
	JMP done

// CARRIERS dispatches one carrier count on the mode in R10.
#define CARRIERS(SUMS, ROTS, sum, peak, peakSkip, power, powerSkip) \
	CMPQ R10, $1; \
	JEQ peak; \
	JGT power; \
	LOOP(sum, sum, LOADSUM, SUMS, SUM, ROTS); \
	LOOP(peak, peakSkip, ZEROSUM, SUMS, PEAK, ROTS); \
	LOOP(power, powerSkip, ZEROSUM, SUMS, POWER, ROTS)

// func scanBlockAVX(st *avxState, carriers, mode int, re, im []float64, k0, k1 int, best float64, arg int) (float64, int)
TEXT ·scanBlockAVX(SB), NOSPLIT, $0-120
	MOVQ st+0(FP), AX
	MOVQ carriers+8(FP), DX
	MOVQ mode+16(FP), R10
	MOVQ re_base+24(FP), SI
	MOVQ im_base+48(FP), DI
	MOVQ k0+72(FP), BX
	MOVQ k1+80(FP), CX
	VMOVSD best+88(FP), X12
	MOVQ arg+96(FP), R9
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	CMPQ BX, CX
	JGE done
	CMPQ DX, $2
	JEQ n2
	CMPQ DX, $3
	JEQ n3
	CMPQ DX, $4
	JEQ n4
	CMPQ DX, $5
	JEQ n5
	CMPQ DX, $6
	JEQ n6
	CMPQ DX, $7
	JEQ n7
	CMPQ DX, $8
	JEQ n8
	CMPQ DX, $9
	JEQ n9
	CMPQ DX, $10
	JEQ n10
	JMP done

n2:
	CARRIERS(SUMS2, ROTS2, n2sum, n2peak, n2peakSkip, n2power, n2powerSkip)
n3:
	CARRIERS(SUMS3, ROTS3, n3sum, n3peak, n3peakSkip, n3power, n3powerSkip)
n4:
	CARRIERS(SUMS4, ROTS4, n4sum, n4peak, n4peakSkip, n4power, n4powerSkip)
n5:
	CARRIERS(SUMS5, ROTS5, n5sum, n5peak, n5peakSkip, n5power, n5powerSkip)
n6:
	CARRIERS(SUMS6, ROTS6, n6sum, n6peak, n6peakSkip, n6power, n6powerSkip)
n7:
	CARRIERS(SUMS7, ROTS7, n7sum, n7peak, n7peakSkip, n7power, n7powerSkip)
n8:
	CARRIERS(SUMS8, ROTS8, n8sum, n8peak, n8peakSkip, n8power, n8powerSkip)
n9:
	CARRIERS(SUMS9, ROTS9, n9sum, n9peak, n9peakSkip, n9power, n9powerSkip)
n10:
	CARRIERS(SUMS10, ROTS10, n10sum, n10peak, n10peakSkip, n10power, n10powerSkip)

done:
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVSD X12, ret+104(FP)
	MOVQ R9, ret1+112(FP)
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
