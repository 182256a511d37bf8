#include "textflag.h"
#include "go_asm.h"

// The AVX lane kernel. lanesBlockAVX runs samples [k0, k1) of four trials
// at once, one trial per 64-bit lane: the trials share their 2–6 carrier
// frequencies, so carrier i of all four sits in two registers, its real
// parts in Y(2i) and its imaginary parts in Y(2i+1). AX points at the
// laneState; each carrier's rotation row (rr×4, ri×4) is read as a
// memory operand. Y12 and Y13 are scratch; Y14 is the dwell mode's run
// (the peak mode's scratch) and Y15 the best value of either mode.
//
// Per sample every lane repeats the Go kernels' operations:
//   - x and y add the carriers in ascending order, starting from carrier 0
//     instead of +0 + carrier 0: the two differ only in the sign of a
//     zero sum, which x²+y² and Hypot(x, y), all that is read, ignore;
//   - the power is x·x + y·y, two rounded products and one add;
//   - each carrier advances by re′ = re·rr − im·ri and
//     im′ = re·ri + im·rr, two VMULPD and one VSUBPD or VADDPD each: the
//     Go kernels' two rounded products and one rounded subtract or add.
//     No permute, and no fused multiply-add may appear in this file.
// Renormalization runs in Go between blocks; every call ends with
// VZEROUPPER.

// SUMSn leaves the n carriers' sums x in Y12 and y in Y13.
#define SUMS2 \
	VADDPD Y2, Y0, Y12; \
	VADDPD Y3, Y1, Y13
#define SUMS3 SUMS2; VADDPD Y4, Y12, Y12; VADDPD Y5, Y13, Y13
#define SUMS4 SUMS3; VADDPD Y6, Y12, Y12; VADDPD Y7, Y13, Y13
#define SUMS5 SUMS4; VADDPD Y8, Y12, Y12; VADDPD Y9, Y13, Y13
#define SUMS6 SUMS5; VADDPD Y10, Y12, Y12; VADDPD Y11, Y13, Y13

// ROT advances the carrier held in RE/IM by the rotation row at byte
// offset off of the rows.
#define ROT(RE, IM, off) \
	VMULPD laneState_rr+off(AX), RE, Y12; \
	VMULPD laneState_ri+off(AX), IM, Y13; \
	VMULPD laneState_ri+off(AX), RE, RE; \
	VMULPD laneState_rr+off(AX), IM, IM; \
	VADDPD IM, RE, IM; \
	VSUBPD Y13, Y12, RE

#define ROTS2 ROT(Y0, Y1, 0); ROT(Y2, Y3, 32)
#define ROTS3 ROTS2; ROT(Y4, Y5, 64)
#define ROTS4 ROTS3; ROT(Y6, Y7, 96)
#define ROTS5 ROTS4; ROT(Y8, Y9, 128)
#define ROTS6 ROTS5; ROT(Y10, Y11, 160)

// POWER turns the sums in Y12/Y13 into the power x·x + y·y in Y12.
#define POWER \
	VMULPD Y12, Y12, Y12; \
	VMULPD Y13, Y13, Y13; \
	VADDPD Y13, Y12, Y12

// PEAK is the peak mode's sample loop over BX in [BX, CX). A power
// replaces its lane's maximum (Y15) only when strictly greater (GT_OQ: a
// NaN never does, and the first index keeps a tie); the rarely taken
// branch blends in the new maxima and their index k.
#define PEAK(SUMS, ROTS, loop, next, record) \
loop: \
	SUMS; \
	POWER; \
	VCMPPD $0x1e, Y15, Y12, Y13; \
	VMOVMSKPD Y13, R11; \
	TESTQ R11, R11; \
	JNZ record; \
next: \
	ROTS; \
	INCQ BX; \
	CMPQ BX, CX; \
	JLT loop; \
	JMP done; \
record: \
	VBLENDVPD Y13, Y12, Y15, Y15; \
	VMOVQ BX, X14; \
	VMOVDDUP X14, X14; \
	VINSERTF128 $1, X14, Y14, Y14; \
	VMOVUPD laneState_arg(AX), Y12; \
	VBLENDVPD Y13, Y14, Y12, Y12; \
	VMOVUPD Y12, laneState_arg(AX); \
	JMP next

// DWELL is the dwell mode's sample loop. A lane is above when its power
// is > hi (GT_OQ) and not above when it is < lo; the kernel returns at a
// sample where some lane is in neither case (in the band, or NaN) or
// falls below for the first time (its watch mask still set), with the
// sample's sums in x and y and BX at the sample. Go decides it and
// re-enters at count with the sample's above mask in Y13. count keeps
// each lane's run (Y14: +1, then cleared unless above) and best run
// (Y15), as float64 counters, exact below 2⁵³.
#define DWELL(SUMS, ROTS, loop, count, exit) \
loop: \
	SUMS; \
	POWER; \
	VCMPPD $0x1e, laneState_hi(AX), Y12, Y13; \
	VCMPPD $0x15, laneState_lo(AX), Y12, Y12; \
	VORPD laneState_watch(AX), Y12, Y12; \
	VANDNPD Y12, Y13, Y12; \
	VMOVMSKPD Y12, R11; \
	TESTQ R11, R11; \
	JNZ exit; \
count: \
	VADDPD laneState_one(AX), Y14, Y14; \
	VANDPD Y13, Y14, Y14; \
	VMAXPD Y14, Y15, Y15; \
	ROTS; \
	INCQ BX; \
	CMPQ BX, CX; \
	JLT loop; \
	JMP done; \
exit: \
	SUMS; \
	VMOVUPD Y12, laneState_x(AX); \
	VMOVUPD Y13, laneState_y(AX); \
	JMP done

// CARRIERS dispatches one carrier count on the mode in R10.
#define CARRIERS(SUMS, ROTS, peak, peakNext, peakRecord, dwell, count, exit) \
	CMPQ R10, $const_lanePeak; \
	JNE dwell; \
	PEAK(SUMS, ROTS, peak, peakNext, peakRecord); \
	DWELL(SUMS, ROTS, dwell, count, exit)

// func lanesBlockAVX(st *laneState, carriers, mode, k0, k1 int) int
TEXT ·lanesBlockAVX(SB), NOSPLIT, $0-48
	MOVQ st+0(FP), AX
	MOVQ carriers+8(FP), DX
	MOVQ mode+16(FP), R10
	MOVQ k0+24(FP), BX
	MOVQ k1+32(FP), CX
	VMOVUPD laneState_re+0(AX), Y0
	VMOVUPD laneState_im+0(AX), Y1
	VMOVUPD laneState_re+32(AX), Y2
	VMOVUPD laneState_im+32(AX), Y3
	VMOVUPD laneState_re+64(AX), Y4
	VMOVUPD laneState_im+64(AX), Y5
	VMOVUPD laneState_re+96(AX), Y6
	VMOVUPD laneState_im+96(AX), Y7
	VMOVUPD laneState_re+128(AX), Y8
	VMOVUPD laneState_im+128(AX), Y9
	VMOVUPD laneState_re+160(AX), Y10
	VMOVUPD laneState_im+160(AX), Y11
	VMOVUPD laneState_run(AX), Y14
	VMOVUPD laneState_best(AX), Y15
	CMPQ R10, $const_laneResume
	JEQ resume
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
	JMP done

resume:
	VMOVUPD laneState_mask(AX), Y13
	CMPQ DX, $2
	JEQ n2count
	CMPQ DX, $3
	JEQ n3count
	CMPQ DX, $4
	JEQ n4count
	CMPQ DX, $5
	JEQ n5count
	CMPQ DX, $6
	JEQ n6count
	JMP done

n2:
	CARRIERS(SUMS2, ROTS2, n2peak, n2peakNext, n2peakRecord, n2dwell, n2count, n2exit)
n3:
	CARRIERS(SUMS3, ROTS3, n3peak, n3peakNext, n3peakRecord, n3dwell, n3count, n3exit)
n4:
	CARRIERS(SUMS4, ROTS4, n4peak, n4peakNext, n4peakRecord, n4dwell, n4count, n4exit)
n5:
	CARRIERS(SUMS5, ROTS5, n5peak, n5peakNext, n5peakRecord, n5dwell, n5count, n5exit)
n6:
	CARRIERS(SUMS6, ROTS6, n6peak, n6peakNext, n6peakRecord, n6dwell, n6count, n6exit)

done:
	VMOVUPD Y0, laneState_re+0(AX)
	VMOVUPD Y1, laneState_im+0(AX)
	VMOVUPD Y2, laneState_re+32(AX)
	VMOVUPD Y3, laneState_im+32(AX)
	VMOVUPD Y4, laneState_re+64(AX)
	VMOVUPD Y5, laneState_im+64(AX)
	VMOVUPD Y6, laneState_re+96(AX)
	VMOVUPD Y7, laneState_im+96(AX)
	VMOVUPD Y8, laneState_re+128(AX)
	VMOVUPD Y9, laneState_im+128(AX)
	VMOVUPD Y10, laneState_re+160(AX)
	VMOVUPD Y11, laneState_im+160(AX)
	VMOVUPD Y14, laneState_run(AX)
	VMOVUPD Y15, laneState_best(AX)
	MOVQ BX, ret+40(FP)
	VZEROUPPER
	RET
