//go:build amd64

package phasor

import "math"

// useAVX selects the AVX kernel for scans of 2–maxAVXCarriers carriers:
// set once at start-up when the CPU and the operating system support it.
var useAVX = avxSupported()

// avxSupported reports whether AVX instructions may run: CPUID must report
// AVX and OSXSAVE, and XGETBV must show the XMM and YMM register state
// enabled by the operating system. The kernel uses AVX1 instructions only.
func avxSupported() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMM = 1<<1 | 1<<2
	return xgetbv0()&xmmYMM == xmmYMM
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low half of extended control register 0.
func xgetbv0() uint32

// avxState is the AVX kernel's image of a scan (layout in scan_amd64.s):
// the running phasors as (re, im) pairs, two carriers to a 32-byte row,
// and each row's rotation as (r, r, r′, r′) then (i, i, i′, i′).
type avxState struct {
	cur [2 * maxAVXCarriers]float64
	rot [maxAVXCarriers / 2][2][4]float64
}

// scanBlockAVX runs samples [k0, k1) of a scan of carriers phasors held
// in st, in mode, starting from the running maximum best at arg, and
// returns the maximum and its index. st's phasors advance in place.
//
//go:noescape
func scanBlockAVX(st *avxState, carriers, mode int, re, im []float64, k0, k1 int, best float64, arg int) (float64, int)

// scanAVX is scan's AVX path: every carrier in one pass over the n
// samples, one assembly call per renormalization block of renormMask+1
// samples, with the renormalization between blocks done in Go exactly as
// the Go kernels do it. Only scanSum reads re/im; scanPeak touches
// neither and scanPower writes re.
//
//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
func scanAVX(freqs []float64, coeffs []complex128, t0, dt float64, n int, re, im []float64, mode int) (best float64, arg int) {
	switch mode {
	case scanSum:
		re, im = re[:n], im[:n]
	case scanPower:
		re = re[:n]
	}
	var st avxState
	var mag [maxAVXCarriers]float64
	for i := range freqs {
		cr, ci, rr, ri, m := startPhasor(freqs[i], coeffs[i], t0, dt)
		st.cur[2*i], st.cur[2*i+1] = cr, ci
		row, h := &st.rot[i/2], 2*(i%2)
		row[0][h], row[0][h+1] = rr, rr
		row[1][h], row[1][h+1] = ri, ri
		mag[i] = m
	}
	for k0 := 0; ; k0 += renormMask + 1 {
		k1 := min(k0+renormMask+1, n)
		//ivn:allow hotpath an assembly block works in registers, st and the caller's re/im; it allocates nothing
		best, arg = scanBlockAVX(&st, len(freqs), mode, re, im, k0, k1, best, arg)
		if k1 == n {
			return best, arg
		}
		for i, m0 := range mag[:len(freqs)] {
			cr, ci := st.cur[2*i], st.cur[2*i+1]
			if m := math.Hypot(cr, ci); m != 0 {
				s := m0 / m
				st.cur[2*i], st.cur[2*i+1] = cr*s, ci*s
			}
		}
	}
}
