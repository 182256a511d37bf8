//go:build amd64

package phasor

import "math"

// laneState is the lane kernel's image of one group of lanes trials
// (layout in lanes_amd64.s): every carrier's running phasors and its
// rotation as one row per register, lane l holding trial l, and the
// counters the kernel keeps between calls.
type laneState struct {
	re, im [maxLaneCarriers][lanes]float64 // the running phasors
	rr, ri [maxLaneCarriers][lanes]float64 // each carrier's rotation, in every lane
	// run is the dwell mode's current run; best is the peak mode's
	// maximum power or the dwell mode's longest run.
	run, best [lanes]float64
	arg       [lanes]int64 // the peak mode's first index of its maximum
	// watch is all ones in a lane with no sample below the level yet, and
	// mask the above mask Go hands back for the sample the kernel left at.
	watch, mask [lanes]uint64
	x, y        [lanes]float64 // the sums of the sample the kernel left at
	lo, hi, one [lanes]float64 // the dwell band, and 1
}

// The lane kernel's modes.
const (
	lanePeak = iota
	laneDwell
	// laneResume re-enters the dwell mode at the sample it left, with the
	// sample's above mask in laneState.mask.
	laneResume
)

// allOnes is a lane's true mask.
const allOnes = ^uint64(0)

// lanesBlockAVX runs samples [k0, k1) of the group in st, in mode, and
// returns the sample it stopped at: k1, or in the dwell mode a sample Go
// must decide. st's phasors and counters advance in place.
//
//go:noescape
func lanesBlockAVX(st *laneState, carriers, mode, k0, k1 int) int

// start loads the group's phasors and rotations into st and returns each
// carrier's starting magnitude per lane. coeffs holds up to lanes trials
// of len(freqs) coefficients each; a lane past them repeats trial 0, and
// its result is discarded. With t0 = 0, startPhasor's phasor is the
// coefficient itself and its magnitude the coefficient's Hypot, so only
// the rotation comes from it, once per carrier.
//
//ivn:unit freqs Hz
//ivn:unit dt s
func (st *laneState) start(freqs []float64, coeffs []complex128, dt float64) (mag [maxLaneCarriers][lanes]float64) {
	nc := len(freqs)
	for i, f := range freqs {
		_, _, rr, ri, _ := startPhasor(f, 0, 0, dt)
		for l := range lanes {
			c := coeffs[i]
			if j := l*nc + i; j < len(coeffs) {
				c = coeffs[j]
			}
			st.re[i][l], st.im[i][l] = real(c), imag(c)
			st.rr[i][l], st.ri[i][l] = rr, ri
			mag[i][l] = math.Hypot(real(c), imag(c))
		}
	}
	return mag
}

// renormalize rescales every lane's running phasors to their starting
// magnitudes, as the Go kernels do after each block.
func (st *laneState) renormalize(carriers int, mag *[maxLaneCarriers][lanes]float64) {
	for i := range carriers {
		for l := range lanes {
			cr, ci := st.re[i][l], st.im[i][l]
			if m := math.Hypot(cr, ci); m != 0 {
				s := mag[i][l] / m
				st.re[i][l], st.im[i][l] = cr*s, ci*s
			}
		}
	}
}

// peakLanes is PeakPowers' lane path for one group: each lane's power
// maximum and its first index, one assembly call per renormalization
// block.
//
//ivn:unit freqs Hz
//ivn:unit dt s
func peakLanes(freqs []float64, coeffs []complex128, dt float64, n int, best *[lanes]float64, arg *[lanes]int) {
	var st laneState
	mag := st.start(freqs, coeffs, dt)
	for k0 := 0; ; k0 += renormMask + 1 {
		k1 := min(k0+renormMask+1, n)
		//ivn:allow hotpath an assembly block works in registers and st; it allocates nothing
		lanesBlockAVX(&st, len(freqs), lanePeak, k0, k1)
		if k1 == n {
			break
		}
		st.renormalize(len(freqs), &mag)
	}
	for l := range lanes {
		best[l], arg[l] = st.best[l], int(st.arg[l])
	}
}

// dwellLanes is LongestRunsAbove's lane path for one group, for a level
// inside the band's range. The kernel counts the runs; at a sample it
// cannot decide, or a lane's first sample below, it returns, and decide
// takes the sample as LongestRunAbove does before the kernel re-enters.
//
//ivn:unit freqs Hz
//ivn:unit dt s
func dwellLanes(freqs []float64, coeffs []complex128, dt float64, n int, level float64, runs *[lanes]int) {
	var st laneState
	mag := st.start(freqs, coeffs, dt)
	lo, hi := dwellBand(level)
	for l := range lanes {
		st.lo[l], st.hi[l], st.one[l] = lo, hi, 1
		st.watch[l] = allOnes
	}
	var lead [lanes]float64 // the run before each lane's first sample below
	for k0 := 0; ; k0 += renormMask + 1 {
		k1 := min(k0+renormMask+1, n)
		for k, mode := k0, laneDwell; ; mode = laneResume {
			//ivn:allow hotpath an assembly block works in registers and st; it allocates nothing
			if k = lanesBlockAVX(&st, len(freqs), mode, k, k1); k == k1 {
				break
			}
			st.decide(level, lo, hi, &lead)
		}
		if k1 == n {
			break
		}
		st.renormalize(len(freqs), &mag)
	}
	for l := range lanes {
		if st.watch[l] != 0 {
			runs[l] = n // no sample fell below
			continue
		}
		runs[l] = max(int(st.best[l]), int(st.run[l])+int(lead[l])) // the closing run wraps into the leading one
	}
}

// decide takes the sample the kernel left at in every lane, as
// LongestRunAbove takes a sample, and leaves its above mask in st.mask.
// A lane's first sample below records the run before it as its leading
// run.
func (st *laneState) decide(level, lo, hi float64, lead *[lanes]float64) {
	for l := range lanes {
		x, y := st.x[l], st.y[l]
		if p := float64(x*x) + float64(y*y); p > hi || !(p < lo) && math.Hypot(x, y) > level {
			st.mask[l] = allOnes
			continue
		}
		st.mask[l] = 0
		if st.watch[l] != 0 {
			lead[l], st.watch[l] = st.run[l], 0
		}
	}
}
