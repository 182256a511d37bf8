package phasor

// The batched scans run several trials that share their frequencies, dt,
// n and t0 = 0, with trial t's coefficients at coeffs[t·N:(t+1)·N] for N
// carriers. Each result has exactly the bits the per-trial scan gives for
// its trial.
//
// On amd64 CPUs with AVX, trials of 2 to maxLaneCarriers carriers run
// lanes at a time in the lane kernel (lanes_amd64.s), one trial per
// 64-bit lane, where a single trial's scan at that width waits on its
// rotation chains. A last group of fewer than lanes trials is padded and
// the extra lanes discarded. Every other case — one carrier, more than
// maxLaneCarriers, another architecture or a CPU without AVX — loops over
// the per-trial scans.

// lanes is how many trials one pass of the lane kernel scans: one per
// 64-bit lane of a YMM register.
const lanes = 4

// maxLaneCarriers is the widest trial the lane kernel scans: two
// registers per carrier, twelve of the sixteen, leave four for the sums,
// the power and the counters.
const maxLaneCarriers = 6

// takesLanes reports whether trials of the given number of carriers run
// the lane kernel.
func takesLanes(carriers int) bool {
	return useAVX && carriers >= 2 && carriers <= maxLaneCarriers
}

// PeakPowers sets peaks[t] to PeakPower(freqs, trial t's coefficients,
// 0, dt, n) for every trial t < len(peaks). coeffs must hold
// len(peaks)·len(freqs) coefficients; a batch panics otherwise because a
// mismatch is always a programming error.
//
//ivn:unit freqs Hz
//ivn:unit dt s
//ivn:hotpath
func PeakPowers(freqs []float64, coeffs []complex128, dt float64, n int, peaks []float64) {
	peakPowersArg(freqs, coeffs, dt, n, peaks, nil)
}

// peakPowersArg is PeakPowers that also sets args[t], when args is not
// nil, to the first index of trial t's maximum, as peakPowerArg gives it.
//
//ivn:unit freqs Hz
//ivn:unit dt s
func peakPowersArg(freqs []float64, coeffs []complex128, dt float64, n int, peaks []float64, args []int) {
	nc := batchCarriers(freqs, coeffs, len(peaks))
	inLanes := n > 0 && takesLanes(nc)
	for t := 0; t < len(peaks); t += lanes {
		g := min(lanes, len(peaks)-t)
		group := coeffs[t*nc : (t+g)*nc]
		var best [lanes]float64
		var arg [lanes]int
		if inLanes {
			peakLanes(freqs, group, dt, n, &best, &arg)
		} else {
			for j := range g {
				best[j], arg[j] = peakPowerArg(freqs, group[j*nc:(j+1)*nc], 0, dt, n)
			}
		}
		copy(peaks[t:t+g], best[:g])
		if args != nil {
			copy(args[t:t+g], arg[:g])
		}
	}
}

// LongestRunsAbove sets runs[t] to LongestRunAbove(freqs, trial t's
// coefficients, 0, dt, n, level) for every trial t < len(runs). coeffs
// must hold len(runs)·len(freqs) coefficients, as for PeakPowers. A
// level outside dwellBand's range takes the per-trial scans.
//
//ivn:unit freqs Hz
//ivn:unit dt s
//ivn:hotpath
func LongestRunsAbove(freqs []float64, coeffs []complex128, dt float64, n int, level float64, runs []int) {
	nc := batchCarriers(freqs, coeffs, len(runs))
	inLanes := n > 0 && takesLanes(nc) && bandDecides(level)
	for t := 0; t < len(runs); t += lanes {
		g := min(lanes, len(runs)-t)
		group := coeffs[t*nc : (t+g)*nc]
		if inLanes {
			var r [lanes]int
			dwellLanes(freqs, group, dt, n, level, &r)
			copy(runs[t:t+g], r[:g])
			continue
		}
		for j := range g {
			runs[t+j] = LongestRunAbove(freqs, group[j*nc:(j+1)*nc], 0, dt, n, level)
		}
	}
}

// batchCarriers returns the carriers per trial of a batch of the given
// number of trials, and panics when coeffs does not hold them all.
func batchCarriers(freqs []float64, coeffs []complex128, trials int) int {
	if len(coeffs) != trials*len(freqs) {
		panic("phasor: coeffs do not hold one coefficient per carrier and trial")
	}
	return len(freqs)
}
