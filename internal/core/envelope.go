// Package core implements IVN's contribution: coherently-incoherent
// beamforming (CIB).
//
// CIB transmits the same command synchronously from N antennas (coherent
// communication) on N slightly different carrier frequencies (incoherent
// channel). The frequency offsets make the superposed envelope at any
// point in space sweep through constructive alignments over time, so the
// peak received amplitude approaches N× a single antenna — without any
// channel knowledge — and a battery-free sensor can harvest at the peaks
// even when the average power is below its threshold.
//
// This package provides the envelope mathematics (paper Eq. 5), the
// peak-power objective (Eq. 6), the query-flatness constraint (Eqs. 7–9),
// the constrained Monte-Carlo frequency optimizer (Eq. 10), the CIB
// transmitter built on internal/radio, and the §3.7 extensions (two-stage
// conduction-angle optimization, center-frequency hopping, multi-sensor
// Select addressing).
package core

import (
	"fmt"
	"math"

	"ivn/internal/phasor"
	"ivn/internal/rng"
)

// stackCarriers sizes the stack arrays that hold a plan's per-carrier
// phases and phasors. Every plan the program builds fits (the largest
// has 10 carriers); a larger one spills to the heap through append.
const stackCarriers = 16

// trialGroup is how many Monte-Carlo trials the estimators below draw
// before they scan them in one batched call: the width of phasor's lane
// kernel, which scans that many trials per pass.
const trialGroup = 4

// Envelope evaluates Y(t) = |Σᵢ e^{j(2πΔfᵢt + βᵢ)}| (paper Eq. 5, after
// factoring out the common carrier). offsets and betas must have equal
// length; Envelope panics otherwise because the mismatch is always a
// programming error.
//
// Envelope is the naive (one Sincos per carrier) evaluation and serves as
// the golden reference for the phasor-recurrence series kernels below.
//
//ivn:hotpath
func Envelope(offsets, betas []float64, t float64) float64 {
	if len(offsets) != len(betas) {
		panic("core: offsets/betas length mismatch")
	}
	var re, im float64
	for i, df := range offsets {
		s, c := math.Sincos(2*math.Pi*df*t + betas[i])
		re += c
		im += s
	}
	return math.Hypot(re, im)
}

// phaseCoeffs appends the unit phasors e^{jβᵢ} to dst and returns it.
// Callers pass a slice of a stack array of their own with room for them:
// a [stackCarriers] array, or drawTrials's [trialGroup·stackCarriers].
func phaseCoeffs(dst []complex128, betas []float64) []complex128 {
	for _, b := range betas {
		s, c := math.Sincos(b)
		//ivn:allow hotpath stays in the caller's stack array for every plan of up to stackCarriers carriers (per trial, in drawTrials); the largest built has 10
		dst = append(dst, complex(c, s))
	}
	return dst
}

// EnvelopeSeries samples Y(t) at the n points t_k = t0 + k·dt for
// k = 0..n−1. One period on the half-open grid [0, period) is t0 = 0,
// dt = period/n: it excludes t = period, which for integer-offset plans
// duplicates t = 0 — the same convention baseline.PeakReceivedPower
// scans with. It reuses dst when it has capacity. The evaluation runs on
// the shared phasor-recurrence kernel, whose scratch stays inside
// phasor, so steady-state calls with a recycled dst do not allocate.
//
//ivn:unit t0 s
//ivn:unit dt s
//ivn:hotpath
func EnvelopeSeries(offsets, betas []float64, t0, dt float64, n int, dst []float64) []float64 {
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		//ivn:allow hotpath first-call convenience allocation; steady-state callers recycle dst's capacity
		dst = make([]float64, n)
	}
	var cb [stackCarriers]complex128
	phasor.MagnitudeSeries(offsets, phaseCoeffs(cb[:0], betas), t0, dt, n, dst)
	return dst
}

// drawBetas fills dst with uniform random phases; element 0 is pinned to 0
// because only phase *differences* matter (paper §3.6 observes the
// objective depends only on Δf and Δβ).
func drawBetas(dst []float64, r *rng.Rand) {
	for i := range dst {
		if i == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = r.Phase()
	}
}

// drawTrials draws the phases of the next g trials in turn, as one
// drawBetas each into betas, and appends each draw's unit phasors to dst:
// trial after trial, the layout phasor's batched scans read. Callers pass
// an empty slice of a [trialGroup·stackCarriers] array of their own.
func drawTrials(dst []complex128, betas []float64, g int, r *rng.Rand) []complex128 {
	for range g {
		drawBetas(betas, r)
		dst = phaseCoeffs(dst, betas)
	}
	return dst
}

// ExpectedPeak estimates E_β[max_t Y(t)] (the Eq. 6 objective) by Monte
// Carlo: trials random phase draws, each scanning samplesPerTrial points
// over one envelope period. The period is 1 s by the paper's integer-Δf
// convention. Deterministic for a given r state: the trials are drawn in
// order, trialGroup at a time, and the scans draw nothing.
//
//ivn:hotpath
func ExpectedPeak(offsets []float64, trials, samplesPerTrial int, r *rng.Rand) float64 {
	if len(offsets) == 0 || trials <= 0 || samplesPerTrial <= 0 {
		return 0
	}
	var bb [stackCarriers]float64
	var cb [trialGroup * stackCarriers]complex128
	var peaks [trialGroup]float64
	betas := append(bb[:0], offsets...) // sized like offsets; drawBetas overwrites it
	dt := 1.0 / float64(samplesPerTrial)
	var acc float64
	for t := 0; t < trials; t += trialGroup {
		g := min(trialGroup, trials-t)
		phasor.PeakPowers(offsets, drawTrials(cb[:0], betas, g, r), dt, samplesPerTrial, peaks[:g])
		for _, p := range peaks[:g] {
			acc += math.Sqrt(p)
		}
	}
	return acc / float64(trials)
}

// PeakCDF samples the distribution of per-channel-draw peak *power* gains
// (peak² — Fig. 6 plots power) for a frequency set: one sample per random
// β draw, drawn as ExpectedPeak draws them. The returned slice has trials
// entries.
func PeakCDF(offsets []float64, trials, samplesPerTrial int, r *rng.Rand) []float64 {
	out := make([]float64, trials)
	var bb [stackCarriers]float64
	var cb [trialGroup * stackCarriers]complex128
	betas := append(bb[:0], offsets...) // sized like offsets; drawBetas overwrites it
	dt := 1.0 / float64(samplesPerTrial)
	for t := 0; t < trials; t += trialGroup {
		g := min(trialGroup, trials-t)
		phasor.PeakPowers(offsets, drawTrials(cb[:0], betas, g, r), dt, samplesPerTrial, out[t:t+g])
	}
	return out
}

// ExpectedDwellTime estimates E_β[max contiguous dwell above level] — the
// §3.7 steady-stage objective. A sensor charging a storage capacitor needs
// *continuous* above-threshold intervals; once the discovery stage has
// established the attainable level, slower (smaller-Δf) plans hold the
// envelope above it for longer per burst.
//
// Each trial's dwell is the longest run of samples above level on the
// half-open grid t ∈ [0, 1) of samplesPerTrial points (the grid of
// EnvelopeSeries), in seconds; a run may wrap the period edge. The trials
// are drawn as ExpectedPeak draws them.
//
//ivn:hotpath
func ExpectedDwellTime(offsets []float64, level float64, trials, samplesPerTrial int, r *rng.Rand) float64 {
	if len(offsets) == 0 || trials <= 0 || samplesPerTrial <= 0 {
		return 0
	}
	var bb [stackCarriers]float64
	var cb [trialGroup * stackCarriers]complex128
	var runs [trialGroup]int
	betas := append(bb[:0], offsets...) // sized like offsets; drawBetas overwrites it
	dt := 1.0 / float64(samplesPerTrial)
	var acc float64
	for t := 0; t < trials; t += trialGroup {
		g := min(trialGroup, trials-t)
		phasor.LongestRunsAbove(offsets, drawTrials(cb[:0], betas, g, r), dt, samplesPerTrial, level, runs[:g])
		for _, run := range runs[:g] {
			acc += float64(run) * dt
		}
	}
	return acc / float64(trials)
}

// ValidateOffsets checks a CIB frequency plan: offset 0 present first,
// strictly increasing non-negative integers (the cyclic-operation
// constraint of §3.6 with T = 1 s).
func ValidateOffsets(offsets []float64) error {
	if len(offsets) == 0 {
		return fmt.Errorf("core: empty offset set")
	}
	if offsets[0] != 0 {
		return fmt.Errorf("core: first offset must be 0 (reference carrier), got %v", offsets[0])
	}
	for i, f := range offsets {
		//ivn:allow floatcmp exact integrality check via the Trunc identity; offsets are small integers, no rounding involved
		if f != math.Trunc(f) {
			return fmt.Errorf("core: offset %v at index %d is not an integer (violates T=1s cyclic constraint)", f, i)
		}
		if f < 0 {
			return fmt.Errorf("core: negative offset %v", f)
		}
		if i > 0 && f <= offsets[i-1] {
			return fmt.Errorf("core: offsets not strictly increasing at index %d", i)
		}
	}
	return nil
}

// PaperOffsets is the Δf set IVN's prototype uses (paper §5a): obtained
// from the one-time Monte-Carlo optimization, RMS ≈ 82 Hz, well inside the
// 199 Hz flatness limit for an 800 µs query.
func PaperOffsets() []float64 {
	return []float64{0, 7, 20, 49, 68, 73, 90, 113, 121, 137}
}
