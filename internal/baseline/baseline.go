// Package baseline implements the comparators IVN is evaluated against:
//
//   - SingleAntenna: one transmit chain (the denominator of every "power
//     gain" number in the paper).
//   - BlindArrayInto: the paper's "10-antenna transmitter" — N chains on the
//     SAME carrier frequency with unknown random phases. Its gain over a
//     single antenna comes entirely from radiating N× total power; at any
//     given point the phasors may also cancel.
//   - OracleMRTInto: coherent maximum-ratio beamforming with perfect channel
//     knowledge — the upper bound that is unobtainable for battery-free
//     sensors (it needs channel feedback) but shows what CIB is giving up.
package baseline

import (
	"fmt"
	"math"
	"math/cmplx"

	"ivn/internal/phasor"
	"ivn/internal/radio"
	"ivn/internal/rng"
)

// SingleAntenna returns the one-chain carrier set at freq with the given
// emitted amplitude (√W).
func SingleAntenna(freq, amplitude float64) []radio.Carrier {
	return []radio.Carrier{{Freq: freq, Phase: 0, Amplitude: amplitude}}
}

// BlindArrayInto appends n same-frequency carriers with independent
// random phases, each emitting perAntennaAmplitude, to dst and returns
// it. This is the optimized multi-antenna baseline of §6.1.1(c): it
// cannot focus because it has no channel knowledge and — unlike CIB — no
// frequency diversity to scan alignments over time.
func BlindArrayInto(dst []radio.Carrier, n int, freq, perAntennaAmplitude float64, r *rng.Rand) ([]radio.Carrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseline: n=%d", n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, radio.Carrier{Freq: freq, Phase: r.Phase(), Amplitude: perAntennaAmplitude})
	}
	return dst, nil
}

// OracleMRTInto appends n same-frequency carriers whose phases pre-rotate
// each channel's phase away (maximum-ratio transmission), given perfect
// knowledge of the channel coefficients, to dst and returns it. All
// phasors then add coherently at the sensor: the unreachable ideal for
// battery-free devices.
func OracleMRTInto(dst []radio.Carrier, freq, perAntennaAmplitude float64, chans []complex128) ([]radio.Carrier, error) {
	if len(chans) == 0 {
		return nil, fmt.Errorf("baseline: no channels")
	}
	for _, h := range chans {
		dst = append(dst, radio.Carrier{
			Freq:      freq,
			Phase:     -cmplx.Phase(h),
			Amplitude: perAntennaAmplitude,
		})
	}
	return dst, nil
}

// scanSpec validates a (carriers, chans, duration, samples) scan request.
// It returns done=true when the caller should return immediately with the
// given power/err (empty carrier set, or an invalid spec).
func scanSpec(carriers []radio.Carrier, chans []complex128, duration float64, samples int) (power float64, done bool, err error) {
	if len(carriers) != len(chans) {
		//ivn:allow hotpath cold validation exit; a mismatched scan spec never reaches the steady-state loop
		return 0, true, fmt.Errorf("baseline: %d carriers, %d channels", len(carriers), len(chans))
	}
	if len(carriers) == 0 {
		return 0, true, nil
	}
	if duration <= 0 || samples < 1 {
		//ivn:allow hotpath cold validation exit; an invalid scan spec never reaches the steady-state loop
		return 0, true, fmt.Errorf("baseline: bad scan spec duration=%v samples=%d", duration, samples)
	}
	return 0, false, nil
}

// stackCarriers sizes the stack arrays that hold a carrier set's kernel
// representation. Every set the program builds fits (the largest has 10
// carriers); a larger one spills to the heap through append.
const stackCarriers = 16

// carrierPhasors appends the kernel representation of a carrier set seen
// through per-carrier channels to freqs and coeffs and returns them:
// baseband frequencies relative to the first carrier, and complex
// coefficients Aᵢ·e^{jφᵢ}·hᵢ. Callers pass empty slices of
// [stackCarriers] arrays of their own.
func carrierPhasors(freqs []float64, coeffs []complex128, carriers []radio.Carrier, chans []complex128) ([]float64, []complex128) {
	f0 := carriers[0].Freq
	for i, c := range carriers {
		s, cs := math.Sincos(c.Phase)
		coeff := complex(c.Amplitude*cs, c.Amplitude*s) * chans[i]
		//ivn:allow hotpath stays in the caller's stack arrays for every set of up to stackCarriers carriers; the largest built has 10
		freqs, coeffs = append(freqs, c.Freq-f0), append(coeffs, coeff)
	}
	return freqs, coeffs
}

// PeakReceivedPower returns the maximum instantaneous power of the
// superposition of carriers through the given per-carrier channels,
// scanned over the half-open interval [0, duration) at `samples` equally
// spaced points t_k = duration·k/samples, k = 0..samples−1; the endpoint
// t = duration is excluded (for a full beat period it duplicates t = 0).
// For same-frequency carrier sets the envelope is constant and one sample
// suffices; for CIB sets the scan finds the beat maximum. This is the
// quantity the paper's "peak power" measurements capture (§6.1.1).
//
// The scan runs on the shared phasor-recurrence kernel
// (internal/phasor); NaivePeakReceivedPower retains the direct
// per-sample evaluation as the golden reference.
//
//ivn:hotpath
func PeakReceivedPower(carriers []radio.Carrier, chans []complex128, duration float64, samples int) (float64, error) {
	if p, done, err := scanSpec(carriers, chans, duration, samples); done {
		return p, err
	}
	var fb [stackCarriers]float64
	var cb [stackCarriers]complex128
	freqs, coeffs := carrierPhasors(fb[:0], cb[:0], carriers, chans)
	return phasor.PeakPower(freqs, coeffs, 0, duration/float64(samples), samples), nil
}

// PeakReceivedPowerRefined is PeakReceivedPower with a coarse-to-fine
// scan: a coarse pass over coarseSamples points locates the top beat
// cells, then only their neighborhoods are rescanned at the full
// `samples` resolution. The result is always the power at one of the
// fine-grid sample points of PeakReceivedPower's half-open [0, duration)
// grid, and matches the full scan whenever the coarse grid still
// oversamples the envelope (true for flatness-constrained CIB plans,
// whose beat bandwidth is ≤ a few hundred Hz, against coarse grids of
// thousands of points per second). samples must be a positive multiple of
// coarseSamples for refinement to engage; otherwise the full scan runs.
//
//ivn:hotpath
func PeakReceivedPowerRefined(carriers []radio.Carrier, chans []complex128, duration float64, coarseSamples, samples int) (float64, error) {
	if p, done, err := scanSpec(carriers, chans, duration, samples); done {
		return p, err
	}
	var fb [stackCarriers]float64
	var cb [stackCarriers]complex128
	freqs, coeffs := carrierPhasors(fb[:0], cb[:0], carriers, chans)
	return phasor.PeakPowerRefined(freqs, coeffs, duration, coarseSamples, samples), nil
}

// NaivePeakReceivedPower is the direct evaluation of PeakReceivedPower —
// one Sincos per carrier per sample on the same half-open [0, duration)
// grid. It is kept as the golden reference the kernel-backed scans are
// tested against and is not used on any hot path.
//
//ivn:allow unreached the reference TestKernelPeakMatchesNaive pins the kernel-backed scans to
func NaivePeakReceivedPower(carriers []radio.Carrier, chans []complex128, duration float64, samples int) (float64, error) {
	if p, done, err := scanSpec(carriers, chans, duration, samples); done {
		return p, err
	}
	// Reference frequency: the first carrier; only offsets matter.
	f0 := carriers[0].Freq
	best := 0.0
	for k := 0; k < samples; k++ {
		t := duration * float64(k) / float64(samples)
		var re, im float64
		for i, c := range carriers {
			ph := 2*math.Pi*(c.Freq-f0)*t + c.Phase
			s, cs := math.Sincos(ph)
			v := complex(c.Amplitude*cs, c.Amplitude*s) * chans[i]
			re += real(v)
			im += imag(v)
		}
		if p := re*re + im*im; p > best {
			best = p
		}
	}
	return best, nil
}
