// Package safety evaluates IVN transmissions against RF exposure and
// regulatory limits. The paper's related-work section leans on two claims
// this package makes checkable: boosting transmit power "neither scales
// well nor is safe for human exposure" ([40, 57]), and CIB's "intrinsic
// duty-cycled operation makes it FCC compliant and safe for human
// exposure" (§7).
//
// Two quantities are modeled:
//
//   - EIRP against the FCC Part 15.247 limit for the 902-928 MHz ISM band
//     (36 dBm = 4 W for digitally modulated systems).
//   - Localized specific absorption rate (SAR) at the body surface,
//     SAR = σ·E²/ρ, time-averaged the way exposure standards prescribe —
//     which is exactly where duty cycling helps: CIB's beat envelope
//     concentrates energy in brief peaks, so its *average* deposition
//     matches a much weaker continuous transmitter.
package safety

import (
	"fmt"
	"math"

	"ivn/internal/em"
	"ivn/internal/radio"
)

// Regulatory and exposure constants.
const (
	// FCCMaxEIRPdBm is the Part 15.247 EIRP ceiling in the 902-928 MHz
	// ISM band (1 W conducted + 6 dBi antenna).
	FCCMaxEIRPdBm = 36.0 //ivn:unit dBm
	// SARLimitWkg is the FCC localized SAR limit (1 g average) in W/kg.
	SARLimitWkg = 1.6
	// SARLimitWholeBodyWkg is the whole-body average limit in W/kg.
	SARLimitWholeBodyWkg = 0.08
	// TissueDensity is the standard soft-tissue mass density, kg/m³.
	TissueDensity = 1000.0
)

// EIRPdBm returns the strongest per-chain EIRP of a carrier set given the
// transmit antenna gain. Under FCC rules, frequency-distinct CIB chains
// are evaluated per transmitter, not as a coherent aggregate — the same
// reason N conventional readers may share a warehouse.
//
//ivn:unit antennaGainDBi dBi
//ivn:unit return dBm
func EIRPdBm(carriers []radio.Carrier, antennaGainDBi float64) float64 {
	var maxP float64
	for _, c := range carriers {
		p := c.Amplitude * c.Amplitude
		if p > maxP {
			maxP = p
		}
	}
	if maxP <= 0 {
		return math.Inf(-1)
	}
	return 10*math.Log10(maxP) + 30 + antennaGainDBi
}

// Exposure describes an RF exposure evaluation point at the body surface.
type Exposure struct {
	// PeakSAR is the instantaneous worst-case SAR in W/kg (at the beat
	// peak for CIB).
	PeakSAR float64
	// AverageSAR is the time-averaged SAR in W/kg — the quantity
	// regulatory limits constrain (averaged over 6/30 minutes, far longer
	// than any CIB period).
	AverageSAR float64
	// IncidentAvgWm2 is the time-average incident power density, W/m².
	IncidentAvgWm2 float64
}

// String formats the exposure against the localized limit.
func (e Exposure) String() string {
	return fmt.Sprintf("Exposure{peak %.3g W/kg, avg %.3g W/kg (limit %.1f), incident %.3g W/m²}",
		e.PeakSAR, e.AverageSAR, SARLimitWkg, e.IncidentAvgWm2)
}

// Compliant reports whether the time-averaged localized SAR is inside the
// FCC limit.
func (e Exposure) Compliant() bool { return e.AverageSAR <= SARLimitWkg }

// EvaluateSurface computes the exposure where the beam enters tissue.
//
// carriers is the emitted tone set; antennaGain the amplitude gain of
// each transmit antenna; distance the antenna→skin distance; entry the
// first tissue layer (its conductivity sets the absorption); peakFactor
// the ratio of the envelope's peak amplitude to the incoherent RMS sum
// (N for a perfectly aligned CIB peak, 1 for a single carrier); freq the
// carrier frequency.
//
// SAR = σ·E_tissue²/ρ with E_tissue the RMS field just inside the
// boundary. The average SAR uses the power sum of the carriers (their
// relative phases average out over a beat period); the peak SAR scales
// it by peakFactor² — present only for the brief instants the envelope
// aligns.
func EvaluateSurface(carriers []radio.Carrier, antennaGain float64, distance float64, entry em.Medium, peakFactor float64, freq float64) (Exposure, error) {
	if len(carriers) == 0 {
		return Exposure{}, fmt.Errorf("safety: no carriers")
	}
	if distance <= 0 {
		return Exposure{}, fmt.Errorf("safety: distance %v <= 0", distance)
	}
	if peakFactor < 1 {
		return Exposure{}, fmt.Errorf("safety: peak factor %v < 1", peakFactor)
	}
	// Time-average incident power density at the skin: Σ Pᵢ·G / (4πr²).
	var ptot float64
	for _, c := range carriers {
		ptot += c.Amplitude * c.Amplitude
	}
	g := antennaGain * antennaGain
	sAvg := ptot * g / (4 * math.Pi * distance * distance)

	// Field just inside the tissue: S_in = S·T_power; E² = S_in·η_tissue
	// (plane-wave relation E²/η = power density, with the medium's wave
	// impedance).
	tp := em.TransmittancePower(em.Air, entry, freq)
	eta := entry.Impedance(freq)
	e2avg := sAvg * tp * eta
	avgSAR := entry.Conductivity * e2avg / TissueDensity

	// Peak: amplitudes align, field scales by peakFactor over the RMS sum
	// of ONE carrier... more precisely the aligned peak power is
	// (Σ amplitudes)² vs the average Σ amplitudes²; peakFactor lets the
	// caller supply the measured ratio.
	peakSAR := avgSAR * peakFactor * peakFactor
	return Exposure{PeakSAR: peakSAR, AverageSAR: avgSAR, IncidentAvgWm2: sAvg}, nil
}

// DutyCycle summarizes a CIB envelope's energy concentration: the
// fraction of time the envelope spends within 3 dB of its peak and the
// peak-to-average power ratio.
type DutyCycle struct {
	// FractionNearPeak is the fraction of a period within 3 dB of peak.
	FractionNearPeak float64
	// PAPR is the peak-to-average power ratio.
	PAPR float64
}

// AnalyzeEnvelope computes the duty-cycle profile of an amplitude
// envelope (e.g. one CIB period sampled by core.EnvelopeSeries).
func AnalyzeEnvelope(env []float64) (DutyCycle, error) {
	if len(env) == 0 {
		return DutyCycle{}, fmt.Errorf("safety: empty envelope")
	}
	var peak, sumSq float64
	for _, v := range env {
		if v > peak {
			peak = v
		}
		sumSq += v * v
	}
	if peak <= 0 {
		return DutyCycle{}, fmt.Errorf("safety: all-zero envelope")
	}
	avg := sumSq / float64(len(env))
	thresh := peak * peak / 2 // −3 dB in power
	near := 0
	for _, v := range env {
		if v*v >= thresh {
			near++
		}
	}
	return DutyCycle{
		FractionNearPeak: float64(near) / float64(len(env)),
		PAPR:             peak * peak / avg,
	}, nil
}
