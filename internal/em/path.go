package em

import (
	"fmt"
	"math"
	"strings"
)

// Layer is one homogeneous slab in a propagation path.
type Layer struct {
	Medium    Medium
	Thickness float64 //ivn:unit m
}

// Path is a straight-line propagation path: an air segment of length
// AirDistance from the transmit antenna to the first boundary, followed by
// an ordered stack of layers ending at the receiver. The zero value (no air
// distance, no layers) is a degenerate zero-length path with unit gain.
type Path struct {
	// AirDistance is the antenna→body distance r in meters (paper Fig. 3).
	AirDistance float64 //ivn:unit m
	// Layers is the tissue stack the wave crosses, outermost first.
	Layers []Layer
}

// Validate reports whether all geometry is physical.
func (p Path) Validate() error {
	if p.AirDistance < 0 {
		return fmt.Errorf("em: negative air distance %v", p.AirDistance)
	}
	for i, l := range p.Layers {
		if l.Thickness < 0 {
			return fmt.Errorf("em: layer %d (%s) has negative thickness", i, l.Medium.Name)
		}
		if err := l.Medium.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Depth returns the total tissue depth d = Σ thickness (paper's d).
//
//ivn:unit return m
func (p Path) Depth() float64 {
	var d float64
	for _, l := range p.Layers {
		d += l.Thickness
	}
	return d
}

// TotalLength returns air distance plus depth.
//
//ivn:unit return m
func (p Path) TotalLength() float64 { return p.AirDistance + p.Depth() }

// Transmittance returns the power-equivalent amplitude factor across every
// boundary in the path (air→layer₁, layer₁→layer₂, …) at the given
// frequency: √(Π T_power). This is the T of Eq. 2 generalized to multiple
// layers, expressed so that |h|² is delivered power. (The raw Fresnel
// field coefficient t = 2η₂/(η₁+η₂) would misstate power across an
// impedance change: power flux is E²/η, so the boundary's power behavior
// is T_p = 4η₁η₂/(η₁+η₂)², a 3–5 dB loss into tissue as the paper quotes.)
//
//ivn:unit freq Hz
//ivn:unit return 1
//ivn:hotpath
func (p Path) Transmittance(freq float64) float64 {
	tp := 1.0
	prev := Air
	for _, l := range p.Layers {
		tp *= TransmittancePower(prev, l.Medium, freq)
		prev = l.Medium
	}
	return math.Sqrt(tp)
}

// Amplitude returns the amplitude gain of the path at freq between
// isotropic antenna ports:
//
//	|h| = T · λ/(4π·max(r+d, r₀)) · e^{-Σ αᵢdᵢ}
//
// For a pure-air path this reduces to the Friis amplitude λ/(4πr), so
// power budgets computed from |h|² are in true watts-per-watt. The
// spherical-spreading term uses the full path length and is clamped at a
// 10 cm near-field limit so a zero-distance path cannot diverge. Antenna
// gains belong to Channel, not Path.
//
//ivn:unit freq Hz
//ivn:unit return 1
//ivn:hotpath
func (p Path) Amplitude(freq float64) float64 {
	const nearField = 0.1
	r := p.TotalLength()
	if r < nearField {
		r = nearField
	}
	att := 0.0
	for _, l := range p.Layers {
		att += l.Medium.Alpha(freq) * l.Thickness
	}
	lambda := C / freq
	return p.Transmittance(freq) * lambda / (4 * math.Pi * r) * math.Exp(-att)
}

// PhaseDelay returns the one-way propagation phase in radians at freq:
// air contributes β₀·r and each layer βᵢ·dᵢ. This is the phase a
// beamformer would need to know — and cannot, for an implanted sensor.
//
//ivn:unit freq Hz
//ivn:unit return rad
//ivn:hotpath
func (p Path) PhaseDelay(freq float64) float64 {
	beta0 := 2 * math.Pi * freq / C
	ph := beta0 * p.AirDistance
	for _, l := range p.Layers {
		ph += l.Medium.Beta(freq) * l.Thickness
	}
	return ph
}

// Coefficient returns the complex channel coefficient h = |h|·e^{-jφ} of
// the direct path at freq.
//
//ivn:unit freq Hz
//ivn:hotpath
func (p Path) Coefficient(freq float64) complex128 {
	a := p.Amplitude(freq)
	s, c := math.Sincos(-p.PhaseDelay(freq))
	return complex(a*c, a*s)
}

// LossDB returns the path's port-to-port power loss in dB between
// isotropic antennas (positive numbers are loss).
//
//ivn:unit freq Hz
//ivn:unit return dB
func (p Path) LossDB(freq float64) float64 {
	a := p.Amplitude(freq)
	if a <= 0 {
		return math.Inf(1)
	}
	return -20 * math.Log10(a)
}

// String renders the path geometry.
func (p Path) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "air %.2fm", p.AirDistance)
	for _, l := range p.Layers {
		fmt.Fprintf(&b, " | %s %.1fcm", l.Medium.Name, l.Thickness*100)
	}
	return b.String()
}

// WithAirDistanceShared returns a copy of p with the air segment replaced
// that aliases p's layer stack instead of copying it. Callers must treat
// the stack as immutable for as long as either path is live; the
// per-trial realization paths use this to avoid a layer copy per channel.
//
//ivn:unit r m
func (p Path) WithAirDistanceShared(r float64) Path {
	p.AirDistance = r
	return p
}

// SetDepth adjusts a layer stack in place so its total thickness equals d
// and returns the (possibly shortened) slice: a d shallower than the
// outer layers truncates the stack, a deeper one grows the innermost
// layer, and an empty stack stays empty.
//
//ivn:unit d m
func SetDepth(layers []Layer, d float64) []Layer {
	out := layers[:0]
	remaining := d
	for _, l := range layers {
		if remaining <= 0 {
			break
		}
		t := l.Thickness
		if t > remaining {
			t = remaining
		}
		out = append(out, Layer{Medium: l.Medium, Thickness: t})
		remaining -= t
	}
	if remaining > 0 && len(out) > 0 {
		out[len(out)-1].Thickness += remaining
	}
	return out
}
