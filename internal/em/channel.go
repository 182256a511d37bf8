package em

import (
	"math"

	"ivn/internal/rng"
)

// Ray is one multipath component: a delayed, complex-weighted echo of the
// direct path (a reflection off an organ boundary, the tank wall, or the
// room). Gain is relative to the direct-path coefficient.
type Ray struct {
	// ExtraDelay is the excess propagation delay over the direct path, s.
	ExtraDelay float64
	// Gain is the complex amplitude relative to the direct path.
	Gain complex128
}

// Channel is the full narrowband channel between one transmit antenna and
// the sensor: a direct layered path, a set of multipath rays, and an
// antenna-orientation gain. Its frequency response is
//
//	H(f) = g_orient · h_direct(f) · (1 + Σ Gainᵢ·e^{-j2πf·τᵢ})
//
// The rays multiply (rather than add independently) so their geometry
// shares the dominant tissue loss — reflections inside the body still cross
// the same layers.
type Channel struct {
	Direct Path
	Rays   []Ray
	// OrientationGain scales amplitude for antenna polarization/orientation
	// mismatch in [0, 1]; zero means fully cross-polarized.
	OrientationGain float64
	// TxGain and RxGain are the antenna amplitude gains (√ of power gain).
	TxGain, RxGain float64
}

// NewChannel builds a channel over path with unit antenna gains, ideal
// orientation and no multipath.
func NewChannel(p Path) *Channel {
	return &Channel{Direct: p, OrientationGain: 1, TxGain: 1, RxGain: 1}
}

// Coefficient returns H(f).
func (c *Channel) Coefficient(freq float64) complex128 {
	h := c.Direct.Coefficient(freq)
	sum := complex(1, 0)
	for _, ray := range c.Rays {
		ph := -2 * math.Pi * freq * ray.ExtraDelay
		s, cs := math.Sincos(ph)
		sum += ray.Gain * complex(cs, s)
	}
	g := c.OrientationGain * c.TxGain * c.RxGain
	return complex(g, 0) * h * sum
}

// MultipathProfile parameterizes random ray generation.
type MultipathProfile struct {
	// Rays is the number of echoes to generate.
	Rays int
	// MaxExcessMeters bounds the excess path length of an echo.
	MaxExcessMeters float64
	// MeanRelPower is the average echo power relative to the direct path
	// (e.g. 0.1 = −10 dB echoes).
	MeanRelPower float64
}

// DefaultIndoorProfile is a moderate indoor/in-body multipath environment:
// a few −13 dB echoes with up to 3 m excess path.
var DefaultIndoorProfile = MultipathProfile{Rays: 4, MaxExcessMeters: 3, MeanRelPower: 0.05}

// LOSProfile is a nearly line-of-sight environment (the paper's hallway
// range tests, Fig. 8): two faint echoes.
var LOSProfile = MultipathProfile{Rays: 2, MaxExcessMeters: 5, MeanRelPower: 0.03}

// RichProfile models a cluttered environment with strong reflections.
var RichProfile = MultipathProfile{Rays: 12, MaxExcessMeters: 6, MeanRelPower: 0.2}

// GenerateRaysInto appends a random ray set drawn from the profile to dst
// and returns it. Each ray has a uniform excess delay, Rayleigh-distributed
// magnitude and uniform phase — the standard rich-scattering assumption —
// drawn per ray as Rayleigh, Phase, UniformRange; the same *rng.Rand state
// always yields the same rays. Callers that realize placements per trial
// pass dst[:0] of a retained buffer to keep ray generation
// allocation-free.
func (mp MultipathProfile) GenerateRaysInto(dst []Ray, r *rng.Rand) []Ray {
	// Rayleigh with E[m²] = MeanRelPower ⇒ σ = √(MeanRelPower/2).
	sigma := math.Sqrt(mp.MeanRelPower / 2)
	for i := 0; i < mp.Rays; i++ {
		m := r.Rayleigh(sigma)
		ph := r.Phase()
		s, c := math.Sincos(ph)
		dst = append(dst, Ray{
			ExtraDelay: r.UniformRange(0.05, 1) * mp.MaxExcessMeters / C,
			Gain:       complex(m*c, m*s),
		})
	}
	return dst
}

// DipoleOrientationGain returns the amplitude mismatch factor for a linear
// dipole rotated by theta radians from co-polarized alignment, floored at
// minGain to model the residual coupling real tags exhibit (a perfect null
// almost never occurs in practice because of scattering).
func DipoleOrientationGain(theta, minGain float64) float64 {
	g := math.Abs(math.Cos(theta))
	if g < minGain {
		return minGain
	}
	return g
}

// FriisAmplitude returns the free-space amplitude gain between isotropic
// antennas at distance r and wavelength lambda: λ/(4πr). Antenna gains are
// applied by Channel. Distances below 10 cm clamp to avoid divergence.
func FriisAmplitude(lambda, r float64) float64 {
	const nearField = 0.1
	if r < nearField {
		r = nearField
	}
	return lambda / (4 * math.Pi * r)
}

// Wavelength returns c/f in meters.
func Wavelength(freq float64) float64 { return C / freq }
