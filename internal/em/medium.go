// Package em models RF propagation through air and biological tissues for
// the IVN simulator.
//
// The paper's channel model (Eq. 2) is
//
//	|E| = T·A/r · e^{-αd}
//
// where T is the air→tissue transmittance, r the air distance, α the
// tissue attenuation constant and d the depth. This package derives α, the
// phase constant β and the wave impedance η from each medium's dielectric
// constant and conductivity (lossy-dielectric wave equations), composes
// multi-layer paths with Fresnel boundary losses, and adds a configurable
// multipath ray model for reflections off organs and the environment.
//
// Everything a beamformer cannot know — per-frequency phase through an
// inhomogeneous stack, multipath — is exactly what this package produces,
// so the CIB algorithm on top is exercised under honest blind-channel
// conditions.
package em

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Physical constants (SI).
const (
	// C is the speed of light in vacuum, m/s.
	C = 299792458.0 //ivn:unit m/s
	// Mu0 is the vacuum permeability, H/m.
	Mu0 = 4 * math.Pi * 1e-7
	// Eps0 is the vacuum permittivity, F/m.
	Eps0 = 8.8541878128e-12
	// Eta0 is the impedance of free space, ohms.
	Eta0 = 376.730313668
)

// Medium is a propagation medium characterized by its relative permittivity
// and conductivity. Loss (α), phase velocity (via β) and impedance (η) are
// derived per frequency from the exact lossy-dielectric relations.
type Medium struct {
	// Name identifies the medium in experiment output.
	Name string
	// EpsilonR is the real relative permittivity ε′/ε₀.
	EpsilonR float64
	// Conductivity is σ in S/m; it sets the dielectric loss.
	Conductivity float64
}

// Preset media. Tissue values approximate the Gabriel dielectric database
// at 915 MHz; fluid values follow the paper's USP simulated gastric and
// intestinal preparations; "steak"/"bacon"/"chicken" stand in for the
// paper's ex-vivo animal tissues (muscle-, fat- and poultry-like).
//
// Conductivities for the solid tissues follow the paper's stated model
// ("a dielectric constant of 50 and a conductivity of 1 to 3 S/m", §2.2.1)
// so that the derived per-cm losses land inside its quoted 2.3–6.9 dB/cm.
var (
	Air             = Medium{Name: "air", EpsilonR: 1, Conductivity: 0}
	Water           = Medium{Name: "water", EpsilonR: 78, Conductivity: 0.35}
	GastricFluid    = Medium{Name: "gastric-fluid", EpsilonR: 72, Conductivity: 1.2}
	IntestinalFluid = Medium{Name: "intestinal-fluid", EpsilonR: 70, Conductivity: 1.4}
	Muscle          = Medium{Name: "muscle", EpsilonR: 55.0, Conductivity: 1.15}
	Fat             = Medium{Name: "fat", EpsilonR: 5.5, Conductivity: 0.05}
	Skin            = Medium{Name: "skin", EpsilonR: 41.3, Conductivity: 1.0}
	StomachWall     = Medium{Name: "stomach-wall", EpsilonR: 65.0, Conductivity: 1.3}
	Steak           = Medium{Name: "steak", EpsilonR: 52.0, Conductivity: 1.1}
	Bacon           = Medium{Name: "bacon", EpsilonR: 9.0, Conductivity: 0.12}
	ChickenBreast   = Medium{Name: "chicken", EpsilonR: 50.0, Conductivity: 1.0}
)

// Presets lists every built-in medium in a stable order.
func Presets() []Medium {
	return []Medium{
		Air, Water, GastricFluid, IntestinalFluid,
		Muscle, Fat, Skin, StomachWall,
		Steak, Bacon, ChickenBreast,
	}
}

// MediumByName looks up a preset by name.
func MediumByName(name string) (Medium, bool) {
	for _, m := range Presets() {
		if m.Name == name {
			return m, true
		}
	}
	return Medium{}, false
}

// String returns the medium's name.
func (m Medium) String() string { return m.Name }

// lossTangent returns σ/(ωε′).
func (m Medium) lossTangent(freq float64) float64 {
	if m.Conductivity == 0 {
		return 0
	}
	return m.Conductivity / (2 * math.Pi * freq * Eps0 * m.EpsilonR)
}

// Alpha returns the field attenuation constant α in nepers per meter at
// frequency freq, from the exact expression
//
//	α = ω √(µε′/2 · (√(1+tan²δ) − 1)).
//
// For the preset tissues at 915 MHz this lands in the paper's quoted
// 13–80 m⁻¹ range ([39]).
func (m Medium) Alpha(freq float64) float64 {
	if m.Conductivity == 0 {
		return 0
	}
	w := 2 * math.Pi * freq
	tan := m.lossTangent(freq)
	return w * math.Sqrt(Mu0*Eps0*m.EpsilonR/2*(math.Sqrt(1+tan*tan)-1))
}

// Beta returns the phase constant β in radians per meter:
//
//	β = ω √(µε′/2 · (√(1+tan²δ) + 1)).
func (m Medium) Beta(freq float64) float64 {
	w := 2 * math.Pi * freq
	tan := m.lossTangent(freq)
	return w * math.Sqrt(Mu0*Eps0*m.EpsilonR/2*(math.Sqrt(1+tan*tan)+1))
}

// Impedance returns the intrinsic wave impedance magnitude |η| in ohms.
// It appears in the received-power relation P = E²·A_eff/η (paper Eq. 3).
func (m Medium) Impedance(freq float64) float64 {
	if m.Conductivity == 0 {
		return Eta0 / math.Sqrt(m.EpsilonR)
	}
	w := 2 * math.Pi * freq
	// η = √(jωµ / (σ + jωε′)); take the magnitude, using
	// |√z| = √|z| to avoid branch-cut concerns.
	num := complex(0, w*Mu0)
	den := complex(m.Conductivity, w*Eps0*m.EpsilonR)
	return math.Sqrt(cmplx.Abs(num / den))
}

// LossDBPerCM returns the propagation power loss in dB per centimeter, the
// unit the paper uses ("2.3 to 6.9 dB/cm").
func (m Medium) LossDBPerCM(freq float64) float64 {
	// Power loss over d meters is e^{-2αd}; in dB: 20·α·d·log10(e).
	return 20 * m.Alpha(freq) * math.Log10(math.E) * 0.01
}

// Validate reports whether the medium's parameters are physical.
func (m Medium) Validate() error {
	if m.EpsilonR < 1 {
		return fmt.Errorf("em: medium %q has εr=%v < 1", m.Name, m.EpsilonR)
	}
	if m.Conductivity < 0 {
		return fmt.Errorf("em: medium %q has negative conductivity", m.Name)
	}
	return nil
}

// TransmittancePower returns the fraction of incident power that crosses
// the a→b boundary at normal incidence: with the Fresnel amplitude
// coefficient t = 2η_b/(η_a+η_b), T_p = (η_a/η_b)·t² = 4·η_a·η_b/(η_a+η_b)².
// At an air→tissue boundary near 1 GHz this costs 3–5 dB, matching the
// paper (§2.2.1).
func TransmittancePower(a, b Medium, freq float64) float64 {
	etaA, etaB := a.Impedance(freq), b.Impedance(freq)
	s := etaA + etaB
	return 4 * etaA * etaB / (s * s)
}
