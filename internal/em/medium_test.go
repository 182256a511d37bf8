package em

import (
	"math"
	"testing"
	"testing/quick"
)

const f915 = 915e6

func TestAirIsLossless(t *testing.T) {
	if a := Air.Alpha(f915); a != 0 {
		t.Fatalf("air alpha = %v, want 0", a)
	}
	if l := Air.LossDBPerCM(f915); l != 0 {
		t.Fatalf("air loss = %v dB/cm, want 0", l)
	}
}

func TestTissueAlphaInPaperRange(t *testing.T) {
	// The paper ([39]) quotes α between 13 and 80 m⁻¹ for tissues, i.e.
	// 1.1–6.9 dB/cm near 1 GHz. Every lossy tissue preset must land there.
	for _, m := range []Medium{Muscle, Skin, StomachWall, GastricFluid, IntestinalFluid, Steak, ChickenBreast} {
		a := m.Alpha(f915)
		if a < 13 || a > 80 {
			t.Errorf("%s: alpha = %v m⁻¹, want within [13, 80]", m.Name, a)
		}
	}
	// Fat and bacon are low-water media: lossy but below muscle.
	if Fat.Alpha(f915) >= Muscle.Alpha(f915) {
		t.Error("fat should attenuate less than muscle")
	}
}

func TestTissueLossDBPerCMRange(t *testing.T) {
	l := Muscle.LossDBPerCM(f915)
	if l < 2.3 || l > 6.9 {
		t.Fatalf("muscle loss = %v dB/cm, want within the paper's 2.3–6.9", l)
	}
}

func TestAlphaIncreasesWithConductivity(t *testing.T) {
	lo := Medium{Name: "lo", EpsilonR: 50, Conductivity: 0.5}
	hi := Medium{Name: "hi", EpsilonR: 50, Conductivity: 2.0}
	if lo.Alpha(f915) >= hi.Alpha(f915) {
		t.Fatal("alpha should grow with conductivity")
	}
}

func TestBetaExceedsFreeSpace(t *testing.T) {
	beta0 := 2 * math.Pi * f915 / C
	for _, m := range Presets() {
		if m.Name == "air" {
			continue
		}
		if m.Beta(f915) <= beta0 {
			t.Errorf("%s: β = %v <= free-space β₀ = %v", m.Name, m.Beta(f915), beta0)
		}
	}
}

func TestImpedanceOrdering(t *testing.T) {
	// Wave impedance falls with permittivity: air > fat > muscle.
	air := Air.Impedance(f915)
	fat := Fat.Impedance(f915)
	muscle := Muscle.Impedance(f915)
	if !(air > fat && fat > muscle) {
		t.Fatalf("impedance ordering wrong: air=%v fat=%v muscle=%v", air, fat, muscle)
	}
	if math.Abs(air-Eta0) > 0.1 {
		t.Fatalf("air impedance = %v, want η₀ = %v", air, Eta0)
	}
}

func TestRefractiveIndexNearSqrtEps(t *testing.T) {
	// For low-loss media the refractive index β/β₀ ≈ √εr.
	n := Fat.Beta(f915) / (2 * math.Pi * f915 / C)
	want := math.Sqrt(Fat.EpsilonR)
	if math.Abs(n-want)/want > 0.05 {
		t.Fatalf("fat n = %v, want ≈ %v", n, want)
	}
}

func TestAirTissueBoundaryLossInPaperRange(t *testing.T) {
	// Paper §2.2.1: boundary reflection costs ≈3–5 dB near 1 GHz.
	for _, m := range []Medium{Muscle, Skin, StomachWall, Water} {
		tp := TransmittancePower(Air, m, f915)
		lossDB := -10 * math.Log10(tp)
		if lossDB < 2 || lossDB > 6 {
			t.Errorf("air→%s boundary loss = %.2f dB, want ≈3–5", m.Name, lossDB)
		}
	}
}

// TestTransmittancePlusReflectanceIsOne: at normal incidence the power
// reflectance |Γ|², Γ = (η_b−η_a)/(η_a+η_b) from the media's impedances,
// and TransmittancePower account for all the incident power.
func TestTransmittancePlusReflectanceIsOne(t *testing.T) {
	pairs := [][2]Medium{{Air, Muscle}, {Fat, Muscle}, {Air, Water}, {Skin, Fat}}
	for _, p := range pairs {
		etaA, etaB := p[0].Impedance(f915), p[1].Impedance(f915)
		gamma := (etaB - etaA) / (etaA + etaB)
		tp := TransmittancePower(p[0], p[1], f915)
		if math.Abs(tp+gamma*gamma-1) > 1e-12 {
			t.Errorf("%s→%s: T+R = %v, want 1", p[0].Name, p[1].Name, tp+gamma*gamma)
		}
	}
}

func TestTransmittanceSameMediumIsUnity(t *testing.T) {
	if tp := TransmittancePower(Muscle, Muscle, f915); math.Abs(tp-1) > 1e-12 {
		t.Fatalf("same-medium transmittance = %v, want 1", tp)
	}
	if tp := TransmittancePower(Air, Air, f915); math.Abs(tp-1) > 1e-12 {
		t.Fatalf("air→air transmittance = %v, want 1", tp)
	}
}

func TestTransmittancePowerSymmetric(t *testing.T) {
	// Power transmittance is reciprocal even though the amplitude
	// coefficient is not.
	ab := TransmittancePower(Air, Muscle, f915)
	ba := TransmittancePower(Muscle, Air, f915)
	if math.Abs(ab-ba) > 1e-12 {
		t.Fatalf("power transmittance not reciprocal: %v vs %v", ab, ba)
	}
}

func TestMediumByName(t *testing.T) {
	m, ok := MediumByName("muscle")
	if !ok || m.Name != "muscle" {
		t.Fatal("muscle preset not found")
	}
	if _, ok := MediumByName("adamantium"); ok {
		t.Fatal("unknown medium reported found")
	}
}

func TestMediumValidate(t *testing.T) {
	if err := (Medium{Name: "bad", EpsilonR: 0.5}).Validate(); err == nil {
		t.Fatal("εr < 1 accepted")
	}
	if err := (Medium{Name: "bad", EpsilonR: 2, Conductivity: -1}).Validate(); err == nil {
		t.Fatal("negative conductivity accepted")
	}
	for _, m := range Presets() {
		if err := m.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", m.Name, err)
		}
	}
}

func TestQuickTransmittanceBounded(t *testing.T) {
	f := func(e1, e2 uint8, s1, s2 uint8) bool {
		a := Medium{Name: "a", EpsilonR: 1 + float64(e1)/4, Conductivity: float64(s1) / 100}
		b := Medium{Name: "b", EpsilonR: 1 + float64(e2)/4, Conductivity: float64(s2) / 100}
		tp := TransmittancePower(a, b, f915)
		return tp > 0 && tp <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWavelength915(t *testing.T) {
	l := Wavelength(f915)
	if math.Abs(l-0.3276) > 0.001 {
		t.Fatalf("λ(915 MHz) = %v m, want ≈0.3276", l)
	}
}
