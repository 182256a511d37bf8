package ivnsim

import (
	"math"
	"testing"

	"ivn/internal/em"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/tag"
)

// TestCommTrialHonorsScenarioGeometry is the regression test for the
// hard-coded-geometry bug: the comm trial used scenario.DefaultGeometry() for
// the CIB carrier and leak regardless of the scenario that realized the
// placement, so two scenarios differing only in Geometry produced
// identical trials. The placement draw itself is frequency-independent,
// which makes the check sharp: identical channels, different carriers.
func TestCommTrialHonorsScenarioGeometry(t *testing.T) {
	model := tag.StandardTag()
	base := scenario.NewTank(0.5, em.Water, 0.10)
	mod := scenario.NewTank(0.5, em.Water, 0.10)
	mod.Geometry.CIBFreq = 700e6 // lower carrier, less water loss

	a, err := RunCommTrial(base, 8, model, CommOptions{}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCommTrial(mod, 8, model, CommOptions{}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakPower <= 0 || b.PeakPower <= 0 {
		t.Fatalf("degenerate peaks: %v, %v", a.PeakPower, b.PeakPower)
	}
	if math.Abs(a.PeakPower-b.PeakPower) <= 1e-9*a.PeakPower {
		t.Fatalf("modified-geometry tank produced the default-geometry peak %v — geometry not plumbed", a.PeakPower)
	}
}

// TestGainTrialsHonorScenarioGeometry covers the same plumbing on the
// gain-measurement path.
func TestGainTrialsHonorScenarioGeometry(t *testing.T) {
	base := scenario.NewTank(0.5, em.Water, 0.10)
	mod := scenario.NewTank(0.5, em.Water, 0.10)
	mod.Geometry.CIBFreq = 700e6

	a, err := MeasureGains(base, 6, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureGains(mod, 6, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.CIB-b.CIB) <= 1e-9*a.CIB {
		t.Fatalf("gain trial ignored the scenario geometry (CIB peak %v)", a.CIB)
	}
}

// TestPlacementGeometryFallback pins the compatibility contract: a
// hand-built placement (zero Geom) reads back the default geometry, and a
// realized placement carries its scenario's.
func TestPlacementGeometryFallback(t *testing.T) {
	var hand scenario.Placement
	g := hand.Geometry()
	def := scenario.DefaultGeometry()
	if g.CIBFreq < def.CIBFreq-1 || g.CIBFreq > def.CIBFreq+1 {
		t.Fatalf("hand-built placement geometry CIBFreq %v, want default %v", g.CIBFreq, def.CIBFreq)
	}

	mod := scenario.NewTank(0.5, em.Water, 0.10)
	mod.Geometry.CIBFreq = 700e6
	p, err := mod.Realize(4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Geometry().CIBFreq; got < 699e6 || got > 701e6 {
		t.Fatalf("realized placement geometry CIBFreq %v, want 700e6", got)
	}
}
