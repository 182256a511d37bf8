package scenario

import (
	"math"
	"math/cmplx"
	"testing"

	"ivn/internal/em"
	"ivn/internal/rng"
)

func TestTankRealizeShape(t *testing.T) {
	sc := NewTank(0.5, em.Water, 0.1)
	p, err := sc.Realize(10, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Downlink) != 10 {
		t.Fatalf("%d downlink channels", len(p.Downlink))
	}
	for i, c := range p.Downlink {
		if err := c.Direct.Validate(); err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
		if c.OrientationGain < 0 || c.OrientationGain > 1 {
			t.Fatalf("channel %d orientation gain %v out of [0,1]", i, c.OrientationGain)
		}
		if c.TxGain < 0 || c.RxGain < 0 {
			t.Fatalf("channel %d antenna gains %v, %v negative", i, c.TxGain, c.RxGain)
		}
		for j, ray := range c.Rays {
			if ray.ExtraDelay < 0 {
				t.Fatalf("channel %d ray %d excess delay %v negative", i, j, ray.ExtraDelay)
			}
		}
		if c.Direct.Depth() != 0.1 {
			t.Fatalf("channel %d depth %v", i, c.Direct.Depth())
		}
	}
	if p.ReaderDown == nil || p.ReaderUp == nil {
		t.Fatal("missing reader channels")
	}
	if p.CIBLeakPerWatt <= 0 || p.CIBLeakPerWatt >= 1 {
		t.Fatalf("leak fraction %v", p.CIBLeakPerWatt)
	}
	if sc.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestRealizeDeterministic(t *testing.T) {
	sc := NewTank(0.5, em.Water, 0.1)
	a, err := sc.Realize(4, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Realize(4, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Downlink {
		ha := a.Downlink[i].Coefficient(915e6)
		hb := b.Downlink[i].Coefficient(915e6)
		if ha != hb {
			t.Fatalf("channel %d differs across identical seeds", i)
		}
	}
}

func TestRealizeChannelsVaryAcrossAntennas(t *testing.T) {
	sc := NewTank(0.5, em.Water, 0.1)
	p, err := sc.Realize(8, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	phases := map[float64]bool{}
	for _, c := range p.Downlink {
		phases[cmplx.Phase(c.Coefficient(915e6))] = true
	}
	if len(phases) < 8 {
		t.Fatalf("only %d distinct channel phases over 8 antennas", len(phases))
	}
}

func TestDeepTankWeakerThanShallow(t *testing.T) {
	shallow, err := NewTank(0.5, em.Water, 0.02).Realize(1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	deep, err := NewTank(0.5, em.Water, 0.2).Realize(1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ps := cmplx.Abs(shallow.Downlink[0].Coefficient(915e6))
	pd := cmplx.Abs(deep.Downlink[0].Coefficient(915e6))
	if pd >= ps {
		t.Fatalf("deep |H| %v >= shallow %v", pd, ps)
	}
}

func TestAirScenario(t *testing.T) {
	sc := NewAir(5)
	p, err := sc.Realize(2, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Downlink {
		if c.Direct.Depth() != 0 {
			t.Fatal("air scenario has tissue layers")
		}
	}
	if sc.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestTankWithDepthCopies(t *testing.T) {
	sc := NewTank(0.5, em.Water, 0.1)
	deep := sc.WithDepth(0.25)
	if deep.Depth != 0.25 || sc.Depth != 0.1 {
		t.Fatal("WithDepth broken")
	}
}

func TestAirMediumTankActsAsAir(t *testing.T) {
	// A tank of air at depth d behaves like range + d of air.
	sc := NewTank(0.5, em.Air, 0.1)
	p, err := sc.Realize(1, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Downlink[0].Direct.Layers) != 0 {
		t.Fatal("air tank produced layers")
	}
}

func TestSwineStacks(t *testing.T) {
	g := NewSwine(Gastric)
	sub := NewSwine(Subcutaneous)
	gd, sd := 0.0, 0.0
	for _, l := range g.Stack() {
		gd += l.Thickness
	}
	for _, l := range sub.Stack() {
		sd += l.Thickness
	}
	if gd <= sd {
		t.Fatal("gastric stack not deeper than subcutaneous")
	}
	if gd < 0.05 || gd > 0.12 {
		t.Fatalf("gastric depth %v m implausible", gd)
	}
	if g.Name() == "" || sub.Name() == "" {
		t.Fatal("empty names")
	}
	if Gastric.String() != "gastric" || Subcutaneous.String() != "subcutaneous" {
		t.Fatal("placement names wrong")
	}
}

func TestSwineRealizeVariability(t *testing.T) {
	sc := NewSwine(Gastric)
	r := rng.New(6)
	depths := map[float64]bool{}
	airs := map[float64]bool{}
	for i := 0; i < 10; i++ {
		p, err := sc.Realize(3, r)
		if err != nil {
			t.Fatal(err)
		}
		depths[p.Downlink[0].Direct.Depth()] = true
		airs[p.Downlink[0].Direct.AirDistance] = true
		// Standoff within the protocol's 30–80 cm (±antenna spread).
		air := p.Downlink[0].Direct.AirDistance
		if air < 0.3-sc.AntennaSpread || air > 0.8+sc.AntennaSpread {
			t.Fatalf("standoff %v outside protocol range", air)
		}
	}
	if len(depths) < 5 || len(airs) < 5 {
		t.Fatal("breathing/repositioning produced no variability")
	}
}

func TestGastricLinkWeakerThanSubcutaneous(t *testing.T) {
	r1, err := NewSwine(Gastric).Realize(1, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewSwine(Subcutaneous).Realize(1, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(r1.Downlink[0].Coefficient(915e6)) >= cmplx.Abs(r2.Downlink[0].Coefficient(915e6)) {
		t.Fatal("gastric link not weaker than subcutaneous")
	}
}

func TestMediaSweepList(t *testing.T) {
	ms := MediaSweep()
	if len(ms) != 7 {
		t.Fatalf("%d media, want 7 (air, water, 2 fluids, 3 tissues)", len(ms))
	}
	names := map[string]bool{}
	for _, sc := range ms {
		if _, err := sc.Realize(2, rng.New(8)); err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		names[sc.Name()] = true
	}
	if len(names) != 7 {
		t.Fatal("duplicate scenario names")
	}
}

func TestFixedOrientation(t *testing.T) {
	sc := NewTank(0.5, em.Water, 0.1)
	sc.FixedOrientation = math.Pi / 3
	p, err := sc.Realize(1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Orientation-math.Pi/3) > 1e-12 {
		t.Fatalf("orientation %v, want π/3", p.Orientation)
	}
	want := em.DipoleOrientationGain(math.Pi/3, sc.OrientationFloor)
	if math.Abs(p.Downlink[0].OrientationGain-want) > 1e-12 {
		t.Fatalf("orientation gain %v, want %v", p.Downlink[0].OrientationGain, want)
	}
}

func TestRealizeValidation(t *testing.T) {
	sc := NewTank(0.5, em.Water, 0.1)
	if _, err := sc.Realize(0, rng.New(1)); err == nil {
		t.Fatal("0 antennas accepted")
	}
	bad := NewTank(-1, em.Water, 0.1)
	if _, err := bad.Realize(1, rng.New(1)); err == nil {
		t.Fatal("negative air distance accepted")
	}
}

func TestLeakIsRealisticForJammingStory(t *testing.T) {
	// The leak must be strong enough to saturate an unfiltered in-band
	// receiver at prototype power (total ≈10 W radiated) yet weak enough
	// for the SAW-filtered out-of-band receiver: between −30 dBm and
	// +20 dBm per radiated watt.
	p, err := NewTank(0.5, em.Water, 0.1).Realize(10, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	leakDBm := 10*math.Log10(p.CIBLeakPerWatt) + 30
	if leakDBm < -30 || leakDBm > 20 {
		t.Fatalf("leak %v dBm per radiated watt outside plausible range", leakDBm)
	}
}
