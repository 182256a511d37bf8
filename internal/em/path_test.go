package em

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"ivn/internal/rng"
)

func swinePath(air float64) Path {
	return Path{
		AirDistance: air,
		Layers: []Layer{
			{Skin, 0.003},
			{Fat, 0.02},
			{Muscle, 0.03},
			{StomachWall, 0.005},
			{GastricFluid, 0.04},
		},
	}
}

func TestAirPathMatchesFriis(t *testing.T) {
	p := Path{AirDistance: 5}
	got := p.Amplitude(f915)
	want := FriisAmplitude(Wavelength(f915), 5)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("air path amplitude = %v, want Friis %v", got, want)
	}
}

func TestAmplitudeInverseWithDistanceInAir(t *testing.T) {
	p1 := Path{AirDistance: 2}
	p2 := Path{AirDistance: 4}
	r := p1.Amplitude(f915) / p2.Amplitude(f915)
	if math.Abs(r-2) > 1e-9 {
		t.Fatalf("amplitude ratio for 2× distance = %v, want 2 (1/r law)", r)
	}
}

func TestAmplitudeExponentialWithDepth(t *testing.T) {
	// Doubling tissue depth must square the tissue attenuation factor
	// (after removing spreading and boundary terms). Paper Eq. 2.
	mk := func(d float64) Path {
		return Path{AirDistance: 1, Layers: []Layer{{Muscle, d}}}
	}
	a1, a2 := mk(0.02), mk(0.04)
	// Strip the spreading and transmittance contributions.
	e1 := a1.Amplitude(f915) * a1.TotalLength() / a1.Transmittance(f915)
	e2 := a2.Amplitude(f915) * a2.TotalLength() / a2.Transmittance(f915)
	ratio := e2 / e1 // should be exp(-α·0.02)
	want := math.Exp(-Muscle.Alpha(f915) * 0.02)
	if math.Abs(ratio-want)/want > 1e-9 {
		t.Fatalf("depth attenuation ratio = %v, want %v", ratio, want)
	}
}

func TestTissueDominatesAirLoss(t *testing.T) {
	// Fig. 3's point: 5 cm of tissue costs far more than 5 cm of air.
	base := Path{AirDistance: 0.5}
	air := Path{AirDistance: 0.55}
	tissue := Path{AirDistance: 0.5, Layers: []Layer{{Muscle, 0.05}}}
	airExtra := base.LossDB(f915) - air.LossDB(f915)       // negative (loss grows)
	tissueExtra := tissue.LossDB(f915) - base.LossDB(f915) // positive loss added
	if tissueExtra < 10 {
		t.Fatalf("5 cm muscle adds only %v dB, want > 10 (paper: 11.5–35.4)", tissueExtra)
	}
	if math.Abs(airExtra) > 1.5 {
		t.Fatalf("5 cm extra air changed loss by %v dB, want < 1.5", airExtra)
	}
}

func TestMuscleLoss5cmMatchesPaper(t *testing.T) {
	// "This translates to a loss of 11.5 to 35.4 dB at a depth of 5 cm."
	with := Path{AirDistance: 1, Layers: []Layer{{Muscle, 0.05}}}
	without := Path{AirDistance: 1, Layers: []Layer{{Muscle, 1e-9}}}
	added := with.LossDB(f915) - without.LossDB(f915)
	if added < 11.5 || added > 35.4 {
		t.Fatalf("5 cm muscle adds %v dB, want within [11.5, 35.4]", added)
	}
}

func TestPathDepthAndLength(t *testing.T) {
	p := swinePath(0.5)
	wantDepth := 0.003 + 0.02 + 0.03 + 0.005 + 0.04
	if math.Abs(p.Depth()-wantDepth) > 1e-12 {
		t.Fatalf("Depth = %v, want %v", p.Depth(), wantDepth)
	}
	if math.Abs(p.TotalLength()-(0.5+wantDepth)) > 1e-12 {
		t.Fatalf("TotalLength = %v", p.TotalLength())
	}
}

func TestPhaseDelayGrowsWithDepthAndPermittivity(t *testing.T) {
	base := Path{AirDistance: 1}
	inFat := Path{AirDistance: 1, Layers: []Layer{{Fat, 0.05}}}
	inMuscle := Path{AirDistance: 1, Layers: []Layer{{Muscle, 0.05}}}
	if !(inMuscle.PhaseDelay(f915) > inFat.PhaseDelay(f915) && inFat.PhaseDelay(f915) > base.PhaseDelay(f915)) {
		t.Fatal("phase delay should grow with depth and εr")
	}
}

func TestPhaseDiffersAcrossFrequency(t *testing.T) {
	// The per-frequency phase spread is what makes the channel "blind":
	// two carriers 35 MHz apart decorrelate over a multi-meter path.
	p := swinePath(1)
	ph1 := math.Mod(p.PhaseDelay(915e6), 2*math.Pi)
	ph2 := math.Mod(p.PhaseDelay(880e6), 2*math.Pi)
	if math.Abs(ph1-ph2) < 1e-3 {
		t.Fatal("phases at 915 and 880 MHz are suspiciously aligned")
	}
}

func TestCoefficientMagnitudeMatchesAmplitude(t *testing.T) {
	p := swinePath(0.7)
	h := p.Coefficient(f915)
	if math.Abs(cmplx.Abs(h)-p.Amplitude(f915)) > 1e-15 {
		t.Fatal("coefficient magnitude != amplitude")
	}
}

func TestNearFieldClamp(t *testing.T) {
	p := Path{AirDistance: 0}
	if a := p.Amplitude(f915); math.IsInf(a, 1) || a > 1 {
		t.Fatalf("zero-length path amplitude = %v, want clamped finite < 1", a)
	}
}

// TestGroupDelaySlowerInTissue: the group delay dφ/dω of PhaseDelay, by
// central difference, is r/c in air and longer when part of the path is
// muscle.
func TestGroupDelaySlowerInTissue(t *testing.T) {
	groupDelay := func(p Path) float64 {
		const df = 1e6
		return (p.PhaseDelay(f915+df) - p.PhaseDelay(f915-df)) / (2 * math.Pi * 2 * df)
	}
	air := Path{AirDistance: 1}
	tissue := Path{AirDistance: 0.95, Layers: []Layer{{Muscle, 0.05}}}
	if d := groupDelay(air); math.Abs(d-1/C) > 1e-9/C {
		t.Fatalf("air group delay %v s, want %v s", d, 1/C)
	}
	if groupDelay(tissue) <= groupDelay(air) {
		t.Fatal("wave should travel slower through tissue than air")
	}
}

func TestPathValidate(t *testing.T) {
	if err := (Path{AirDistance: -1}).Validate(); err == nil {
		t.Fatal("negative air distance accepted")
	}
	if err := (Path{Layers: []Layer{{Muscle, -0.1}}}).Validate(); err == nil {
		t.Fatal("negative thickness accepted")
	}
	if err := swinePath(0.5).Validate(); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
}

// TestWithDepthAdjustsStack: SetDepth fits a layer stack to a new depth.
func TestWithDepthAdjustsStack(t *testing.T) {
	p := swinePath(0.5)
	layers := func() []Layer { return append([]Layer(nil), p.Layers...) }
	depth := func(ls []Layer) float64 { return Path{Layers: ls}.Depth() }
	q := SetDepth(layers(), 0.01) // shallower than skin+fat
	if math.Abs(depth(q)-0.01) > 1e-12 {
		t.Fatalf("SetDepth(0.01) depth = %v", depth(q))
	}
	q2 := SetDepth(layers(), 0.2) // deeper: final layer grows
	if math.Abs(depth(q2)-0.2) > 1e-12 {
		t.Fatalf("SetDepth(0.2) depth = %v", depth(q2))
	}
	if q2[len(q2)-1].Medium.Name != "gastric-fluid" {
		t.Fatal("deep extension should grow the innermost layer")
	}
	if len(SetDepth(nil, 0.2)) != 0 {
		t.Fatal("an empty stack should stay empty")
	}
}

// TestWithAirDistanceCopies: WithAirDistanceShared returns a copy of the
// path with the air segment replaced, leaves the receiver as it was and
// aliases the layer stack.
func TestWithAirDistanceCopies(t *testing.T) {
	p := swinePath(0.5)
	q := p.WithAirDistanceShared(2)
	if q.AirDistance != 2 || p.AirDistance != 0.5 {
		t.Fatal("WithAirDistanceShared wrong")
	}
	if len(q.Layers) != len(p.Layers) || &q.Layers[0] != &p.Layers[0] {
		t.Fatal("WithAirDistanceShared copied the layer stack")
	}
}

func TestPathString(t *testing.T) {
	s := swinePath(0.5).String()
	if s == "" {
		t.Fatal("empty path string")
	}
}

func TestChannelCoefficientComposition(t *testing.T) {
	p := Path{AirDistance: 2}
	c := NewChannel(p)
	c.TxGain = 2
	c.RxGain = 3
	c.OrientationGain = 0.5
	got := cmplx.Abs(c.Coefficient(f915))
	want := 2 * 3 * 0.5 * p.Amplitude(f915)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("channel coefficient = %v, want %v", got, want)
	}
}

func TestChannelMultipathCreatesFrequencySelectivity(t *testing.T) {
	r := rng.New(7)
	c := NewChannel(Path{AirDistance: 3})
	c.Rays = RichProfile.GenerateRaysInto(nil, r)
	// Over a wide span the gain must vary (fading), unlike the flat
	// direct-only channel.
	var min, max float64 = math.Inf(1), 0
	for f := 880e6; f <= 950e6; f += 1e6 {
		g := cmplx.Abs(c.Coefficient(f))
		g *= g
		min = math.Min(min, g)
		max = math.Max(max, g)
	}
	if max/min < 1.5 {
		t.Fatalf("multipath channel too flat: max/min = %v", max/min)
	}
}

func TestChannelNarrowbandOverCIBOffsets(t *testing.T) {
	// CIB frequency offsets are < 200 Hz; the channel must be essentially
	// constant over that span (coherence-bandwidth assumption, §3.7).
	r := rng.New(8)
	c := NewChannel(swinePath(1))
	c.Rays = DefaultIndoorProfile.GenerateRaysInto(nil, r)
	h0 := c.Coefficient(915e6)
	h1 := c.Coefficient(915e6 + 137)
	if cmplx.Abs(h0-h1)/cmplx.Abs(h0) > 1e-3 {
		t.Fatalf("channel varies over 137 Hz: %v vs %v", h0, h1)
	}
}

func TestGenerateRaysDeterministic(t *testing.T) {
	a := DefaultIndoorProfile.GenerateRaysInto(nil, rng.New(5))
	b := DefaultIndoorProfile.GenerateRaysInto(nil, rng.New(5))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ray generation not deterministic")
		}
	}
	if got := (MultipathProfile{}).GenerateRaysInto(nil, rng.New(1)); got != nil {
		t.Fatal("zero-ray profile should return nil")
	}
}

func TestGenerateRaysMeanPower(t *testing.T) {
	r := rng.New(6)
	mp := MultipathProfile{Rays: 20000, MaxExcessMeters: 3, MeanRelPower: 0.1}
	rays := mp.GenerateRaysInto(nil, r)
	var p float64
	for _, ray := range rays {
		p += real(ray.Gain)*real(ray.Gain) + imag(ray.Gain)*imag(ray.Gain)
	}
	p /= float64(len(rays))
	if math.Abs(p-0.1)/0.1 > 0.05 {
		t.Fatalf("mean ray power = %v, want ≈0.1", p)
	}
}

func TestDipoleOrientationGain(t *testing.T) {
	if g := DipoleOrientationGain(0, 0.05); g != 1 {
		t.Fatalf("aligned gain = %v, want 1", g)
	}
	if g := DipoleOrientationGain(math.Pi/2, 0.05); g != 0.05 {
		t.Fatalf("cross-polarized gain = %v, want floor 0.05", g)
	}
}

func TestQuickAmplitudeMonotoneInDepth(t *testing.T) {
	f := func(d1, d2 uint8) bool {
		a := 0.01 + float64(d1)/1000 // 1..26.5 cm
		b := 0.01 + float64(d2)/1000
		if a > b {
			a, b = b, a
		}
		pa := Path{AirDistance: 1, Layers: []Layer{{Muscle, a}}}
		pb := Path{AirDistance: 1, Layers: []Layer{{Muscle, b}}}
		return pa.Amplitude(f915) >= pb.Amplitude(f915)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLossPositive(t *testing.T) {
	f := func(air uint8, depth uint8) bool {
		p := Path{
			AirDistance: 0.3 + float64(air)/50,
			Layers:      []Layer{{Muscle, float64(depth) / 2000}},
		}
		return p.LossDB(f915) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
