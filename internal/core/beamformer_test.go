package core

import (
	"math"
	"testing"

	"ivn/internal/gen2"
	"ivn/internal/radio"
	"ivn/internal/rng"
)

func TestNewBeamformerDefaults(t *testing.T) {
	b, err := New(DefaultConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != 10 {
		t.Fatalf("N = %d, want 10", b.N())
	}
	if b.CenterFreq != 915e6 {
		t.Fatalf("center = %v", b.CenterFreq)
	}
	cs := b.Carriers()
	for i, c := range cs {
		want := 915e6 + PaperOffsets()[i]
		if c.Freq != want {
			t.Fatalf("carrier %d at %v, want %v", i, c.Freq, want)
		}
		if c.Amplitude <= 0 {
			t.Fatalf("carrier %d amplitude %v", i, c.Amplitude)
		}
	}
}

func TestNewBeamformerTruncatesOffsets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Antennas = 4
	b, err := New(cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != 4 {
		t.Fatalf("N = %d", b.N())
	}
}

func TestNewBeamformerValidation(t *testing.T) {
	r := rng.New(1)
	cfg := DefaultConfig()
	cfg.Offsets = []float64{5, 10} // missing zero reference
	if _, err := New(cfg, r); err == nil {
		t.Fatal("invalid offsets accepted")
	}
	cfg = DefaultConfig()
	cfg.Antennas = 99
	if _, err := New(cfg, r); err == nil {
		t.Fatal("more antennas than offsets accepted")
	}
	cfg = DefaultConfig()
	cfg.CenterFreq = -5
	if _, err := New(cfg, r); err == nil {
		t.Fatal("negative center accepted")
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestZeroConfigGetsDefaults(t *testing.T) {
	b, err := New(Config{}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if b.CenterFreq != 915e6 || b.N() != 10 {
		t.Fatalf("zero config produced center=%v N=%d", b.CenterFreq, b.N())
	}
}

// freshOperatingDrive runs the amplifier's operating-point search anew,
// bypassing the value radio derives once for DefaultPA.
func freshOperatingDrive(t *testing.T, pa radio.PowerAmp) float64 {
	t.Helper()
	d, err := pa.DriveFor(math.Sqrt(math.Pow(10, (pa.P1dBm-30)/10)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestNewDrivesChainsAtFreshOperatingPoint pins the zero-DriveAmplitude
// default: every chain carries exactly the drive a fresh search returns,
// whether the amplifier is the default one (whose operating point radio
// computes once per process) or another.
func TestNewDrivesChainsAtFreshOperatingPoint(t *testing.T) {
	other := DefaultConfig()
	other.PA = radio.PowerAmp{GainDB: 17, P1dBm: 27, Smoothness: 3}
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "zero": {}, "other PA": other} {
		b, err := New(cfg, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		pa := cfg.PA
		if pa == (radio.PowerAmp{}) {
			pa = radio.DefaultPA()
		}
		want := freshOperatingDrive(t, pa)
		amp := pa.Amplify(want)
		for i, c := range b.Array.Chains {
			if c.DriveAmplitude != want {
				t.Fatalf("%s: chain %d drive %v, fresh search %v", name, i, c.DriveAmplitude, want)
			}
			if got := c.Carrier().Amplitude; got != amp {
				t.Fatalf("%s: chain %d amplitude %v, want %v", name, i, got, amp)
			}
		}
	}
}

func TestRelockChangesPhases(t *testing.T) {
	b, err := New(DefaultConfig(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	p1 := b.Carriers()[3].Phase
	b.Relock(rng.New(5))
	p2 := b.Carriers()[3].Phase
	if p1 == p2 {
		t.Fatal("relock kept the same phase")
	}
}

func TestEqualPowerCarriers(t *testing.T) {
	b, err := New(DefaultConfig(), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	full := b.Carriers()
	eq := b.EqualPowerCarriers()
	var fullP, eqP float64
	for i := range full {
		fullP += full[i].Amplitude * full[i].Amplitude
		eqP += eq[i].Amplitude * eq[i].Amplitude
	}
	// Equal-power budget: total power equals one chain's power.
	onechain := full[0].Amplitude * full[0].Amplitude
	if math.Abs(eqP-onechain)/onechain > 1e-9 {
		t.Fatalf("equal-power total %v, want %v", eqP, onechain)
	}
	if math.Abs(fullP-10*onechain)/onechain > 1e-9 {
		t.Fatalf("full-power total %v, want %v", fullP, 10*onechain)
	}
}

func TestTransmitCommandFlatnessEnforced(t *testing.T) {
	b, err := New(DefaultConfig(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := b.TransmitCommand(&gen2.Query{Q: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.Carriers) != 10 || len(tx.Envelope) == 0 {
		t.Fatalf("transmission incomplete: %d carriers, %d samples", len(tx.Carriers), len(tx.Envelope))
	}
	if tx.Duration <= 0 || tx.SampleRate != b.PIE.SampleRate {
		t.Fatalf("bad metadata: dur=%v fs=%v", tx.Duration, tx.SampleRate)
	}
	// A kHz-offset plan must be rejected for the same command.
	cfg := DefaultConfig()
	cfg.Offsets = []float64{0, 1000, 2000, 3000}
	cfg.Antennas = 4
	wide, err := New(cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wide.TransmitCommand(&gen2.Query{}, true); err == nil {
		t.Fatal("flatness-violating plan transmitted")
	}
}

func TestTransmitSelectThenQuery(t *testing.T) {
	b, err := New(DefaultConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	mask := gen2.BitsFromBytes([]byte{0xE2})
	sel := &gen2.Select{Target: 4, Action: 0, MemBank: 1, Mask: mask}
	q := &gen2.Query{Sel: 3, Q: 0}
	ts, tq, err := b.TransmitSelectThenQuery(sel, q)
	if err != nil {
		t.Fatal(err)
	}
	if ts == nil || tq == nil {
		t.Fatal("missing transmissions")
	}
	// The compound is longer than a lone query; duration must reflect it.
	if ts.Duration+tq.Duration <= tq.Duration {
		t.Fatal("select added no duration")
	}
	// The serialized commands decode back.
	if _, err := gen2.DecodeCommand(ts.Command); err != nil {
		t.Fatal(err)
	}
	if _, err := gen2.DecodeCommand(tq.Command); err != nil {
		t.Fatal(err)
	}
}

func TestHopCenterPicksBestBand(t *testing.T) {
	b, err := New(DefaultConfig(), rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	candidates := []float64{902e6, 915e6, 928e6}
	// Probe peaks at 928 MHz.
	probe := func(c float64) float64 { return -math.Abs(c - 928e6) }
	got, err := b.HopCenter(candidates, probe)
	if err != nil {
		t.Fatal(err)
	}
	if got != 928e6 || b.CenterFreq != 928e6 {
		t.Fatalf("hopped to %v", got)
	}
	// Chains follow: chain i at 928 MHz + Δfᵢ.
	for i, ch := range b.Array.Chains {
		if ch.Osc.Freq != 928e6+b.Offsets[i] {
			t.Fatalf("chain %d at %v after hop", i, ch.Osc.Freq)
		}
	}
	if _, err := b.HopCenter(nil, probe); err == nil {
		t.Fatal("empty candidate list accepted")
	}
}

func TestBeamformedEnvelopeAtSensorPeaksAboveSingleAntenna(t *testing.T) {
	// End-to-end core property: with unit channels, the CIB envelope's
	// peak beats any single carrier's constant amplitude.
	b, err := New(DefaultConfig(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cs := b.Carriers()
	chans := make([]complex128, len(cs))
	for i := range chans {
		chans[i] = 1
	}
	y, err := radio.ReceivedBaseband(cs, chans, b.CenterFreq, 10e3, 10000) // 1 s
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, v := range y {
		if m := math.Hypot(real(v), imag(v)); m > peak {
			peak = m
		}
	}
	single := cs[0].Amplitude
	if peak < 4*single {
		t.Fatalf("CIB peak %v < 4× single amplitude %v", peak, single)
	}
}
