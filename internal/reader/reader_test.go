package reader

import (
	"math"
	"math/cmplx"
	"testing"

	"ivn/internal/gen2"
	"ivn/internal/radio"
	"ivn/internal/rng"
	"ivn/internal/tag"
)

// makeReply builds a powered tag's RN16 backscatter waveform.
func makeReply(t *testing.T, sp int) (*tag.Tag, gen2.Reply, []float64) {
	t.Helper()
	tg, err := tag.New(tag.StandardTag(), []byte{0x12, 0x34}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tg.UpdatePower(tg.Model.MinPeakPower() * 2)
	reply := tg.HandleCommand(&gen2.Query{Q: 0})
	if reply.Kind != gen2.ReplyRN16 {
		t.Fatalf("reply = %s", reply.Kind)
	}
	bs, err := tg.BackscatterWaveform(reply, sp)
	if err != nil {
		t.Fatal(err)
	}
	return tg, reply, bs
}

func TestValidate(t *testing.T) {
	if err := New().Validate(); err != nil {
		t.Fatal(err)
	}
	// Zero values mean "use the default" and must validate; only
	// meaningless negative settings are rejected.
	zeros := []func(*Reader){
		func(r *Reader) { r.TxFreq = 0 },
		func(r *Reader) { r.TxAmplitude = 0 },
		func(r *Reader) { r.RX = nil },
		func(r *Reader) { r.SamplesPerHalfBit = 0 },
		func(r *Reader) { r.AveragingPeriods = 0 },
		func(r *Reader) { r.CorrelationThreshold = 0 },
	}
	for i, mutate := range zeros {
		r := New()
		mutate(r)
		if err := r.Validate(); err != nil {
			t.Errorf("zero mutation %d rejected: %v", i, err)
		}
	}
	mutations := []func(*Reader){
		func(r *Reader) { r.TxFreq = -880e6 },
		func(r *Reader) { r.TxAmplitude = -1 },
		func(r *Reader) { r.SamplesPerHalfBit = -8 },
		func(r *Reader) { r.AveragingPeriods = -32 },
		func(r *Reader) { r.CorrelationThreshold = -0.5 },
		func(r *Reader) { r.CorrelationThreshold = 1.5 },
	}
	for i, mutate := range mutations {
		r := New()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDecodeUplinkCleanLink(t *testing.T) {
	r := New()
	_, reply, bs := makeReply(t, r.SamplesPerHalfBit)
	link := RoundTripGain(r.TxAmplitude, complex(1e-2, 0), complex(0, 1e-2))
	res, err := r.DecodeUplink(bs, link, nil, 16, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bits.Equal(reply.Bits) {
		t.Fatalf("decoded %s, want %s", res.Bits, reply.Bits)
	}
	if res.Correlation < 0.9 {
		t.Fatalf("clean-link correlation %v", res.Correlation)
	}
}

// TestDecodeUplinkDrawsTwoNormalsPerSample pins the capture noise, which
// DecodeUplink draws noiseBlock samples at a time, to exactly two
// normals per sample: after the decode the generator must stand where
// one NormFloat64s call over 2·len(bs) values leaves it, for captures on
// both sides of a block edge.
func TestDecodeUplinkDrawsTwoNormalsPerSample(t *testing.T) {
	r := New()
	_, _, bs := makeReply(t, r.SamplesPerHalfBit)
	link := RoundTripGain(r.TxAmplitude, complex(1e-2, 0), complex(0, 1e-2))
	for _, n := range []int{1, noiseBlock - 1, noiseBlock, noiseBlock + 1, 2*noiseBlock + 1} {
		capture := make([]float64, n)
		for i := range capture {
			capture[i] = bs[i%len(bs)]
		}
		got := rng.New(uint64(n))
		_, _ = r.DecodeUplink(capture, link, nil, 16, got)
		want := rng.New(uint64(n))
		want.NormFloat64s(make([]float64, 2*n))
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Errorf("%d samples: generator after the decode gives %#x, after %d normals %#x", n, g, 2*n, w)
		}
	}
}

func TestDecodeUplinkFailsWhenWeak(t *testing.T) {
	r := New()
	_, _, bs := makeReply(t, r.SamplesPerHalfBit)
	// Link gain so small the signal drowns below the noise floor.
	link := complex(1e-9, 0)
	if _, err := r.DecodeUplink(bs, link, nil, 16, rng.New(3)); err == nil {
		t.Fatal("decoded a hopeless link")
	}
}

func TestAveragingRescuesWeakLink(t *testing.T) {
	// The §5b mechanism: a link that fails with K=1 succeeds with enough
	// coherent averaging.
	base := New()
	_, reply, bs := makeReply(t, base.SamplesPerHalfBit)
	// |link|·modAmp = 2.5e-6·0.132 ≈ 3.3e-7 against a per-capture noise
	// σ = 7.07e-7: hopeless at K=1, comfortable at K=64.
	link := complex(2.5e-6, 0)
	single := New()
	single.AveragingPeriods = 1
	failures := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		if _, err := single.DecodeUplink(bs, link, nil, 16, rng.New(uint64(10+i))); err != nil {
			failures++
		}
	}
	if failures < trials/2 {
		t.Fatalf("single-capture decode failed only %d/%d; link too strong for this test", failures, trials)
	}
	many := New()
	many.AveragingPeriods = 64
	ok := 0
	for i := 0; i < trials; i++ {
		res, err := many.DecodeUplink(bs, link, nil, 16, rng.New(uint64(10+i)))
		if err == nil && res.Bits.Equal(reply.Bits) {
			ok++
		}
	}
	if ok < trials*8/10 {
		t.Fatalf("64-period averaging decoded only %d/%d", ok, trials)
	}
}

func TestJammingSaturatesWithoutFilterHeadroom(t *testing.T) {
	r := New()
	_, _, bs := makeReply(t, r.SamplesPerHalfBit)
	link := complex(3e-3, 0)
	// 10 dBm of CIB leakage at the reader antenna: post-SAW ≈ −37 dBm,
	// below the −20 dBm saturation → fine. 40 dBm would saturate.
	okJam := []radio.ToneAt{{Freq: 915e6, Power: 1e-2}}
	if _, err := r.DecodeUplink(bs, link, okJam, 16, rng.New(5)); err != nil {
		t.Fatalf("moderate filtered jam broke decode: %v", err)
	}
	hardJam := []radio.ToneAt{{Freq: 915e6, Power: 1e4}}
	if _, err := r.DecodeUplink(bs, link, hardJam, 16, rng.New(5)); err == nil {
		t.Fatal("saturating jam decoded anyway")
	}
	// The receiver's saturation check is the one DecodeUplink makes
	// before decoding.
	if !r.rx().Saturated(hardJam) {
		t.Fatal("saturation check disagrees with the decoder")
	}
	if r.rx().Saturated(okJam) {
		t.Fatal("saturation reported for filtered leak")
	}
}

func TestInBandReaderWouldBeJammed(t *testing.T) {
	// The §4 motivation: the same reader moved in-band (915 MHz center,
	// filter passes the jam) saturates at realistic leak power.
	inBand := New()
	inBand.TxFreq = 915e6
	inBand.RX = radio.NewReceiver(915e6)
	leak := []radio.ToneAt{{Freq: 915e6, Power: 1e-3}}
	if !inBand.rx().Saturated(leak) {
		t.Fatal("in-band receiver survived 0 dBm CIB leak")
	}
	outBand := New()
	if outBand.rx().Saturated(leak) {
		t.Fatal("out-of-band receiver saturated at 0 dBm leak")
	}
}

func TestDecodableRN16BudgetConsistent(t *testing.T) {
	// The fast predicate must agree with the waveform decoder near the
	// operating point: where the budget says yes, decoding succeeds most
	// of the time, and vice versa well away from the edge.
	r := New()
	_, reply, bs := makeReply(t, r.SamplesPerHalfBit)
	modAmp := ModulationAmplitude(0.33, 0.8)
	strong := complex(1e-4, 0)
	weak := complex(1e-8, 0)
	if !r.DecodableRN16(strong, modAmp, nil) {
		t.Fatal("budget rejects a strong link")
	}
	if r.DecodableRN16(weak, modAmp, nil) {
		t.Fatal("budget accepts a hopeless link")
	}
	res, err := r.DecodeUplink(bs, strong, nil, 16, rng.New(8))
	if err != nil || !res.Bits.Equal(reply.Bits) {
		t.Fatalf("waveform decode disagrees with budget on strong link: %v", err)
	}
	if r.DecodableRN16(0, modAmp, nil) {
		t.Fatal("zero link decodable")
	}
	// Budget-vs-waveform agreement across a sweep around the threshold:
	// wherever the budget says yes, the waveform decoder must succeed in
	// the large majority of noise draws.
	for _, mag := range []float64{1e-6, 2e-6, 4e-6, 8e-6, 1.6e-5} {
		link := complex(mag, 0)
		if !r.DecodableRN16(link, modAmp, nil) {
			continue
		}
		ok := 0
		for i := 0; i < 10; i++ {
			if res, err := r.DecodeUplink(bs, link, nil, 16, rng.New(uint64(100+i))); err == nil && res.Bits.Equal(reply.Bits) {
				ok++
			}
		}
		if ok < 8 {
			t.Fatalf("budget approves |link|=%v but waveform decodes only %d/10", mag, ok)
		}
	}
}

func TestDecodeUplinkComplexLinkPhase(t *testing.T) {
	// The link phase is arbitrary (unknown channel); derotation must make
	// decoding phase-invariant.
	r := New()
	_, reply, bs := makeReply(t, r.SamplesPerHalfBit)
	for _, ph := range []float64{0.3, 1.7, 3.0, 5.1} {
		link := cmplx.Rect(1e-3, ph)
		res, err := r.DecodeUplink(bs, link, nil, 16, rng.New(9))
		if err != nil {
			t.Fatalf("phase %v: %v", ph, err)
		}
		if !res.Bits.Equal(reply.Bits) {
			t.Fatalf("phase %v: wrong bits", ph)
		}
	}
}

func TestDecodeUplinkErrors(t *testing.T) {
	r := New()
	if _, err := r.DecodeUplink(nil, 1, nil, 16, rng.New(1)); err == nil {
		t.Fatal("empty waveform accepted")
	}
	bad := New()
	bad.AveragingPeriods = -1
	if _, err := bad.DecodeUplink([]float64{1}, 1, nil, 16, rng.New(1)); err == nil {
		t.Fatal("invalid reader decoded")
	}
}

func TestRoundTripGainComposition(t *testing.T) {
	g := RoundTripGain(2, complex(0, 0.1), complex(0.1, 0))
	want := complex(2, 0) * complex(0, 0.1) * complex(0.1, 0)
	if cmplx.Abs(g-want) > 1e-15 {
		t.Fatalf("round trip = %v, want %v", g, want)
	}
	if math.Abs(cmplx.Abs(g)-0.02) > 1e-12 {
		t.Fatalf("|g| = %v", cmplx.Abs(g))
	}
	if got := ModulationAmplitude(0.33, 0.8); math.Abs(got-0.132) > 1e-12 {
		t.Fatalf("modulation amplitude = %v", got)
	}
}

func BenchmarkDecodeUplink(b *testing.B) {
	r := New()
	tg, _ := tag.New(tag.StandardTag(), []byte{0x12, 0x34}, rng.New(1))
	tg.UpdatePower(tg.Model.MinPeakPower() * 2)
	reply := tg.HandleCommand(&gen2.Query{Q: 0})
	bs, _ := tg.BackscatterWaveform(reply, r.SamplesPerHalfBit)
	link := complex(1e-4, 0)
	rnd := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.DecodeUplink(bs, link, nil, 16, rnd); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCoherentAveragingGainProperties(t *testing.T) {
	// No drift: full coherence regardless of K.
	for _, k := range []int{1, 4, 32} {
		if g := CoherentAveragingGain(k, 0); g != 1 {
			t.Fatalf("K=%d no-drift gain %v, want 1", k, g)
		}
	}
	// Monotone decreasing in drift.
	prev := 1.0
	for _, s2 := range []float64{0.01, 0.1, 0.5, 2, 10} {
		g := CoherentAveragingGain(16, s2)
		if g >= prev {
			t.Fatalf("gain not decreasing at σ²=%v: %v >= %v", s2, g, prev)
		}
		if g < 1.0/16-1e-9 {
			t.Fatalf("gain %v fell below the non-coherent floor 1/K", g)
		}
		prev = g
	}
	// Heavy drift approaches the 1/K non-coherent floor.
	if g := CoherentAveragingGain(16, 100); g > 1.2/16 {
		t.Fatalf("heavy-drift gain %v, want ≈1/16", g)
	}
	if CoherentAveragingGain(0, 1) != 0 {
		t.Fatal("K=0 gain != 0")
	}
}

func TestPhaseDriftErodesWeakLinkDecoding(t *testing.T) {
	// The same marginal link that 64-period averaging rescues with a
	// shared reference fails when the oscillators free-run.
	_, reply, bs := makeReply(t, New().SamplesPerHalfBit)
	link := complex(2.5e-6, 0)
	locked := New()
	locked.AveragingPeriods = 64
	drifting := New()
	drifting.AveragingPeriods = 64
	drifting.PhaseDriftPerPeriod = 2.0 // rad²/period: free-running TCXO-class

	okLocked, okDrifting := 0, 0
	const trials = 10
	for i := 0; i < trials; i++ {
		if res, err := locked.DecodeUplink(bs, link, nil, 16, rng.New(uint64(40+i))); err == nil && res.Bits.Equal(reply.Bits) {
			okLocked++
		}
		if res, err := drifting.DecodeUplink(bs, link, nil, 16, rng.New(uint64(40+i))); err == nil && res.Bits.Equal(reply.Bits) {
			okDrifting++
		}
	}
	if okLocked < trials*8/10 {
		t.Fatalf("locked reference decoded only %d/%d", okLocked, trials)
	}
	if okDrifting > okLocked/2 {
		t.Fatalf("free-running decoded %d/%d vs locked %d/%d; drift model inert", okDrifting, trials, okLocked, trials)
	}
	// The budget predicate agrees.
	modAmp := ModulationAmplitude(0.33, 0.8)
	if !locked.DecodableRN16(link, modAmp, nil) {
		t.Fatal("budget rejects the locked link")
	}
	if drifting.DecodableRN16(link, modAmp, nil) {
		t.Fatal("budget accepts the drifting link")
	}
}

func TestMillerUplinkEndToEnd(t *testing.T) {
	// A Query with M=1 (Miller-2) switches the whole uplink chain: the tag
	// modulates Miller, the reader decodes Miller.
	for _, mField := range []byte{1, 2, 3} {
		m := 2 << (mField - 1) // 2, 4, 8
		tg, err := tag.New(tag.StandardTag(), []byte{0x12, 0x34}, rng.New(uint64(60+mField)))
		if err != nil {
			t.Fatal(err)
		}
		tg.UpdatePower(tg.Model.MinPeakPower() * 2)
		reply := tg.HandleCommand(&gen2.Query{Q: 0, M: mField})
		if reply.Kind != gen2.ReplyRN16 {
			t.Fatalf("M=%d: reply %s", m, reply.Kind)
		}
		if tg.Logic.Miller() != m {
			t.Fatalf("tag encoding %d, want %d", tg.Logic.Miller(), m)
		}
		r := New()
		r.Miller = m
		bs, err := tg.BackscatterWaveform(reply, r.SamplesPerHalfBit)
		if err != nil {
			t.Fatal(err)
		}
		link := complex(1e-3, 0)
		res, err := r.DecodeUplink(bs, link, nil, 16, rng.New(uint64(70+mField)))
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if !res.Bits.Equal(reply.Bits) {
			t.Fatalf("M=%d: decoded %s, want %s", m, res.Bits, reply.Bits)
		}
	}
}

func TestMillerDecoderRejectsFM0Waveform(t *testing.T) {
	// Cross-decoding must fail loudly, not silently return wrong bits.
	tg, err := tag.New(tag.StandardTag(), []byte{0x12, 0x34}, rng.New(80))
	if err != nil {
		t.Fatal(err)
	}
	tg.UpdatePower(tg.Model.MinPeakPower() * 2)
	reply := tg.HandleCommand(&gen2.Query{Q: 0}) // FM0 round
	r := New()
	r.Miller = 4
	bs, err := tg.BackscatterWaveform(reply, r.SamplesPerHalfBit)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.DecodeUplink(bs, complex(1e-3, 0), nil, 16, rng.New(81))
	if err == nil && res.Bits.Equal(reply.Bits) {
		t.Fatal("Miller reader decoded an FM0 waveform correctly; cross-check broken")
	}
}
