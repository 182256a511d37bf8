package radio

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"ivn/internal/rng"
)

func TestOscillatorLockRandomizesPhase(t *testing.T) {
	r := rng.New(1)
	o := Oscillator{Freq: 915e6}
	o.Lock(r)
	p1 := o.Phase()
	o.Lock(r)
	p2 := o.Phase()
	if p1 == p2 {
		t.Fatal("two locks produced identical phases")
	}
	for _, p := range []float64{p1, p2} {
		if p < 0 || p >= 2*math.Pi {
			t.Fatalf("phase %v outside [0,2π)", p)
		}
	}
}

func TestOscillatorPhaseBeforeLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Phase before Lock did not panic")
		}
	}()
	o := Oscillator{Freq: 915e6}
	_ = o.Phase()
}

func TestOscillatorPhaseUniform(t *testing.T) {
	r := rng.New(2)
	o := Oscillator{Freq: 915e6}
	buckets := make([]int, 8)
	const n = 8000
	for i := 0; i < n; i++ {
		o.Lock(r)
		buckets[int(o.Phase()/(2*math.Pi)*8)]++
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-n/8) > 5*math.Sqrt(n/8) {
			t.Fatalf("phase bucket %d has %d locks, want ≈%d", i, c, n/8)
		}
	}
}

func TestPALinearRegion(t *testing.T) {
	pa := DefaultPA()
	// Tiny input: output ≈ gain × input.
	in := 1e-4
	want := in * math.Pow(10, pa.GainDB/20)
	got := pa.Amplify(in)
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("small-signal gain off: %v vs %v", got, want)
	}
}

func TestPACompressionAtP1dB(t *testing.T) {
	pa := DefaultPA()
	// Find the input whose linear output would be P1dB+1dB... simpler:
	// verify the model's defining property — at the drive level where the
	// output hits P1dB, gain is compressed by ≈1 dB.
	p1Watts := math.Pow(10, (pa.P1dBm-30)/10)
	aOut := math.Sqrt(p1Watts)
	g := math.Pow(10, pa.GainDB/20)
	aIn := aOut / g * math.Pow(10, 1.0/20) // linear output 1 dB above P1dB
	got := pa.Amplify(aIn)
	compDB := 20 * math.Log10(g*aIn/got)
	if math.Abs(compDB-1) > 0.2 {
		t.Fatalf("compression at P1dB drive = %v dB, want ≈1", compDB)
	}
}

func TestPASaturationCeiling(t *testing.T) {
	pa := DefaultPA()
	big := pa.Amplify(1e3)
	ceiling := pa.MaxOutputAmplitude()
	if big > ceiling*1.0001 {
		t.Fatalf("output %v exceeded saturation %v", big, ceiling)
	}
	// Monotone nondecreasing.
	prev := 0.0
	for in := 0.0; in < 1; in += 0.01 {
		out := pa.Amplify(in)
		if out < prev {
			t.Fatalf("PA not monotone at %v", in)
		}
		prev = out
	}
	if pa.Amplify(-1) != 0 {
		t.Fatal("negative drive produced output")
	}
}

func TestAntennaGain(t *testing.T) {
	a := Antenna{GainDBi: 7}
	want := math.Pow(10, 7.0/20)
	if g := a.AmplitudeGain(); math.Abs(g-want) > 1e-12 {
		t.Fatalf("amplitude gain = %v, want %v", g, want)
	}
	if g := (Antenna{}).AmplitudeGain(); g != 1 {
		t.Fatalf("isotropic gain = %v, want 1", g)
	}
}

func TestNewUniformArrayValidation(t *testing.T) {
	if _, err := NewUniformArray(nil, 1, DefaultPA(), Antenna{}); err == nil {
		t.Fatal("empty array accepted")
	}
	if _, err := NewUniformArray([]float64{915e6}, 0, DefaultPA(), Antenna{}); err == nil {
		t.Fatal("zero drive accepted")
	}
	if _, err := NewUniformArray([]float64{0}, 1, DefaultPA(), Antenna{}); err == nil {
		t.Fatal("zero frequency accepted")
	}
}

func TestArrayLockAndCarriers(t *testing.T) {
	freqs := []float64{915e6, 915e6 + 7, 915e6 + 20}
	arr, err := NewUniformArray(freqs, 0.1, DefaultPA(), Antenna{GainDBi: 7})
	if err != nil {
		t.Fatal(err)
	}
	arr.Lock(rng.New(5))
	cs := arr.Carriers()
	if len(cs) != 3 {
		t.Fatalf("%d carriers", len(cs))
	}
	for i, c := range cs {
		if c.Freq != freqs[i] {
			t.Fatalf("carrier %d freq %v", i, c.Freq)
		}
		if c.Amplitude <= 0 {
			t.Fatalf("carrier %d amplitude %v", i, c.Amplitude)
		}
	}
	// Phases differ across chains (independent PLLs).
	if cs[0].Phase == cs[1].Phase && cs[1].Phase == cs[2].Phase {
		t.Fatal("all PLLs locked at the same phase")
	}
	if p := arr.TotalRadiatedPower(); p <= 0 {
		t.Fatalf("total power %v", p)
	}
}

func TestArrayLockDeterministicPerSeed(t *testing.T) {
	mk := func(seed uint64) []Carrier {
		arr, _ := NewUniformArray([]float64{915e6, 915e6 + 7}, 0.1, DefaultPA(), Antenna{})
		arr.Lock(rng.New(seed))
		return arr.Carriers()
	}
	a, b := mk(9), mk(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different carrier phases")
		}
	}
}

func TestSharedClockAlignment(t *testing.T) {
	c := DefaultClock()
	// 5 ns jitter against a 12.5 µs Tari: easily aligned within 1%.
	if !c.CommandAligned(12.5e-6, 0.01) {
		t.Fatal("default clock cannot align Gen2 symbols")
	}
	// A microsecond-jitter clock cannot.
	bad := SharedClock{RefFreq: 10e6, SyncJitter: 1e-6}
	if bad.CommandAligned(12.5e-6, 0.01) {
		t.Fatal("sloppy clock reported aligned")
	}
	// Offsets are centred and small.
	r := rng.New(3)
	var acc, count float64
	for i := 0; i < 1000; i++ {
		off := c.StartOffset(r)
		acc += off
		count++
		if math.Abs(off) > 6*c.SyncJitter {
			t.Fatalf("offset %v beyond 6σ", off)
		}
	}
	if math.Abs(acc/count) > c.SyncJitter {
		t.Fatalf("offsets biased: mean %v", acc/count)
	}
}

func TestSAWFilterShape(t *testing.T) {
	f := DefaultSAW(880e6)
	if a := f.AttenuationDB(880e6); math.Abs(a-f.InsertionLossDB) > 1e-9 {
		t.Fatalf("center attenuation %v", a)
	}
	if a := f.AttenuationDB(915e6); a < f.RejectionDB {
		t.Fatalf("915 MHz attenuation %v dB, want >= %v", a, f.RejectionDB)
	}
	// Skirt is monotone.
	prev := f.AttenuationDB(880e6)
	for off := 0.0; off <= 20e6; off += 0.5e6 {
		a := f.AttenuationDB(880e6 + off)
		if a < prev-1e-9 {
			t.Fatalf("skirt not monotone at +%v Hz", off)
		}
		prev = a
	}
	// Apply: power scaling matches dB.
	in := 1e-3
	out := f.Apply(in, 915e6)
	wantDB := f.AttenuationDB(915e6)
	if math.Abs(10*math.Log10(in/out)-wantDB) > 1e-9 {
		t.Fatal("Apply disagrees with AttenuationDB")
	}
}

func TestReceiverSelfJammingScenario(t *testing.T) {
	// The §4 story: an in-band reader is saturated by CIB transmitters; an
	// out-of-band reader with a SAW filter is not.
	jam := []ToneAt{{Freq: 915e6, Power: 1e-3}} // 0 dBm of leaked CIB power
	inBand := NewReceiver(915e6)
	outBand := NewReceiver(880e6)
	if !inBand.Saturated(jam) {
		t.Fatal("in-band receiver survived 0 dBm jamming")
	}
	if outBand.Saturated(jam) {
		t.Fatal("out-of-band receiver saturated despite SAW rejection")
	}
}

func TestReceiverSNR(t *testing.T) {
	rx := NewReceiver(880e6)
	// Signal at −60 dBm against the −90 dBm floor: ≈30 dB.
	snr := rx.SNRdB(1e-9, nil)
	if math.Abs(snr-30) > 0.5 {
		t.Fatalf("SNR = %v dB, want ≈30", snr)
	}
	// Out-of-band jam is attenuated by the filter before it degrades SNR:
	// the residual jam power must match the filter's rejection, and the
	// unfiltered jam would have been catastrophically worse.
	jam := []ToneAt{{Freq: 915e6, Power: 1e-6}}
	snrJam := rx.SNRdB(1e-9, jam)
	if snrJam > snr {
		t.Fatal("jamming improved SNR")
	}
	residual := rx.EffectiveInterference(jam)
	wantSNR := 10 * math.Log10(1e-9/(rx.NoiseFloor+residual))
	if math.Abs(snrJam-wantSNR) > 0.1 {
		t.Fatalf("jammed SNR %v dB, want %v", snrJam, wantSNR)
	}
	// The 35 MHz-offset tone is outside the digital channel, so the
	// combined analog+digital rejection (≈107 dB) must leave the SNR
	// essentially at the thermal limit.
	if snr-snrJam > 1 {
		t.Fatalf("out-of-channel tone still cost %v dB", snr-snrJam)
	}
	unfiltered := 10 * math.Log10(1e-9/(rx.NoiseFloor+jam[0].Power))
	if snrJam-unfiltered < 40 {
		t.Fatalf("filtering only bought %v dB of SNR", snrJam-unfiltered)
	}
	// An in-channel jammer receives no digital rejection.
	eff := rx.EffectiveInterference([]ToneAt{{Freq: 880e6 + 100e3, Power: 1e-9}})
	wantEff := rx.Filter.Apply(1e-9, 880e6+100e3)
	if math.Abs(eff-wantEff)/wantEff > 1e-9 {
		t.Fatalf("in-channel interference got digital rejection: %v vs %v", eff, wantEff)
	}
	if !math.IsInf(rx.SNRdB(0, nil), -1) {
		t.Fatal("zero signal should give -Inf SNR")
	}
}

func TestReceiverAddNoisePower(t *testing.T) {
	rx := NewReceiver(880e6)
	rx.NoiseFloor = 1e-6
	x := make([]complex128, 200000)
	rx.AddNoise(x, rng.New(7))
	var p float64
	for _, v := range x {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(x))
	if math.Abs(p-rx.NoiseFloor)/rx.NoiseFloor > 0.05 {
		t.Fatalf("noise power %v, want ≈%v", p, rx.NoiseFloor)
	}
}

func TestQuantize(t *testing.T) {
	x := []complex128{complex(0.5, -0.25), complex(2, 0), complex(-3, 1)}
	clipped, err := Quantize(x, 12, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if clipped != 2 {
		t.Fatalf("clipped = %d, want 2", clipped)
	}
	if real(x[1]) != 1.0 {
		t.Fatalf("clipped sample = %v, want full scale", x[1])
	}
	// Quantization error bounded by half a step.
	step := 1.0 / float64(int64(1)<<11)
	if math.Abs(real(x[0])-0.5) > step/2+1e-15 {
		t.Fatalf("quantization error too large: %v", real(x[0]))
	}
	if _, err := Quantize(x, 1, 1); err == nil {
		t.Fatal("1-bit ADC accepted")
	}
	if _, err := Quantize(x, 12, 0); err == nil {
		t.Fatal("zero full scale accepted")
	}
}

func TestReceivedBasebandSingleCarrier(t *testing.T) {
	carriers := []Carrier{{Freq: 915e6 + 100, Phase: 0.5, Amplitude: 2}}
	chans := []complex128{complex(0.5, 0)}
	y, err := ReceivedBaseband(carriers, chans, 915e6, 10e3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Magnitude is constant |A·h| = 1.
	for i, v := range y {
		if math.Abs(cmplx.Abs(v)-1) > 1e-9 {
			t.Fatalf("sample %d magnitude %v", i, cmplx.Abs(v))
		}
	}
	// It rotates at 100 Hz: phase advance per sample = 2π·100/10e3.
	wantStep := 2 * math.Pi * 100 / 10e3
	gotStep := cmplx.Phase(y[1] * cmplx.Conj(y[0]))
	if math.Abs(gotStep-wantStep) > 1e-9 {
		t.Fatalf("phase step %v, want %v", gotStep, wantStep)
	}
}

func TestReceivedBasebandSuperposition(t *testing.T) {
	// N equal carriers with aligned phases and unit channels peak at N.
	const n = 5
	carriers := make([]Carrier, n)
	chans := make([]complex128, n)
	for i := range carriers {
		carriers[i] = Carrier{Freq: 915e6 + float64(i), Phase: 0, Amplitude: 1}
		chans[i] = 1
	}
	y, err := ReceivedBaseband(carriers, chans, 915e6, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if peak := cmplx.Abs(y[0]); math.Abs(peak-n) > 1e-9 {
		t.Fatalf("aligned peak = %v, want %d", peak, n)
	}
}

func TestReceivedBasebandErrors(t *testing.T) {
	if _, err := ReceivedBaseband([]Carrier{{}}, nil, 915e6, 1e3, 10); err == nil {
		t.Fatal("mismatched channels accepted")
	}
	if _, err := ReceivedBaseband(nil, nil, 915e6, 0, 10); err == nil {
		t.Fatal("zero sample rate accepted")
	}
	if _, err := ReceivedBaseband(nil, nil, 915e6, 1e3, -1); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestReceivedBasebandLongCaptureStable(t *testing.T) {
	// The phasor recurrence must hold magnitude over a 2-second capture at
	// 10 kHz (the paper's measurement interval).
	carriers := []Carrier{{Freq: 915e6 + 137, Phase: 1.1, Amplitude: 1}}
	chans := []complex128{1}
	y, err := ReceivedBaseband(carriers, chans, 915e6, 10e3, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if m := cmplx.Abs(y[len(y)-1]); math.Abs(m-1) > 1e-6 {
		t.Fatalf("magnitude drifted to %v", m)
	}
}

func TestQuickPAMonotone(t *testing.T) {
	pa := DefaultPA()
	f := func(a, b uint16) bool {
		x, y := float64(a)/1e4, float64(b)/1e4
		if x > y {
			x, y = y, x
		}
		return pa.Amplify(x) <= pa.Amplify(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReceivedBaseband8Carriers(b *testing.B) {
	carriers := make([]Carrier, 8)
	chans := make([]complex128, 8)
	for i := range carriers {
		carriers[i] = Carrier{Freq: 915e6 + float64(i*17), Phase: float64(i), Amplitude: 1}
		chans[i] = complex(0.5, 0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReceivedBaseband(carriers, chans, 915e6, 10e3, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDriveForAndOperatingDrive(t *testing.T) {
	pa := DefaultPA()
	// OperatingDrive puts the output exactly at P1dB (1 W → amplitude 1).
	d := pa.OperatingDrive()
	out := pa.Amplify(d)
	if math.Abs(out-1) > 1e-6 {
		t.Fatalf("operating output %v √W, want 1", out)
	}
	// DriveFor round-trips arbitrary reachable outputs.
	for _, want := range []float64{0.01, 0.3, 0.9, 1.2} {
		in, err := pa.DriveFor(want)
		if err != nil {
			t.Fatalf("DriveFor(%v): %v", want, err)
		}
		if got := pa.Amplify(in); math.Abs(got-want)/want > 1e-6 {
			t.Fatalf("DriveFor(%v) → output %v", want, got)
		}
	}
	// Unreachable or invalid requests error.
	if _, err := pa.DriveFor(pa.MaxOutputAmplitude() * 1.01); err == nil {
		t.Fatal("above-saturation output accepted")
	}
	if _, err := pa.DriveFor(0); err == nil {
		t.Fatal("zero output accepted")
	}
	if _, err := pa.DriveFor(-1); err == nil {
		t.Fatal("negative output accepted")
	}
}

// TestOperatingDriveMatchesFreshSearch pins the drive DefaultPA's
// OperatingDrive returns without searching to a fresh DriveFor search,
// bit for bit, and checks that other amplifiers still search.
func TestOperatingDriveMatchesFreshSearch(t *testing.T) {
	for _, pa := range []PowerAmp{DefaultPA(), {GainDB: 17, P1dBm: 27, Smoothness: 3}} {
		want, err := pa.DriveFor(math.Sqrt(math.Pow(10, (pa.P1dBm-30)/10)))
		if err != nil {
			t.Fatal(err)
		}
		if got := pa.OperatingDrive(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v: OperatingDrive() = %v, fresh DriveFor search %v", pa, got, want)
		}
	}
}

func TestOscillatorLocked(t *testing.T) {
	o := Oscillator{Freq: 915e6}
	if o.Locked() {
		t.Fatal("fresh oscillator reports locked")
	}
	o.Lock(rng.New(1))
	if !o.Locked() {
		t.Fatal("locked oscillator reports unlocked")
	}
}
