package baseline

import (
	"math"
	"math/cmplx"
	"testing"

	"ivn/internal/core"
	"ivn/internal/rng"
)

func unitChans(n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func randomChans(n int, r *rng.Rand) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = cmplx.Rect(1, r.Phase())
	}
	return out
}

func TestSingleAntennaPeak(t *testing.T) {
	cs := SingleAntenna(915e6, 2)
	p, err := PeakReceivedPower(cs, []complex128{complex(0.5, 0)}, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-12 { // (2·0.5)²
		t.Fatalf("single-antenna peak %v, want 1", p)
	}
}

func TestOracleMRTAchievesNSquared(t *testing.T) {
	r := rng.New(1)
	const n = 10
	chans := randomChans(n, r)
	cs, err := OracleMRTInto(nil, 915e6, 1, chans)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PeakReceivedPower(cs, chans, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-n*n) > 1e-9 {
		t.Fatalf("MRT peak %v, want %d", p, n*n)
	}
}

func TestBlindArrayAverageGainIsN(t *testing.T) {
	// The blind baseline's expected gain over a single antenna is N — all
	// of it from radiating N× power (paper Fig. 11 discussion: "This gain
	// comes entirely from increasing the total amount of power
	// transmitted").
	r := rng.New(2)
	const n = 10
	const trials = 3000
	var acc float64
	for i := 0; i < trials; i++ {
		chans := unitChans(n)
		cs, err := BlindArrayInto(nil, n, 915e6, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PeakReceivedPower(cs, chans, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		acc += p
	}
	mean := acc / trials
	if math.Abs(mean-n)/float64(n) > 0.1 {
		t.Fatalf("blind-array mean gain %v, want ≈%d", mean, n)
	}
}

func TestBlindArrayHasDeepNulls(t *testing.T) {
	// Unlike CIB, the blind array sometimes delivers much LESS than one
	// antenna (destructive interference with no way out — Fig. 12's tail).
	r := rng.New(3)
	const n = 10
	worst := math.Inf(1)
	for i := 0; i < 2000; i++ {
		cs, _ := BlindArrayInto(nil, n, 915e6, 1, r)
		p, _ := PeakReceivedPower(cs, unitChans(n), 1, 1)
		worst = math.Min(worst, p)
	}
	if worst > 0.5 {
		t.Fatalf("blind array never nulled below 0.5 (worst %v); fading model broken", worst)
	}
}

func TestCIBBeatsBlindArrayAlmostAlways(t *testing.T) {
	// The Fig. 12 property at the core of the paper: with equal antennas
	// and per-antenna power, CIB's scanned peak beats the blind array's
	// static level in nearly every channel draw.
	r := rng.New(4)
	offsets := core.PaperOffsets()
	const n = 10
	wins, trials := 0, 400
	for i := 0; i < trials; i++ {
		chans := randomChans(n, r)
		// CIB: offset carriers, random phases.
		cibCarriers, err := BlindArrayInto(nil, n, 915e6, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		for j := range cibCarriers {
			cibCarriers[j].Freq = 915e6 + offsets[j]
		}
		pCIB, err := PeakReceivedPower(cibCarriers, chans, 1, 4096)
		if err != nil {
			t.Fatal(err)
		}
		blind, err := BlindArrayInto(nil, n, 915e6, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		pBlind, err := PeakReceivedPower(blind, chans, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pCIB > pBlind {
			wins++
		}
	}
	if frac := float64(wins) / float64(trials); frac < 0.97 {
		t.Fatalf("CIB won only %.1f%% of draws, want > 97%%", frac*100)
	}
}

func TestValidationErrors(t *testing.T) {
	r := rng.New(7)
	if _, err := BlindArrayInto(nil, 0, 915e6, 1, r); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := OracleMRTInto(nil, 915e6, 1, nil); err == nil {
		t.Fatal("empty channels accepted")
	}
	cs := SingleAntenna(915e6, 1)
	if _, err := PeakReceivedPower(cs, nil, 1, 10); err == nil {
		t.Fatal("channel mismatch accepted")
	}
	if _, err := PeakReceivedPower(cs, unitChans(1), 0, 10); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := PeakReceivedPower(cs, unitChans(1), 1, 0); err == nil {
		t.Fatal("zero samples accepted")
	}
	if p, err := PeakReceivedPower(nil, nil, 1, 10); err != nil || p != 0 {
		t.Fatal("empty carrier set should give 0 peak")
	}
}

func BenchmarkPeakReceivedPower(b *testing.B) {
	r := rng.New(1)
	offsets := core.PaperOffsets()
	cs, _ := BlindArrayInto(nil, 10, 915e6, 1, r)
	for j := range cs {
		cs[j].Freq = 915e6 + offsets[j]
	}
	chans := randomChans(10, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PeakReceivedPower(cs, chans, 1, 4096); err != nil {
			b.Fatal(err)
		}
	}
}
