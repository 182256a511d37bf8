package core

import (
	"math"
	"testing"

	"ivn/internal/rng"
)

// Golden equivalence: the kernel-backed series functions must agree with
// the naive Envelope reference to ≤1e-9 relative error.

func TestEnvelopeSeriesMatchesNaiveEnvelope(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(12)
		offsets := make([]float64, n)
		betas := make([]float64, n)
		sameFreq := trial%5 == 4
		for i := range offsets {
			if sameFreq {
				offsets[i] = 37
			} else {
				offsets[i] = float64(r.Intn(200))
			}
			betas[i] = r.Phase()
		}
		const samples = 2048
		series := EnvelopeSeries(offsets, betas, 0, 1.0/samples, samples, nil)
		for k := 0; k < samples; k += 17 {
			want := Envelope(offsets, betas, float64(k)/samples)
			if math.Abs(series[k]-want) > 1e-9*(1+want) {
				t.Fatalf("trial %d k=%d: series %v, naive %v", trial, k, series[k], want)
			}
		}
	}
}

// TestPeakEnvelopeMatchesSeriesMax: PeakCDF's peak power for each phase
// draw, taken by the phasor kernel's peak scan, is the square of the
// largest EnvelopeSeries sample on the same grid and draw.
func TestPeakEnvelopeMatchesSeriesMax(t *testing.T) {
	const trials, samples = 10, 4096
	offsets := PaperOffsets()
	peaks := PeakCDF(offsets, trials, samples, rng.New(32))
	if len(peaks) != trials {
		t.Fatalf("PeakCDF returned %d samples, want %d", len(peaks), trials)
	}
	r := rng.New(32)
	betas := make([]float64, len(offsets))
	for trial, got := range peaks {
		drawBetas(betas, r)
		series := EnvelopeSeries(offsets, betas, 0, 1.0/samples, samples, nil)
		want := 0.0
		for _, v := range series {
			if v > want {
				want = v
			}
		}
		want *= want
		if math.Abs(got-want) > 1e-12*(1+want) {
			t.Fatalf("trial %d: PeakCDF %v, series max² %v", trial, got, want)
		}
	}
}

// TestExpectedDwellTimeMatchesSeriesScan: ExpectedDwellTime, which
// counts through phasor.LongestRunsAbove, must agree with a direct scan
// of the same half-open series for each of its phase draws. Five trials
// of five carriers fill one group of the lane kernel and pad another.
func TestExpectedDwellTimeMatchesSeriesScan(t *testing.T) {
	const trials, samples = 5, 1024
	offsets := PaperOffsets()[:5]
	level := 2.0
	r := rng.New(33)
	betas := make([]float64, len(offsets))
	dt := 1.0 / samples
	var acc float64
	for range trials {
		drawBetas(betas, r)
		series := EnvelopeSeries(offsets, betas, 0, dt, samples, nil)
		best, run := 0, 0
		for pass := 0; pass < 2; pass++ {
			for _, v := range series {
				if v > level {
					run++
					best = max(best, run)
				} else {
					run = 0
				}
			}
		}
		acc += float64(min(best, samples)) * dt
	}
	want := acc / trials
	if got := ExpectedDwellTime(offsets, level, trials, samples, rng.New(33)); got != want {
		t.Fatalf("ExpectedDwellTime %v, direct scan %v", got, want)
	}
}
