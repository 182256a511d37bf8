package phasor

import (
	"math"
	"testing"

	"ivn/internal/rng"
)

// FuzzBatchMatchesPerTrial holds the batched scans of both kernel
// families to the per-trial scans on batches decoded from the fuzz input
// (see decodeBatch), bit for bit: PeakPowers (and the first index of
// every maximum) against PeakPower and peakPowerArg, and LongestRunsAbove
// against LongestRunAbove, trial by trial.
//
// The committed corpus under testdata/fuzz holds batches of 2–6 carriers
// (the lane kernel) and 7 (the per-trial loop); 1, 3, 4, 5, 8 and 9
// trials, so full groups, padded last groups and both together; scans of
// 2 049 and 4 100 samples, across one and two renormalizations; a level
// equal to one lane's exact sample magnitude while x·x + y·y rounds above
// level·level; a level equal to one lane's largest sample, which lies
// past the first renormalization, so a 1-ulp drift there moves its run;
// levels 1e-95, 1e95 and NaN; a lane with no sample below
// its level; a run that wraps the period; a flat envelope whose every
// sample ties the peak; and coefficients of +0 and −0.
func FuzzBatchMatchesPerTrial(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		checkBatch(t, decodeBatch(in))
	})
}

// batchCase is one decoded fuzz input.
type batchCase struct {
	freqs   []float64
	coeffs  []complex128 // trial after trial
	trials  int
	dt      float64
	n       int
	level   float64
	levelOf [2]int // levelOf[0] ≥ 0: the level is the magnitude of sample levelOf[1] of that trial instead
}

// decodeBatch reads a batch from a fuzz input. Fields are read in this
// order, little-endian; an input that ends early reads zeros:
//
//	byte     trials = 1 + b%9
//	byte     carriers = 1 + b%8
//	byte     flags: bit 0 integer-Hz frequencies, bit 1 level at a sample
//	uint16   n = 1 + v%maxFuzzSamples
//	float64  dt (|dt| < 1)
//	level    with flag bit 1 a byte i and a uint16 j, and the level is the
//	         magnitude of sample j%n of trial i%trials's zero-start sum;
//	         else a float64 taken as it stands, NaN and ±Inf included
//	per carrier: the frequency (an int16 in Hz with flag bit 0, else a
//	         float64 folded into |f| < 1e4)
//	per trial, per carrier: the coefficient's re and im (each |·| < 1e6)
//
// Folding (see fuzzReader.float) keeps every value finite and keeps zeros
// and −0 as they are.
func decodeBatch(in []byte) batchCase {
	r := fuzzReader(in)
	c := batchCase{trials: 1 + int(r.byte())%9, levelOf: [2]int{-1, 0}}
	carriers := 1 + int(r.byte())%8
	flags := r.byte()
	c.n = 1 + int(r.uint16())%maxFuzzSamples
	c.dt = r.float(1)
	if flags&2 != 0 {
		c.levelOf[0] = int(r.byte()) % c.trials
		c.levelOf[1] = int(r.uint16()) % c.n
	} else {
		c.level = r.float(0)
	}
	for range carriers {
		if flags&1 != 0 {
			c.freqs = append(c.freqs, float64(int16(r.uint16())))
		} else {
			c.freqs = append(c.freqs, r.float(1e4))
		}
	}
	for range c.trials * carriers {
		c.coeffs = append(c.coeffs, complex(r.float(1e6), r.float(1e6)))
	}
	return c
}

// trial returns trial t's coefficients.
func (c batchCase) trial(t int) []complex128 {
	nc := len(c.freqs)
	return c.coeffs[t*nc : (t+1)*nc]
}

// checkBatch runs c's batched scans on every kernel family and fails on
// the first trial whose result differs from its per-trial scan.
func checkBatch(t *testing.T, c batchCase) {
	level := c.level
	if i := c.levelOf[0]; i >= 0 {
		re, im := make([]float64, c.n), make([]float64, c.n)
		sumSeriesSerial(c.freqs, c.trial(i), 0, c.dt, c.n, re, im)
		level = math.Hypot(re[c.levelOf[1]], im[c.levelOf[1]])
	}
	for _, fam := range kernelFamilies() {
		func() {
			defer useFamily(fam)()
			peaks, args := make([]float64, c.trials), make([]int, c.trials)
			peakPowersArg(c.freqs, c.coeffs, c.dt, c.n, peaks, args)
			exported := make([]float64, c.trials)
			PeakPowers(c.freqs, c.coeffs, c.dt, c.n, exported)
			runs := make([]int, c.trials)
			LongestRunsAbove(c.freqs, c.coeffs, c.dt, c.n, level, runs)
			for tr := range c.trials {
				want, wantArg := peakPowerArg(c.freqs, c.trial(tr), 0, c.dt, c.n)
				if !sameBits(peaks[tr], want) || args[tr] != wantArg || !sameBits(exported[tr], PeakPower(c.freqs, c.trial(tr), 0, c.dt, c.n)) {
					t.Fatalf("%s, %d trials of %d carriers, n=%d: trial %d peak %v at %d (PeakPowers %v), per trial %v at %d",
						fam.name, c.trials, len(c.freqs), c.n, tr, peaks[tr], args[tr], exported[tr], want, wantArg)
				}
				if want := LongestRunAbove(c.freqs, c.trial(tr), 0, c.dt, c.n, level); runs[tr] != want {
					t.Fatalf("%s, %d trials of %d carriers, n=%d, level %v: trial %d run %d, per trial %d",
						fam.name, c.trials, len(c.freqs), c.n, level, tr, runs[tr], want)
				}
			}
		}()
	}
}

// TestBatchValidation pins the batched scans' edge cases: a batch whose
// coefficients do not fill its trials panics, and an empty grid gives
// every trial PeakPower's and LongestRunAbove's zero.
func TestBatchValidation(t *testing.T) {
	freqs := []float64{0, 3, 7}
	coeffs := make([]complex128, 2*len(freqs))
	for i := range coeffs {
		coeffs[i] = complex(1, float64(i))
	}
	forEachFamily(t, func(t *testing.T) {
		peaks := []float64{-1, -1}
		PeakPowers(freqs, coeffs, 0.01, 0, peaks)
		runs := []int{-1, -1}
		LongestRunsAbove(freqs, coeffs, 0.01, 0, 1, runs)
		if peaks[0] != 0 || peaks[1] != 0 || runs[0] != 0 || runs[1] != 0 {
			t.Fatalf("n = 0: peaks %v, runs %v, want zeros", peaks, runs)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("a batch short of coefficients did not panic")
			}
		}()
		PeakPowers(freqs, coeffs, 0.01, 64, make([]float64, 3))
	})
}

// TestBatchMatchesPerTrial runs batches of 1–9 trials of 1–8 carriers,
// at arbitrary or integer-Hz frequencies, at the bit-exactness lengths
// and at levels that cut the envelopes, sit on a sample's magnitude or
// lie outside the band's range, through checkBatch.
func TestBatchMatchesPerTrial(t *testing.T) {
	r := rng.New(37)
	for carriers := 1; carriers <= 8; carriers++ {
		for _, samples := range bitExactSamples {
			trials := 1 + r.Intn(9)
			c := batchCase{trials: trials, dt: 1.0 / float64(samples), n: samples, levelOf: [2]int{-1, 0}}
			for range trials {
				freqs, coeffs := randomSet(r, carriers, 200)
				if samples%2 == 0 {
					for i := range freqs {
						freqs[i] = float64(r.Intn(250))
					}
				}
				c.freqs = freqs
				c.coeffs = append(c.coeffs, coeffs...)
			}
			for _, level := range []float64{0.5 * float64(carriers), 0.9 * float64(carriers), 1e-95, math.NaN()} {
				c.level = level
				checkBatch(t, c)
			}
			c.levelOf = [2]int{trials - 1, samples / 2}
			checkBatch(t, c)
		}
	}
}
