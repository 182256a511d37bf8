package phasor

import (
	"math"
	"sync"
	"testing"

	"ivn/internal/rng"
)

// naiveSum evaluates Σ_i coeffs[i]·e^{j·2π·freqs[i]·t} directly — one
// Sincos per carrier — as the golden reference.
func naiveSum(freqs []float64, coeffs []complex128, t float64) (float64, float64) {
	var re, im float64
	for i, f := range freqs {
		s, c := math.Sincos(2 * math.Pi * f * t)
		rot := complex(c, s) * coeffs[i]
		re += real(rot)
		im += imag(rot)
	}
	return re, im
}

// sumSeriesSerial is the reference per-carrier recurrence loop: one
// carrier at a time over the whole series. Every kernel must stay bit
// identical to it (TestSumSeriesInterleavedBitExact,
// TestPeakPowerArgMatchesSerial). Its products carry the same float64
// conversions as the kernels, so it cannot be fused where they are not.
//
//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
func sumSeriesSerial(freqs []float64, coeffs []complex128, t0, dt float64, n int, re, im []float64) {
	re = re[:n]
	im = im[:n]
	for i, f := range freqs {
		curRe, curIm, rotRe, rotIm, mag := startPhasor(f, coeffs[i], t0, dt)
		for k := 0; k < n; k++ {
			re[k] += curRe
			im[k] += curIm
			curRe, curIm = float64(curRe*rotRe)-float64(curIm*rotIm), float64(curRe*rotIm)+float64(curIm*rotRe)
			if k&renormMask == renormMask {
				if m := math.Hypot(curRe, curIm); m != 0 {
					s := mag / m
					curRe *= s
					curIm *= s
				}
			}
		}
	}
}

// randomSet draws a carrier set: nonzero random frequencies and random
// unit-magnitude-ish complex coefficients.
func randomSet(r *rng.Rand, n int, maxFreq float64) ([]float64, []complex128) {
	freqs := make([]float64, n)
	coeffs := make([]complex128, n)
	for i := range freqs {
		freqs[i] = maxFreq * (2*r.Float64() - 1)
		s, c := math.Sincos(r.Phase())
		amp := 0.5 + r.Float64()
		coeffs[i] = complex(amp*c, amp*s)
	}
	return freqs, coeffs
}

func TestSumSeriesMatchesNaive(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(12)
		freqs, coeffs := randomSet(r, n, 200)
		const samples = 4097 // odd, larger than the renorm cadence check below
		dt := 1.0 / samples
		t0 := 0.0
		if trial%2 == 1 {
			t0 = r.Float64()
		}
		re := make([]float64, samples)
		im := make([]float64, samples)
		SumSeries(freqs, coeffs, t0, dt, samples, re, im)
		for k := 0; k < samples; k++ {
			wantRe, wantIm := naiveSum(freqs, coeffs, t0+float64(k)*dt)
			if math.Abs(re[k]-wantRe) > 1e-9*(1+math.Abs(wantRe)) ||
				math.Abs(im[k]-wantIm) > 1e-9*(1+math.Abs(wantIm)) {
				t.Fatalf("trial %d k=%d: got (%v,%v), want (%v,%v)", trial, k, re[k], im[k], wantRe, wantIm)
			}
		}
	}
}

func TestSumSeriesSameFrequencySet(t *testing.T) {
	// Degenerate plan: every carrier on the same frequency (a blind
	// array); the sum must still match the naive evaluation.
	r := rng.New(11)
	n := 8
	freqs := make([]float64, n)
	coeffs := make([]complex128, n)
	for i := range freqs {
		freqs[i] = 42 // all identical
		s, c := math.Sincos(r.Phase())
		coeffs[i] = complex(c, s)
	}
	const samples = 1024
	dt := 1.0 / samples
	re := make([]float64, samples)
	im := make([]float64, samples)
	SumSeries(freqs, coeffs, 0, dt, samples, re, im)
	for k := 0; k < samples; k++ {
		wantRe, wantIm := naiveSum(freqs, coeffs, float64(k)*dt)
		if math.Abs(re[k]-wantRe) > 1e-9 || math.Abs(im[k]-wantIm) > 1e-9 {
			t.Fatalf("k=%d: got (%v,%v), want (%v,%v)", k, re[k], im[k], wantRe, wantIm)
		}
	}
}

func TestSumSeriesRenormBoundsDrift(t *testing.T) {
	// A long scan (many renorm cycles) must stay within 1e-9 relative of
	// the naive evaluation at the final sample.
	freqs := []float64{0, 7, 20, 49, 137}
	coeffs := []complex128{1, 1i, -1, complex(0.6, 0.8), complex(-0.8, 0.6)}
	const samples = 1 << 16
	dt := 1.0 / 8192
	re := make([]float64, samples)
	im := make([]float64, samples)
	SumSeries(freqs, coeffs, 0, dt, samples, re, im)
	for _, k := range []int{samples - 1, samples / 2, renormMask, renormMask + 1} {
		wantRe, wantIm := naiveSum(freqs, coeffs, float64(k)*dt)
		if math.Abs(re[k]-wantRe) > 1e-9*(1+math.Abs(wantRe)) ||
			math.Abs(im[k]-wantIm) > 1e-9*(1+math.Abs(wantIm)) {
			t.Fatalf("k=%d: got (%v,%v), want (%v,%v)", k, re[k], im[k], wantRe, wantIm)
		}
	}
}

func TestMagnitudeSeriesMatchesNaive(t *testing.T) {
	r := rng.New(3)
	freqs, coeffs := randomSet(r, 10, 150)
	const samples = 2048
	dt := 1.0 / samples
	dst := make([]float64, samples)
	MagnitudeSeries(freqs, coeffs, 0, dt, samples, dst)
	for k := range dst {
		re, im := naiveSum(freqs, coeffs, float64(k)*dt)
		want := math.Hypot(re, im)
		if math.Abs(dst[k]-want) > 1e-9*(1+want) {
			t.Fatalf("k=%d: got %v, want %v", k, dst[k], want)
		}
	}
}

func TestPeakPowerRefinedEqualsFullScan(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 30; trial++ {
		// CIB-like plans: small integer offsets, heavily oversampled by
		// the coarse grid.
		n := 2 + r.Intn(9)
		freqs := make([]float64, n)
		coeffs := make([]complex128, n)
		for i := range freqs {
			freqs[i] = float64(r.Intn(200))
			s, c := math.Sincos(r.Phase())
			coeffs[i] = complex(c, s)
		}
		full := PeakPower(freqs, coeffs, 0, 1.0/8192, 8192)
		refined := PeakPowerRefined(freqs, coeffs, 1.0, 2048, 8192)
		if math.Abs(full-refined) > 1e-12*(1+full) {
			t.Fatalf("trial %d: refined %v != full %v", trial, refined, full)
		}
	}
}

func TestPeakPowerRefinedFallsBack(t *testing.T) {
	freqs := []float64{0, 7, 20}
	coeffs := []complex128{1, 1, 1}
	full := PeakPower(freqs, coeffs, 0, 1.0/1000, 1000)
	// Non-divisible and non-coarser specs must run the full scan.
	for _, coarse := range []int{0, -1, 999, 1000, 2000, 7} {
		got := PeakPowerRefined(freqs, coeffs, 1.0, coarse, 1000)
		if coarse == 7 {
			continue // 1000%7 != 0: falls back, same as full
		}
		if got != full {
			t.Fatalf("coarse=%d: got %v, want full-scan %v", coarse, got, full)
		}
	}
	if got := PeakPowerRefined(freqs, coeffs, 1.0, 7, 1000); got != full {
		t.Fatalf("coarse=7: got %v, want %v", got, full)
	}
}

func TestPeakPowerRefinedNeverBelowCoarse(t *testing.T) {
	// The refined result must be ≥ the coarse peak (coarse points are a
	// subset of fine points when nFine % nCoarse == 0).
	r := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		freqs, coeffs := randomSet(r, 6, 300)
		coarse := PeakPower(freqs, coeffs, 0, 1.0/512, 512)
		refined := PeakPowerRefined(freqs, coeffs, 1.0, 512, 4096)
		if refined < coarse*(1-1e-12) {
			t.Fatalf("trial %d: refined %v < coarse %v", trial, refined, coarse)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	if p := PeakPower(nil, nil, 0, 1, 10); p != 0 {
		t.Fatalf("empty set: %v", p)
	}
	if p := PeakPowerRefined(nil, nil, 1, 10, 100); p != 0 {
		t.Fatalf("empty refined: %v", p)
	}
	if p := PeakPower([]float64{1}, []complex128{1}, 0, 1, 0); p != 0 {
		t.Fatalf("n=0: %v", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	SumSeries([]float64{1, 2}, []complex128{1}, 0, 1, 4, make([]float64, 4), make([]float64, 4))
}

// kernelFamily names one family of scan kernels: the Go kernels
// sumSeries1..4, or the AVX kernel with sumSeries1 for one carrier and
// the Go kernels beyond maxAVXCarriers.
type kernelFamily struct {
	name string
	avx  bool
}

// kernelFamilies returns the families this machine runs: the Go kernels
// everywhere, the AVX kernel where the CPU has it.
func kernelFamilies() []kernelFamily {
	fams := []kernelFamily{{"go", false}}
	if avxSupported() {
		fams = append(fams, kernelFamily{"avx", true})
	}
	return fams
}

// useFamily points every scan at fam until the returned function runs.
// It is the one seam between the tests and scan's dispatch; the phasor
// tests do not run in parallel, so flipping useAVX races nothing.
func useFamily(fam kernelFamily) (restore func()) {
	old := useAVX
	useAVX = fam.avx
	return func() { useAVX = old }
}

// forEachFamily runs f as one subtest per kernel family.
func forEachFamily(t *testing.T, f func(t *testing.T)) {
	for _, fam := range kernelFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			defer useFamily(fam)()
			f(t)
		})
	}
}

// bitExactSamples are the series lengths the bit-exactness tests cover:
// short spans, both sides of the renorm cadence (the renorm after step
// 2047 first shows at sample 2048) and a span crossing it twice.
var bitExactSamples = []int{1, 17, 2047, 2048, 2049, 4099}

// TestSumSeriesInterleavedBitExact pins both kernel families to the
// serial reference loop, bit for bit: same ascending-carrier partial sums
// per sample, same recurrence and renormalization sequence per carrier.
// It covers every carrier count 1–13, so every group split of the Go
// kernels (4, 3+2, 4+4+2, 4+4+3+2, …), every register layout of the AVX
// kernel (1–5 pairs, with and without an odd carrier), both t0 forms,
// zeroed and partial-sum inputs, and spans on both sides of the renorm
// cadence.
func TestSumSeriesInterleavedBitExact(t *testing.T) {
	forEachFamily(t, testSumSeriesInterleavedBitExact)
}

func testSumSeriesInterleavedBitExact(t *testing.T) {
	r := rng.New(19)
	for carriers := 1; carriers <= 13; carriers++ {
		for _, samples := range bitExactSamples {
			freqs, coeffs := randomSet(r, carriers, 200)
			t0 := 0.0
			if samples%2 == 1 {
				t0 = r.Float64()
			}
			dt := 1.0 / float64(samples)
			re := make([]float64, samples)
			im := make([]float64, samples)
			if carriers%2 == 0 {
				// Extend a partial sum instead of starting from zero.
				for k := range re {
					re[k], im[k] = r.Float64(), r.Float64()
				}
			}
			wantRe := append([]float64(nil), re...)
			wantIm := append([]float64(nil), im...)
			SumSeries(freqs, coeffs, t0, dt, samples, re, im)
			sumSeriesSerial(freqs, coeffs, t0, dt, samples, wantRe, wantIm)
			for k := 0; k < samples; k++ {
				if re[k] != wantRe[k] || im[k] != wantIm[k] {
					t.Fatalf("%d carriers, %d samples, k=%d: interleaved (%v,%v) != serial (%v,%v)",
						carriers, samples, k, re[k], im[k], wantRe[k], wantIm[k])
				}
			}
		}
	}
}

// serialPeak is the reference peak scan: the serial sum, then a separate
// power/argmax loop keeping the first index of the maximum.
func serialPeak(freqs []float64, coeffs []complex128, t0, dt float64, n int) (float64, int) {
	return maxArg(serialPower(freqs, coeffs, t0, dt, n))
}

// serialPower is the reference power series: the serial sum's re²+im².
func serialPower(freqs []float64, coeffs []complex128, t0, dt float64, n int) []float64 {
	re := make([]float64, n)
	im := make([]float64, n)
	sumSeriesSerial(freqs, coeffs, t0, dt, n, re, im)
	return powers(re, im)
}

// powers returns re[k]²+im[k]² for every k, as the kernels round it.
func powers(re, im []float64) []float64 {
	p := make([]float64, len(re))
	for k := range re {
		p[k] = float64(re[k]*re[k]) + float64(im[k]*im[k])
	}
	return p
}

// maxArg returns the maximum of p, starting from 0, and its first index.
func maxArg(p []float64) (float64, int) {
	best, arg := 0.0, 0
	for k, v := range p {
		if v > best {
			best, arg = v, k
		}
	}
	return best, arg
}

// TestPeakPowerArgMatchesSerial pins both families' peak and power
// modes to the serial sum followed by a separate power/argmax pass: the
// same maximum bit for bit and the same index from scanPeak, and the
// same power series and maximum from scanPower, for every carrier count
// 1–13. The constant-envelope cases pin the first-index tie rule.
func TestPeakPowerArgMatchesSerial(t *testing.T) {
	forEachFamily(t, testPeakPowerArgMatchesSerial)
}

func testPeakPowerArgMatchesSerial(t *testing.T) {
	r := rng.New(23)
	for carriers := 1; carriers <= 13; carriers++ {
		for _, samples := range bitExactSamples {
			freqs, coeffs := randomSet(r, carriers, 200)
			t0 := 0.0
			if samples%2 == 1 {
				t0 = r.Float64()
			}
			dt := 1.0 / float64(samples)
			got, gotArg := peakPowerArg(freqs, coeffs, t0, dt, samples)
			want, wantArg := serialPeak(freqs, coeffs, t0, dt, samples)
			if got != want || gotArg != wantArg {
				t.Fatalf("%d carriers, %d samples: peak (%v at %d) != serial (%v at %d)",
					carriers, samples, got, gotArg, want, wantArg)
			}
			pow := make([]float64, samples)
			got, _ = scan(freqs, coeffs, t0, dt, samples, pow, make([]float64, samples), scanPower)
			wantPow := serialPower(freqs, coeffs, t0, dt, samples)
			if got != want {
				t.Fatalf("%d carriers, %d samples: power-mode maximum %v != serial %v", carriers, samples, got, want)
			}
			for k := range pow {
				if pow[k] != wantPow[k] {
					t.Fatalf("%d carriers, %d samples, k=%d: power %v != serial %v", carriers, samples, k, pow[k], wantPow[k])
				}
			}
		}
		// Every carrier at 0 Hz: a flat envelope, so every sample ties.
		freqs := make([]float64, carriers)
		coeffs := make([]complex128, carriers)
		for i := range coeffs {
			coeffs[i] = complex(1, 0.5)
		}
		got, gotArg := peakPowerArg(freqs, coeffs, 0, 1.0/64, 64)
		want, wantArg := serialPeak(freqs, coeffs, 0, 1.0/64, 64)
		if got != want || gotArg != 0 || wantArg != 0 {
			t.Fatalf("%d flat carriers: peak (%v at %d), serial (%v at %d), want index 0",
				carriers, got, gotArg, want, wantArg)
		}
	}
}

// serialRunAbove is the reference for LongestRunAbove: the serial sum,
// its magnitude, then the longest run above level over two concatenated
// copies of the series, capped at n.
func serialRunAbove(freqs []float64, coeffs []complex128, t0, dt float64, n int, level float64) int {
	re := make([]float64, n)
	im := make([]float64, n)
	sumSeriesSerial(freqs, coeffs, t0, dt, n, re, im)
	best, run := 0, 0
	for k := 0; k < 2*n; k++ {
		if math.Hypot(re[k%n], im[k%n]) > level {
			run++
			best = max(best, run)
		} else {
			run = 0
		}
	}
	return min(best, n)
}

// TestLongestRunAboveMatchesSerial pins LongestRunAbove, on both kernel
// families, to the serial reference (its Hypot loop) at levels that cut
// the envelope, that sit exactly on a sample's magnitude, that it never
// reaches and that it always clears (n, the cap on a run that wraps
// forever), and at levels outside the power test's range (negative, 0,
// tiny, huge, NaN).
func TestLongestRunAboveMatchesSerial(t *testing.T) {
	forEachFamily(t, testLongestRunAboveMatchesSerial)
}

func testLongestRunAboveMatchesSerial(t *testing.T) {
	r := rng.New(29)
	for carriers := 1; carriers <= 10; carriers++ {
		for _, samples := range bitExactSamples {
			freqs, coeffs := randomSet(r, carriers, 200)
			dt := 1.0 / float64(samples)
			re := make([]float64, samples)
			im := make([]float64, samples)
			sumSeriesSerial(freqs, coeffs, 0, dt, samples, re, im)
			onSample := math.Hypot(re[samples/2], im[samples/2])
			for _, level := range []float64{-1, 0, 1e-300, 0.5, 0.5 * float64(carriers), onSample, 1e9, 1e300, math.NaN()} {
				got := LongestRunAbove(freqs, coeffs, 0, dt, samples, level)
				if want := serialRunAbove(freqs, coeffs, 0, dt, samples, level); got != want {
					t.Fatalf("%d carriers, %d samples, level %v: run %d, serial %d", carriers, samples, level, got, want)
				}
			}
		}
	}
}

// TestRecycledBufferIsZeroed poisons the pair the free list hands out
// next with NaN and checks that a scan drawing it still matches the
// serial reference: getScratch must clear a recycled pair, since the
// kernels add into it. On the AVX kernel the peak scan takes no pair, so
// the Go family's run is the one that draws it.
func TestRecycledBufferIsZeroed(t *testing.T) {
	forEachFamily(t, testRecycledBufferIsZeroed)
}

func testRecycledBufferIsZeroed(t *testing.T) {
	re, im := getScratch(4096, true)
	for k := range re {
		re[k], im[k] = math.NaN(), math.NaN()
	}
	putScratch(re, im)
	const n = 1000
	freqs, coeffs := randomSet(rng.New(41), 6, 200)
	got, gotArg := peakPowerArg(freqs, coeffs, 0, 1.0/n, n)
	want, wantArg := serialPeak(freqs, coeffs, 0, 1.0/n, n)
	if got != want || gotArg != wantArg {
		t.Fatalf("scan on a recycled pair: peak %v at %d, serial %v at %d", got, gotArg, want, wantArg)
	}
}

// TestConcurrentGetPut runs scans of different plans and lengths from
// several goroutines at once, so they take, grow and return free-list
// pairs concurrently, and checks each result against its serial run. The
// race detector guards the free list.
func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		//ivn:allow goroutinehygiene deliberate raw-goroutine stress of the scratch free list under -race
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(100 + g))
			for i := 0; i < 40; i++ {
				n := 1 + (g*131+i*17)%4096
				freqs, coeffs := randomSet(r, 1+(g+i)%10, 200)
				dt := 1.0 / float64(n)
				got, gotArg := peakPowerArg(freqs, coeffs, 0, dt, n)
				want, wantArg := serialPeak(freqs, coeffs, 0, dt, n)
				if got != want || gotArg != wantArg {
					t.Errorf("goroutine %d, scan %d: peak %v at %d, serial %v at %d", g, i, got, gotArg, want, wantArg)
					return
				}
				mag := make([]float64, n)
				MagnitudeSeries(freqs, coeffs, 0, dt, n, mag)
				re := make([]float64, n)
				im := make([]float64, n)
				sumSeriesSerial(freqs, coeffs, 0, dt, n, re, im)
				for k := range mag {
					if w := math.Hypot(re[k], im[k]); mag[k] != w {
						t.Errorf("goroutine %d, scan %d: magnitude[%d] %v, serial %v", g, i, k, mag[k], w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
