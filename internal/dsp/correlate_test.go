package dsp

import (
	"math"
	"testing"

	"ivn/internal/rng"
)

// TestCorrelationUnrollBitExact pins the 4-wide unrolled correlation
// kernel to the retained reference implementation, bit for bit: scalar
// accumulators and in-order adds mean the unroll may not change a single
// ulp.
func TestCorrelationUnrollBitExact(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		m := 1 + r.Intn(40)
		n := m + r.Intn(300)
		x := make([]float64, n)
		tmpl := make([]float64, m)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range tmpl {
			tmpl[i] = r.NormFloat64()
		}
		got := normalizedCrossCorrelationInto(make([]float64, n-m+1), x, tmpl)
		want := normalizedCrossCorrelationRef(make([]float64, n-m+1), x, tmpl)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d m=%d) lag %d: unrolled %v != reference %v",
					trial, n, m, i, got[i], want[i])
			}
		}
	}
}

func TestNormalizedCrossCorrelationPerfectMatch(t *testing.T) {
	tmpl := []float64{1, -1, 1, 1, -1, -1, 1, -1}
	x := append(make([]float64, 13), tmpl...)
	x = append(x, make([]float64, 7)...)
	best, lag := MaxCorrelation(x, tmpl)
	if lag != 13 {
		t.Fatalf("best lag = %d, want 13", lag)
	}
	if best < 0.999 {
		t.Fatalf("best correlation = %v, want ≈1", best)
	}
}

func TestNormalizedCrossCorrelationScaleInvariant(t *testing.T) {
	tmpl := []float64{1, -1, 1, -1, 1, 1, -1, 1}
	x := make([]float64, len(tmpl))
	for i, v := range tmpl {
		x[i] = 0.001*v + 5 // scaled down and offset
	}
	best, _ := MaxCorrelation(x, tmpl)
	if best < 0.999 {
		t.Fatalf("correlation should be scale/offset invariant, got %v", best)
	}
}

func TestCorrelationRejectsNoise(t *testing.T) {
	r := rng.New(77)
	tmpl := []float64{1, 1, -1, 1, -1, -1, 1, -1, -1, 1, 1, -1}
	x := make([]float64, 500)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	best, _ := MaxCorrelation(x, tmpl)
	if best > 0.8 {
		t.Fatalf("noise correlated at %v; the 0.8 threshold would false-trigger", best)
	}
}

func TestCorrelationDegenerateInputs(t *testing.T) {
	if _, lag := MaxCorrelation([]float64{1, 2}, []float64{1, 2, 3}); lag != -1 {
		t.Fatal("template longer than signal should report lag -1")
	}
	if _, lag := MaxCorrelation(nil, []float64{1}); lag != -1 {
		t.Fatal("degenerate MaxCorrelation should report lag -1")
	}
	// Constant segment has zero variance; correlation must be 0, not NaN.
	got := normalizedCrossCorrelationInto(make([]float64, 3), []float64{3, 3, 3, 3}, []float64{1, -1})
	for _, v := range got {
		if math.IsNaN(v) {
			t.Fatal("correlation produced NaN on zero-variance segment")
		}
	}
}

// firstMax returns the largest value of corr and the first index that
// holds it.
func firstMax(corr []float64) (float64, int) {
	best, arg := corr[0], 0
	for i, v := range corr {
		if v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// TestMaxCorrelationAcrossBlocks pins MaxCorrelation, which correlates
// corrBlock lags per pass, to the first maximum of the reference series
// over all lags: the same value bit for bit at the same lag, for lag
// counts on both sides of a block edge. Equal maxima on the two sides of
// the first edge must resolve to the earlier lag.
func TestMaxCorrelationAcrossBlocks(t *testing.T) {
	r := rng.New(9)
	const m = 12
	for _, lags := range []int{1, corrBlock - 1, corrBlock, corrBlock + 1, 600} {
		// Noise alone, then with the template planted at the last lag,
		// where the maximum then sits in the last block.
		for _, plant := range []bool{false, true} {
			x := make([]float64, lags+m-1)
			tmpl := make([]float64, m)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			for i := range tmpl {
				tmpl[i] = r.NormFloat64()
			}
			if plant {
				copy(x[lags-1:], tmpl)
			}
			want, wantLag := firstMax(normalizedCrossCorrelationRef(make([]float64, lags), x, tmpl))
			if plant && wantLag != lags-1 {
				t.Fatalf("%d lags: planted template not the reference maximum (lag %d)", lags, wantLag)
			}
			got, gotLag := MaxCorrelation(x, tmpl)
			if got != want || gotLag != wantLag {
				t.Errorf("%d lags, planted %v: MaxCorrelation (%v at %d), reference (%v at %d)", lags, plant, got, gotLag, want, wantLag)
			}
		}
	}

	// A template of powers of two, and a signal that is zero except for
	// the powers 2⁰…2ᵐ starting at lag corrBlock−1: the segment there is
	// the template, the one a lag later is exactly twice it, so the two
	// correlate to the same bits.
	tmpl := make([]float64, m)
	for k := range tmpl {
		tmpl[k] = math.Ldexp(1, k)
	}
	x := make([]float64, 600+m-1)
	for j := 0; j <= m; j++ {
		x[corrBlock-1+j] = math.Ldexp(1, j)
	}
	ref := normalizedCrossCorrelationRef(make([]float64, 600), x, tmpl)
	want, wantLag := firstMax(ref)
	if wantLag != corrBlock-1 || ref[corrBlock] != want {
		t.Fatalf("fixture: reference maximum %v at %d, %v at %d; want a tie at %d and %d",
			want, wantLag, ref[corrBlock], corrBlock, corrBlock-1, corrBlock)
	}
	if got, gotLag := MaxCorrelation(x, tmpl); got != want || gotLag != corrBlock-1 {
		t.Errorf("tie across the block edge: MaxCorrelation (%v at %d), want (%v at %d)", got, gotLag, want, corrBlock-1)
	}
}

func BenchmarkMaxCorrelation4096x96(b *testing.B) {
	r := rng.New(1)
	x := make([]float64, 4096)
	tmpl := make([]float64, 96)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for i := range tmpl {
		tmpl[i] = r.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxCorrelation(x, tmpl)
	}
}
