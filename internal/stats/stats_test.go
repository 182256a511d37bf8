package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"ivn/internal/rng"
)

func TestPercentileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := percentileSorted(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile %v = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestPercentileDoesNotMutate: Summarize and NewCDF sort a copy, never
// the caller's sample.
func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Summarize(xs); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCDF(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMedianSingleAndEven(t *testing.T) {
	if s, _ := Summarize([]float64{7}); s.Median != 7 {
		t.Fatalf("median of [7] = %v", s.Median)
	}
	s, _ := Summarize([]float64{1, 2, 3, 4})
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Fatalf("median of 1..4 = %v, want 2.5", s.Median)
	}
}

// TestPercentileErrors: every percentile entry point reports an empty
// sample as ErrEmpty.
func TestPercentileErrors(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Summarize(nil) error %v, want ErrEmpty", err)
	}
	if _, err := NewCDF(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("NewCDF(nil) error %v, want ErrEmpty", err)
	}
}

// TestMeanStdDev: Mean, and the sample standard deviation WelchTTest
// builds on.
func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || m != 5 {
		t.Fatalf("Mean = %v, err %v", m, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Fatal("Mean of an empty sample accepted")
	}
	sd := math.Sqrt(sampleVariance(xs, m))
	want := math.Sqrt(32.0 / 7)
	if math.Abs(sd-want) > 1e-12 {
		t.Fatalf("sample standard deviation = %v, want %v", sd, want)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Median != 50 || s.P10 != 10 || s.P90 != 90 || s.Min != 0 || s.Max != 100 || s.N != 101 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty Summary string")
	}
	if _, err := Summarize(nil); err == nil {
		t.Fatal("empty Summarize accepted")
	}
}

func TestCDFBasics(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.At(0.5); got != 0 {
		t.Fatalf("At(0.5) = %v, want 0", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Fatalf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10) = %v, want 1", got)
	}
	if got := c.FractionAbove(2); got != 0.5 {
		t.Fatalf("FractionAbove(2) = %v, want 0.5", got)
	}
	if len(c.sorted) != 4 {
		t.Fatalf("CDF holds %d samples", len(c.sorted))
	}
	if _, err := NewCDF(nil); err == nil {
		t.Fatal("empty CDF accepted")
	}
}

func TestCDFQuantileMonotone(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	c, err := NewCDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := c.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestCDFAtQuantileRoundTrip(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	c, _ := NewCDF(xs)
	f := func(qRaw uint8) bool {
		q := float64(qRaw) / 255
		v := c.Quantile(q)
		// At(Quantile(q)) must be >= q (up to 1/n granularity).
		return c.At(v) >= q-1.0/float64(len(xs))-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	r := rng.New(5)
	f := func(n uint8, p uint8) bool {
		size := int(n%50) + 1
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		pct := float64(p) / 255 * 100
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		v := c.Quantile(pct / 100)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return v >= lo-1e-12 && v <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
