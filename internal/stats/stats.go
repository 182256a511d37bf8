// Package stats provides the summary statistics the IVN evaluation reports:
// medians with 10th/90th percentile error bars (Figs. 9-11, 13), empirical
// CDFs (Figs. 6, 12), running means and Welch's t-test.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty reports a statistic requested over an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// percentileSorted returns the p-th percentile (0 <= p <= 100) of an
// ascending sample, interpolating linearly between closest ranks.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs)), nil
}

// Summary bundles the error-bar statistics the paper's figures use: median
// with 10th and 90th percentiles.
type Summary struct {
	N              int
	Median         float64
	P10, P90       float64
	Min, Max, Mean float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	m, _ := Mean(xs)
	return Summary{
		N:      len(xs),
		Median: percentileSorted(sorted, 50),
		P10:    percentileSorted(sorted, 10),
		P90:    percentileSorted(sorted, 90),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   m,
	}, nil
}

// String renders the summary in the "median [p10, p90]" form used by the
// experiment harness output.
func (s Summary) String() string {
	return fmt.Sprintf("median=%.3g [p10=%.3g p90=%.3g] n=%d", s.Median, s.P10, s.P90, s.N)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from a sample. It copies the input.
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	return percentileSorted(c.sorted, q*100)
}

// FractionAbove returns P(X > x), convenient for statements like "CIB
// outperforms the baseline across over 99% of trials" (Fig. 12).
func (c *CDF) FractionAbove(x float64) float64 {
	return 1 - c.At(x)
}
