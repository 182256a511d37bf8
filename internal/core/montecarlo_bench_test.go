package core

import (
	"fmt"
	"testing"

	"ivn/internal/rng"
)

// BenchmarkMonteCarlo times the Monte-Carlo estimators at the calls the
// registry's Quick runs make: the plan scores of the §3.6 search
// (ExpectedPeak, 12 trials × 1024 samples, at 3 and 5 carriers), Fig. 6's
// peak distribution (PeakCDF, 300 × 2048) and the §3.7 dwell score
// (ExpectedDwellTime, 60 × 8192 at level 2.25), on prefixes of the
// paper's plan. Each reports the cost per trial-sample. It uses only
// core's exported API, so one copy of this file measures two revisions
// alike.
func BenchmarkMonteCarlo(b *testing.B) {
	cases := []struct {
		name                     string
		carriers, trials, points int
		run                      func(offsets []float64, trials, points int, r *rng.Rand)
	}{
		{"ExpectedPeak", 3, 12, 1024, func(o []float64, t, p int, r *rng.Rand) { ExpectedPeak(o, t, p, r) }},
		{"ExpectedPeak", 5, 12, 1024, func(o []float64, t, p int, r *rng.Rand) { ExpectedPeak(o, t, p, r) }},
		{"PeakCDF", 5, 300, 2048, func(o []float64, t, p int, r *rng.Rand) { PeakCDF(o, t, p, r) }},
		{"ExpectedDwellTime", 5, 60, 8192, func(o []float64, t, p int, r *rng.Rand) { ExpectedDwellTime(o, 2.25, t, p, r) }},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%s/N=%d", c.name, c.carriers), func(b *testing.B) {
			offsets := PaperOffsets()[:c.carriers]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run(offsets, c.trials, c.points, rng.New(uint64(i)))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(c.trials*c.points)), "ns/trial-sample")
		})
	}
}
