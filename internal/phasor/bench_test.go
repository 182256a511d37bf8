package phasor

import (
	"fmt"
	"testing"

	"ivn/internal/rng"
)

// The kernel benchmarks. They use only SumSeries, PeakPower,
// PeakPowerRefined and the tests' randomSet and sumSeriesSerial, so one
// copy of this file measures two revisions of the package alike.

func BenchmarkPeakPowerRefined10Carriers(b *testing.B) {
	r := rng.New(1)
	freqs, coeffs := randomSet(r, 10, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PeakPowerRefined(freqs, coeffs, 1.0, 2048, 8192)
	}
}

// benchSamples is the grid every kernel benchmark scans: the fine grid of
// a 1 s CIB period.
const benchSamples = 8192

// benchCarriers are the carrier counts the kernel benchmarks run: one
// carrier is the Go kernel every family runs; two and three are one
// register of the AVX kernel (one Go group); five is two and a half
// registers (the Go kernels' 3+2 split); eight is four full registers,
// the gain kits' array; and ten, the paper's antenna count, is every
// register (4+4+2).
var benchCarriers = []int{1, 2, 3, 5, 8, 10}

// benchScan runs body once per iteration as sub-benchmarks N=<carriers>
// and reports the cost per carrier-sample.
func benchScan(b *testing.B, body func(freqs []float64, coeffs []complex128, re, im []float64)) {
	for _, carriers := range benchCarriers {
		b.Run(fmt.Sprintf("N=%d", carriers), func(b *testing.B) {
			freqs, coeffs := randomSet(rng.New(1), carriers, 150)
			// re/im keep accumulating across iterations: the kernels'
			// cost does not depend on the values they add to.
			re := make([]float64, benchSamples)
			im := make([]float64, benchSamples)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body(freqs, coeffs, re, im)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(carriers*benchSamples)), "ns/carrier-sample")
		})
	}
}

func BenchmarkSumSeries(b *testing.B) {
	benchScan(b, func(freqs []float64, coeffs []complex128, re, im []float64) {
		SumSeries(freqs, coeffs, 0, 1.0/benchSamples, benchSamples, re, im)
	})
}

// BenchmarkSumSeriesSerial benchmarks the serial reference so the grouped
// kernels' speed-up stays measurable.
func BenchmarkSumSeriesSerial(b *testing.B) {
	benchScan(b, func(freqs []float64, coeffs []complex128, re, im []float64) {
		sumSeriesSerial(freqs, coeffs, 0, 1.0/benchSamples, benchSamples, re, im)
	})
}

var peakSink float64

func BenchmarkPeakPower(b *testing.B) {
	benchScan(b, func(freqs []float64, coeffs []complex128, _, _ []float64) {
		peakSink = PeakPower(freqs, coeffs, 0, 1.0/benchSamples, benchSamples)
	})
}
