//go:build !amd64

package phasor

// useAVX is false off amd64: every scan runs the Go kernels.
var useAVX = avxSupported()

// avxSupported reports false: only amd64 has the AVX kernel.
func avxSupported() bool { return false }

// scanAVX is never called off amd64, where useAVX is false.
//
//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
func scanAVX(freqs []float64, coeffs []complex128, t0, dt float64, n int, re, im []float64, mode int) (float64, int) {
	panic("phasor: no AVX kernel on this architecture")
}

// peakLanes is never called off amd64, where useAVX is false.
//
//ivn:unit freqs Hz
//ivn:unit dt s
func peakLanes(freqs []float64, coeffs []complex128, dt float64, n int, best *[lanes]float64, arg *[lanes]int) {
	panic("phasor: no lane kernel on this architecture")
}

// dwellLanes is never called off amd64, where useAVX is false.
//
//ivn:unit freqs Hz
//ivn:unit dt s
func dwellLanes(freqs []float64, coeffs []complex128, dt float64, n int, level float64, runs *[lanes]int) {
	panic("phasor: no lane kernel on this architecture")
}
