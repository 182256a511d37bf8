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
func scanAVX(freqs []float64, coeffs []complex128, t0, dt float64, re, im []float64, mode int) (float64, int) {
	panic("phasor: no AVX kernel on this architecture")
}
