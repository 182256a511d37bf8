// Fixture corpus for the hotpath analyzer: transitive allocation through
// a two-deep callee chain, the append-reuse exemption, interface boxing,
// dynamic dispatch, and extern calls.
package hotpath

import (
	"math"
	"strconv"
)

// kernel reaches an allocation two calls down.
//
//ivn:hotpath
func kernel(dst []float64, n int) {
	for i := range dst {
		dst[i] = helper(i)
	}
	deep(dst, n)
}

// helper is allocation-free on its own.
func helper(i int) float64 {
	return float64(i * i)
}

// deep is one level below the root.
func deep(dst []float64, n int) {
	inner(dst, n)
}

// inner holds the allocation the root must be blamed for.
func inner(dst []float64, n int) {
	tmp := make([]float64, n) // want `hot path .*kernel: make\(\[\]float64\) allocates \(path: .*kernel → .*deep → .*inner\)`
	copy(dst, tmp)
}

// reuses exercises the append(x[:0], ...) recycled-capacity exemption.
//
//ivn:hotpath
func reuses(dst []float64, x float64) []float64 {
	return append(dst[:0], x)
}

// grows appends without recycling capacity.
//
//ivn:hotpath
func grows(dst []float64, x float64) []float64 {
	return append(dst, x) // want `hot path .*grows: append may grow its backing array`
}

// boxing stores a concrete float into an interface.
//
//ivn:hotpath
func boxing(v float64) any {
	var sink any
	sink = v // want `hot path .*boxing: assignment boxes float64 into interface`
	return sink
}

// dynamic cannot be proven through a function value.
//
//ivn:hotpath
func dynamic(f func() float64) float64 {
	return f() // want `hot path .*dynamic: dynamic call \(function value or interface method\) cannot be proven allocation-free`
}

// extern calls outside the module (and off the allowlist) are assumed to
// allocate.
//
//ivn:hotpath
func extern(x float64) int {
	return len(strconv.FormatFloat(x, 'g', -1, 64)) // want `hot path .*extern: calls strconv.FormatFloat outside the analyzable module`
}

// mathOK: the math allowlist is assumed allocation-free. No findings.
//
//ivn:hotpath
func mathOK(x float64) float64 {
	return math.Sqrt(x)
}

// allowed demonstrates a reasoned suppression on a cold acquisition.
//
//ivn:hotpath
func allowed(n int) []float64 {
	//ivn:allow hotpath one-time table build at startup, outside the steady-state loop
	return make([]float64, n)
}

// unmarked is not a root: its allocation is nobody's finding.
func unmarked(n int) []float64 {
	return make([]float64, n)
}
