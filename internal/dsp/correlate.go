// Package dsp holds the uplink decoder's correlation kernel: the
// normalized cross-correlation of a sampled reply against a known
// preamble (MaxCorrelation), with the arithmetic mean it centres by.
package dsp

import "math"

// normalizedCrossCorrelationInto slides template over x and writes, at
// each lag, the Pearson-style normalized correlation in [-1, 1]
//
//	ρ[lag] = Σ (x[lag+k]−x̄)(t[k]−t̄) / (‖x−x̄‖·‖t−t̄‖)
//
// into out (which must have length len(x)−len(template)+1) and returns
// it; a zero-variance segment correlates at 0. IVN's in-vivo evaluation
// declares a communication successful when the best correlation against
// the tag's known 12-bit FM0 preamble exceeds 0.8 (paper §6.2). The
// per-lag inner product runs through the 4-wide unrolled kernel; the
// simple loop is retained as normalizedCrossCorrelationRef and the two
// are pinned bit-identical (TestCorrelationUnrollBitExact).
func normalizedCrossCorrelationInto(out, x, template []float64) []float64 {
	m := len(template)
	tMean := Mean(template)
	var tNorm float64
	for _, v := range template {
		d := v - tMean
		tNorm += d * d
	}
	tNorm = math.Sqrt(tNorm)

	for lag := range out {
		seg := x[lag : lag+m]
		segMean := Mean(seg)
		dot, xNorm := centeredDotAndEnergy(seg, template, segMean, tMean)
		den := math.Sqrt(xNorm) * tNorm
		if den == 0 {
			out[lag] = 0
		} else {
			out[lag] = dot / den
		}
	}
	return out
}

// centeredDotAndEnergy returns Σ(seg[k]−segMean)(t[k]−tMean) and
// Σ(seg[k]−segMean)², unrolled four elements per iteration. The
// accumulators stay scalar and every add lands in the same order as the
// one-element loop, so the unroll is bit-identical to the reference — it
// buys reduced loop overhead and bounds-check elision, not reassociation.
func centeredDotAndEnergy(seg, template []float64, segMean, tMean float64) (dot, xNorm float64) {
	m := len(template)
	seg = seg[:m]
	k := 0
	for ; k+4 <= m; k += 4 {
		dx := seg[k] - segMean
		dot += dx * (template[k] - tMean)
		xNorm += dx * dx
		dx = seg[k+1] - segMean
		dot += dx * (template[k+1] - tMean)
		xNorm += dx * dx
		dx = seg[k+2] - segMean
		dot += dx * (template[k+2] - tMean)
		xNorm += dx * dx
		dx = seg[k+3] - segMean
		dot += dx * (template[k+3] - tMean)
		xNorm += dx * dx
	}
	for ; k < m; k++ {
		dx := seg[k] - segMean
		dot += dx * (template[k] - tMean)
		xNorm += dx * dx
	}
	return dot, xNorm
}

// normalizedCrossCorrelationRef is the pre-unroll reference
// implementation, retained so the specialized kernel stays testable
// against the original arithmetic.
//
//ivn:allow unreached the reference TestCorrelationUnrollBitExact pins the unrolled kernel to
func normalizedCrossCorrelationRef(out, x, template []float64) []float64 {
	m := len(template)
	tMean := Mean(template)
	var tNorm float64
	for _, v := range template {
		d := v - tMean
		tNorm += d * d
	}
	tNorm = math.Sqrt(tNorm)

	for lag := range out {
		seg := x[lag : lag+m]
		segMean := Mean(seg)
		var dot, xNorm float64
		for k, tv := range template {
			dx := seg[k] - segMean
			dt := tv - tMean
			dot += dx * dt
			xNorm += dx * dx
		}
		den := math.Sqrt(xNorm) * tNorm
		if den == 0 {
			out[lag] = 0
		} else {
			out[lag] = dot / den
		}
	}
	return out
}

// corrBlock is how many lags MaxCorrelation correlates per pass into its
// stack array.
const corrBlock = 256

// MaxCorrelation returns the highest normalized cross-correlation value and
// the first lag where it occurs. For degenerate inputs it returns (0, -1).
// The lags are correlated corrBlock at a time into a stack array, so the
// reduction allocates nothing.
//
//ivn:hotpath
func MaxCorrelation(x, template []float64) (best float64, lag int) {
	n, m := len(x), len(template)
	if m == 0 || n < m {
		return 0, -1
	}
	var blk [corrBlock]float64
	lag = -1
	for lo := 0; lo <= n-m; lo += corrBlock {
		nb := min(corrBlock, n-m+1-lo)
		corr := normalizedCrossCorrelationInto(blk[:nb], x[lo:lo+nb+m-1], template)
		for i, v := range corr {
			if lag < 0 || v > best {
				best, lag = v, lo+i
			}
		}
	}
	return best, lag
}

// Mean returns the arithmetic mean of x, or 0 for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}
