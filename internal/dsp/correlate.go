package dsp

import (
	"math"

	"ivn/internal/pool"
)

// NormalizedCrossCorrelation slides template over x and returns, at each
// lag, the Pearson-style normalized correlation in [-1, 1]:
//
//	ρ[lag] = Σ (x[lag+k]−x̄)(t[k]−t̄) / (‖x−x̄‖·‖t−t̄‖)
//
// The output has len(x)−len(template)+1 entries; it is empty when the
// template is longer than the signal. IVN's in-vivo evaluation declares a
// communication successful when the best correlation against the tag's
// known 12-bit FM0 preamble exceeds 0.8 (paper §6.2).
func NormalizedCrossCorrelation(x, template []float64) []float64 {
	n, m := len(x), len(template)
	if m == 0 || n < m {
		return nil
	}
	return normalizedCrossCorrelationInto(make([]float64, n-m+1), x, template)
}

// normalizedCrossCorrelationInto writes the direct-path correlation into
// out (which must have length len(x)−len(template)+1) and returns it,
// letting callers that only reduce the series use pooled scratch. The
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

// MaxCorrelation returns the highest normalized cross-correlation value and
// the lag where it occurs. For degenerate inputs it returns (0, -1). The
// correlation series lives in pooled scratch, so the reduction allocates
// nothing in steady state.
//
//ivn:hotpath
func MaxCorrelation(x, template []float64) (best float64, lag int) {
	n, m := len(x), len(template)
	if m == 0 || n < m {
		return 0, -1
	}
	buf := pool.Float64(n - m + 1)
	corr := normalizedCrossCorrelationInto(buf, x, template)
	best, lag = corr[0], 0
	for i, v := range corr[1:] {
		if v > best {
			best, lag = v, i+1
		}
	}
	pool.PutFloat64(buf)
	return best, lag
}

// CorrelateComplex computes the (non-normalized) complex cross-correlation
// of x against template: out[lag] = Σ x[lag+k]·conj(t[k]). Used for matched
// filtering of backscatter responses before coherent combining.
func CorrelateComplex(x, template []complex128) []complex128 {
	n, m := len(x), len(template)
	if m == 0 || n < m {
		return nil
	}
	out := make([]complex128, n-m+1)
	for lag := range out {
		var acc complex128
		for k, tv := range template {
			xv := x[lag+k]
			// x·conj(t)
			acc += complex(
				real(xv)*real(tv)+imag(xv)*imag(tv),
				imag(xv)*real(tv)-real(xv)*imag(tv),
			)
		}
		out[lag] = acc
	}
	return out
}

// CoherentAverage splits x into periods of periodLen samples and returns
// their element-wise complex mean. Averaging K periods coherently boosts a
// periodic signal's SNR by a factor of K; IVN's out-of-band reader averages
// tag responses over 1-second CIB envelope periods to survive deep-tissue
// attenuation (paper §5b). Leftover samples past the last full period are
// discarded. It returns nil when x holds no complete period.
func CoherentAverage(x []complex128, periodLen int) []complex128 {
	if periodLen <= 0 || len(x) < periodLen {
		return nil
	}
	periods := len(x) / periodLen
	out := make([]complex128, periodLen)
	for p := 0; p < periods; p++ {
		seg := x[p*periodLen : (p+1)*periodLen]
		for i, v := range seg {
			out[i] += v
		}
	}
	inv := complex(1/float64(periods), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}
