// Package phasor is the shared phasor-recurrence envelope kernel behind
// every beat-envelope scan in the simulator.
//
// Both the CIB envelope mathematics (internal/core, paper Eq. 5) and the
// received-power scans of the baseline comparators (internal/baseline,
// §6.1.1) reduce to the same primitive: evaluate
//
//	S(k) = Σ_i c_i · e^{j·2π·f_i·(t0 + k·dt)}   for k = 0 .. n−1
//
// for a small set of complex coefficients c_i rotating at frequencies f_i,
// and take either the magnitude series |S(k)| or the power peak
// max_k |S(k)|². A naive implementation calls math.Sincos once per carrier
// per sample — O(N·n) transcendental evaluations, the simulator's hottest
// loop by far. The kernel instead advances each carrier by one complex
// multiply per step (the rotation e^{j·2π·f·dt} is computed once), with a
// periodic renormalization that pins the phasor magnitude back to |c_i| so
// rounding drift cannot accumulate: four multiplies and four adds per
// carrier-sample (the complex rotation and the two accumulations),
// matching the naive evaluation to ~1e-12 relative error.
//
// On amd64 CPUs with AVX, scans of 2–10 carriers run in an assembly
// kernel (scan_amd64.s) that keeps every carrier in registers and makes
// one pass over the grid; every other scan runs the Go kernels. The two
// families are bit-identical, so no output depends on the machine's
// instruction set. The batched scans PeakPowers and LongestRunsAbove
// (batch.go) run several Monte-Carlo trials of one frequency plan, four
// at a time in a lane kernel of their own on the same CPUs.
//
// All scans use the half-open convention: n samples cover
// t ∈ [t0, t0 + n·dt), i.e. t_k = t0 + k·dt for k = 0..n−1; the endpoint
// t0 + n·dt is excluded. For integer-offset CIB plans over one 1 s period
// the envelope is periodic, so the excluded endpoint would only duplicate
// t0.
//
// The scans that need working storage (MagnitudeSeries, LongestRunAbove,
// and the peak scans on the Go kernels) take an re/im accumulator pair
// from a package-private free list and give it back before they return,
// so steady-state scans allocate nothing.
package phasor

import (
	"math"
	"sync"
)

// renormMask sets the renormalization cadence: after every
// (renormMask+1) recurrence steps the running phasor is rescaled to its
// exact starting magnitude, bounding multiplicative rounding drift.
const renormMask = 2047

// SumSeries accumulates Σ_i coeffs[i]·e^{j·2π·freqs[i]·(t0+k·dt)} into
// (re[k], im[k]) for k in [0, n). re and im must have length ≥ n and
// arrive zeroed (or hold a partial sum to extend). freqs and coeffs must
// have equal length; a scan panics otherwise because a mismatch is
// always a programming error.
//
// The result is bit-identical to the serial per-carrier loop
// (sumSeriesSerial in the tests, the reference): for every sample k the
// partial sums accumulate in ascending carrier order with the exact same
// operations, and each carrier's recurrence and renormalization sequence
// is unchanged. scan picks the kernel family that computes it.
//
//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
//ivn:hotpath
func SumSeries(freqs []float64, coeffs []complex128, t0, dt float64, n int, re, im []float64) {
	if n <= 0 {
		return
	}
	scan(freqs, coeffs, t0, dt, n, re, im, scanSum)
}

// The scan modes: what a scan does with each sample's completed sum
// S(k) = (x, y). The sum mode starts from the partial sum (re[k], im[k]);
// the peak and power modes start from zero, so on the Go kernels, which
// add into re/im, they need a cleared pair, and the AVX kernel reads
// neither.
const (
	// scanSum stores x into re[k] and y into im[k].
	scanSum = iota
	// scanPeak stores nothing and returns the power maximum
	// max_k x²+y² (strictly greater replaces, so the first index wins a
	// tie) and its index.
	scanPeak
	// scanPower stores the power x²+y² into re[k] and returns the
	// maximum as scanPeak does.
	scanPower
)

// maxAVXCarriers is the widest scan the AVX kernel runs: five YMM
// registers of two carriers each.
const maxAVXCarriers = 10

// groupWidth returns how many of the left carriers the next pass of the
// Go kernels takes: four, except that five left split 3+2 (so 5→3+2,
// 9→4+3+2, 10→4+4+2). A one-carrier pass is a single latency-bound
// multiply chain at about twice the cost per carrier-sample of a wider
// one, so no pass runs one carrier unless the whole set is one carrier.
// Groups stop at four because a wider pass runs out of amd64's 15
// allocatable XMM registers and spills every sample.
func groupWidth(left int) int {
	if left == 5 {
		return 3
	}
	return min(left, 4)
}

// scan runs one scan of re[:n]/im[:n] in mode (scanSum, scanPeak or
// scanPower) and returns the power maximum and its first index, or
// (0, 0) in scanSum. After scanPeak re/im hold unspecified partial sums,
// and after scanPower im does. On the AVX kernel a peak scan may pass
// nil for both and a power scan nil for im, and a power scan's re need
// not be cleared.
//
// Two kernel families compute it, bit for bit alike. A scan of 2 to
// maxAVXCarriers carriers on a CPU with AVX takes the AVX kernel
// (scanAVX): every carrier in one pass. Every other scan — one carrier,
// more than maxAVXCarriers, another architecture or a CPU without AVX —
// takes the Go kernels sumSeries1..4, which run the carriers in groups
// of up to four in ascending order: every group but the last adds into
// re/im, and the last applies the mode.
//
//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
func scan(freqs []float64, coeffs []complex128, t0, dt float64, n int, re, im []float64, mode int) (best float64, arg int) {
	if len(freqs) != len(coeffs) {
		panic("phasor: freqs/coeffs length mismatch")
	}
	if takesAVX(len(freqs)) {
		return scanAVX(freqs, coeffs, t0, dt, n, re, im, mode)
	}
	re = re[:n]
	im = im[:n]
	for len(freqs) > 0 {
		w := groupWidth(len(freqs))
		m := scanSum
		if w == len(freqs) {
			m = mode
		}
		switch w {
		case 1:
			best, arg = sumSeries1(freqs[0], coeffs[0], t0, dt, re, im, m)
		case 2:
			best, arg = sumSeries2(freqs[:2:2], coeffs[:2:2], t0, dt, re, im, m)
		case 3:
			best, arg = sumSeries3(freqs[:3:3], coeffs[:3:3], t0, dt, re, im, m)
		default:
			best, arg = sumSeries4(freqs[:4:4], coeffs[:4:4], t0, dt, re, im, m)
		}
		freqs, coeffs = freqs[w:], coeffs[w:]
	}
	return best, arg
}

// takesAVX reports whether a scan of the given number of carriers runs
// the AVX kernel. One carrier stays on sumSeries1: its chain gains only a
// permute from the packed form, so it runs slower there.
func takesAVX(carriers int) bool {
	return useAVX && carriers >= 2 && carriers <= maxAVXCarriers
}

// startPhasor rotates coeff to its value at t0 and returns the per-step
// rotation for spacing dt plus the starting magnitude — the shared setup
// of every kernel.
//
// Here and in the kernels, every product that feeds an add or subtract is
// an explicit float64 conversion: the Go spec lets a compiler fuse x*y+z
// into one rounding (arm64 does) unless the product is converted, and a
// fused step would break the bit-identity with the reference on such
// machines. On amd64 the conversions change no instruction.
//
//ivn:unit f Hz
//ivn:unit t0 s
//ivn:unit dt s
func startPhasor(f float64, coeff complex128, t0, dt float64) (curRe, curIm, rotRe, rotIm, mag float64) {
	ss, cs := math.Sincos(2 * math.Pi * f * dt)
	rotRe, rotIm = cs, ss
	curRe, curIm = real(coeff), imag(coeff)
	if t0 != 0 {
		s0, c0 := math.Sincos(2 * math.Pi * f * t0)
		curRe, curIm = float64(curRe*c0)-float64(curIm*s0), float64(curRe*s0)+float64(curIm*c0)
	}
	mag = math.Hypot(curRe, curIm)
	return
}

// The kernels sumSeries1..4 each advance one group of carriers through a
// single pass over re/im. A group's recurrence chains are independent
// (w-way instruction-level parallelism on the latency-bound complex
// multiplies), and re/im are touched once per sample instead of once per
// carrier. Additions into sample k run in ascending carrier order,
// reproducing the serial loop's partial-sum sequence exactly. mode is
// scan's loop-invariant mode for this group (scanSum for every group but
// the last).
//
// The 3- and 4-wide kernels keep their loop-invariant rotations in a
// local array, which stays in memory, so each multiply reads its rotation
// as a memory operand and the running phasors, sums and peak keep the
// registers; held in registers too, the 4-wide loop spills every sample.

//ivn:unit f Hz
//ivn:unit t0 s
//ivn:unit dt s
func sumSeries1(f float64, coeff complex128, t0, dt float64, re, im []float64, mode int) (best float64, arg int) {
	c0r, c0i, r0r, r0i, m0 := startPhasor(f, coeff, t0, dt)
	im = im[:len(re)]
	for k := range re {
		x := re[k]
		x += c0r
		y := im[k]
		y += c0i
		if mode == scanSum {
			re[k] = x
			im[k] = y
		} else {
			p := float64(x*x) + float64(y*y)
			if mode == scanPower {
				re[k] = p
			}
			if p > best {
				best, arg = p, k
			}
		}
		c0r, c0i = float64(c0r*r0r)-float64(c0i*r0i), float64(c0r*r0i)+float64(c0i*r0r)
		if k&renormMask == renormMask {
			if m := math.Hypot(c0r, c0i); m != 0 {
				s := m0 / m
				c0r *= s
				c0i *= s
			}
		}
	}
	return best, arg
}

//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
func sumSeries2(freqs []float64, coeffs []complex128, t0, dt float64, re, im []float64, mode int) (best float64, arg int) {
	_ = freqs[1]
	_ = coeffs[1]
	c0r, c0i, r0r, r0i, m0 := startPhasor(freqs[0], coeffs[0], t0, dt)
	c1r, c1i, r1r, r1i, m1 := startPhasor(freqs[1], coeffs[1], t0, dt)
	im = im[:len(re)]
	for k := range re {
		x := re[k]
		x += c0r
		x += c1r
		y := im[k]
		y += c0i
		y += c1i
		if mode == scanSum {
			re[k] = x
			im[k] = y
		} else {
			p := float64(x*x) + float64(y*y)
			if mode == scanPower {
				re[k] = p
			}
			if p > best {
				best, arg = p, k
			}
		}
		c0r, c0i = float64(c0r*r0r)-float64(c0i*r0i), float64(c0r*r0i)+float64(c0i*r0r)
		c1r, c1i = float64(c1r*r1r)-float64(c1i*r1i), float64(c1r*r1i)+float64(c1i*r1r)
		if k&renormMask == renormMask {
			if m := math.Hypot(c0r, c0i); m != 0 {
				s := m0 / m
				c0r *= s
				c0i *= s
			}
			if m := math.Hypot(c1r, c1i); m != 0 {
				s := m1 / m
				c1r *= s
				c1i *= s
			}
		}
	}
	return best, arg
}

//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
func sumSeries3(freqs []float64, coeffs []complex128, t0, dt float64, re, im []float64, mode int) (best float64, arg int) {
	_ = freqs[2]
	_ = coeffs[2]
	c0r, c0i, r0r, r0i, m0 := startPhasor(freqs[0], coeffs[0], t0, dt)
	c1r, c1i, r1r, r1i, m1 := startPhasor(freqs[1], coeffs[1], t0, dt)
	c2r, c2i, r2r, r2i, m2 := startPhasor(freqs[2], coeffs[2], t0, dt)
	rot := [6]float64{r0r, r0i, r1r, r1i, r2r, r2i}
	im = im[:len(re)]
	for k := range re {
		x := re[k]
		x += c0r
		x += c1r
		x += c2r
		y := im[k]
		y += c0i
		y += c1i
		y += c2i
		if mode == scanSum {
			re[k] = x
			im[k] = y
		} else {
			p := float64(x*x) + float64(y*y)
			if mode == scanPower {
				re[k] = p
			}
			if p > best {
				best, arg = p, k
			}
		}
		c0r, c0i = float64(c0r*rot[0])-float64(c0i*rot[1]), float64(c0r*rot[1])+float64(c0i*rot[0])
		c1r, c1i = float64(c1r*rot[2])-float64(c1i*rot[3]), float64(c1r*rot[3])+float64(c1i*rot[2])
		c2r, c2i = float64(c2r*rot[4])-float64(c2i*rot[5]), float64(c2r*rot[5])+float64(c2i*rot[4])
		if k&renormMask == renormMask {
			if m := math.Hypot(c0r, c0i); m != 0 {
				s := m0 / m
				c0r *= s
				c0i *= s
			}
			if m := math.Hypot(c1r, c1i); m != 0 {
				s := m1 / m
				c1r *= s
				c1i *= s
			}
			if m := math.Hypot(c2r, c2i); m != 0 {
				s := m2 / m
				c2r *= s
				c2i *= s
			}
		}
	}
	return best, arg
}

//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
func sumSeries4(freqs []float64, coeffs []complex128, t0, dt float64, re, im []float64, mode int) (best float64, arg int) {
	_ = freqs[3]
	_ = coeffs[3]
	c0r, c0i, r0r, r0i, m0 := startPhasor(freqs[0], coeffs[0], t0, dt)
	c1r, c1i, r1r, r1i, m1 := startPhasor(freqs[1], coeffs[1], t0, dt)
	c2r, c2i, r2r, r2i, m2 := startPhasor(freqs[2], coeffs[2], t0, dt)
	c3r, c3i, r3r, r3i, m3 := startPhasor(freqs[3], coeffs[3], t0, dt)
	rot := [8]float64{r0r, r0i, r1r, r1i, r2r, r2i, r3r, r3i}
	im = im[:len(re)]
	for k := range re {
		x := re[k]
		x += c0r
		x += c1r
		x += c2r
		x += c3r
		y := im[k]
		y += c0i
		y += c1i
		y += c2i
		y += c3i
		if mode == scanSum {
			re[k] = x
			im[k] = y
		} else {
			p := float64(x*x) + float64(y*y)
			if mode == scanPower {
				re[k] = p
			}
			if p > best {
				best, arg = p, k
			}
		}
		c0r, c0i = float64(c0r*rot[0])-float64(c0i*rot[1]), float64(c0r*rot[1])+float64(c0i*rot[0])
		c1r, c1i = float64(c1r*rot[2])-float64(c1i*rot[3]), float64(c1r*rot[3])+float64(c1i*rot[2])
		c2r, c2i = float64(c2r*rot[4])-float64(c2i*rot[5]), float64(c2r*rot[5])+float64(c2i*rot[4])
		c3r, c3i = float64(c3r*rot[6])-float64(c3i*rot[7]), float64(c3r*rot[7])+float64(c3i*rot[6])
		if k&renormMask == renormMask {
			if m := math.Hypot(c0r, c0i); m != 0 {
				s := m0 / m
				c0r *= s
				c0i *= s
			}
			if m := math.Hypot(c1r, c1i); m != 0 {
				s := m1 / m
				c1r *= s
				c1i *= s
			}
			if m := math.Hypot(c2r, c2i); m != 0 {
				s := m2 / m
				c2r *= s
				c2i *= s
			}
			if m := math.Hypot(c3r, c3i); m != 0 {
				s := m3 / m
				c3r *= s
				c3i *= s
			}
		}
	}
	return best, arg
}

// MagnitudeSeries writes |Σ_i coeffs[i]·e^{j·2π·freqs[i]·(t0+k·dt)}| into
// dst[k] for k in [0, n). dst must have length ≥ n. The sums run in a
// scratch pair from the free list; the call itself does not allocate in
// steady state.
//
//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
//ivn:hotpath
func MagnitudeSeries(freqs []float64, coeffs []complex128, t0, dt float64, n int, dst []float64) {
	re, im := getScratch(n, true)
	SumSeries(freqs, coeffs, t0, dt, n, re, im)
	dst = dst[:n]
	for k := 0; k < n; k++ {
		dst[k] = math.Hypot(re[k], im[k])
	}
	putScratch(re, im)
}

// LongestRunAbove returns the length of the longest run of consecutive
// samples k ∈ [0, n) whose magnitude
// |Σ_i coeffs[i]·e^{j·2π·freqs[i]·(t0+k·dt)}| exceeds level. The grid is
// taken as one period of a periodic envelope, so a run may wrap from the
// last sample to the first; a level every sample clears gives n.
//
// A sample's decision is math.Hypot(x, y) > level, taken from its power
// x²+y² wherever that is provably the same answer (see dwellBand).
//
//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
//ivn:hotpath
func LongestRunAbove(freqs []float64, coeffs []complex128, t0, dt float64, n int, level float64) int {
	if n <= 0 {
		return 0
	}
	re, im := getScratch(n, true)
	scan(freqs, coeffs, t0, dt, n, re, im, scanSum)
	lo, hi := dwellBand(level)
	// lead is the run before the first sample below level, or -1 while
	// none has been seen; run ends as the run that closes the period.
	best, run, lead := 0, 0, -1
	for k, x := range re {
		// Above when the power clears the band, not when it falls short
		// of it; inside the band, or for a NaN power, Hypot decides.
		y := im[k]
		if p := float64(x*x) + float64(y*y); p > hi || !(p < lo) && math.Hypot(x, y) > level {
			run++
			best = max(best, run)
			continue
		}
		if lead < 0 {
			lead = run
		}
		run = 0
	}
	putScratch(re, im)
	if lead < 0 {
		return n
	}
	return max(best, run+lead) // the closing run wraps into the leading one
}

// dwellBand returns the band (lo, hi) of powers x²+y² outside which a
// sample's power decides math.Hypot(x, y) > level: above when the power
// is > hi, not above when it is < lo. Inside the band, and for a NaN
// power, the caller asks Hypot.
//
// The band is level²·(1 ± 1e-12). Within level ∈ (1e-90, 1e90), level²
// and a power near it are normal floats: the rounded power x·x + y·y errs
// from x²+y² by at most about 3 ulp (two rounded products and a rounded
// add; a square small enough to lose precision to underflow is smaller
// than 1e-12·level² by over a hundred orders of magnitude), Hypot errs
// by a few ulp, and each band edge is rounded twice, so a power beyond
// an edge is ~1000× too far from level² for Hypot to disagree. Outside
// that range (level ≤ 1e-90, ≥ 1e90, negative or NaN) the band is
// everything, and Hypot decides every sample.
func dwellBand(level float64) (lo, hi float64) {
	if !bandDecides(level) {
		return math.Inf(-1), math.Inf(1)
	}
	l2 := level * level
	return l2 * (1 - 1e-12), l2 * (1 + 1e-12)
}

// bandDecides reports whether level lies in the range where dwellBand's
// band decides the samples outside it.
func bandDecides(level float64) bool { return level > 1e-90 && level < 1e90 }

// PeakPower returns max_k |Σ_i coeffs[i]·e^{j·2π·freqs[i]·(t0+k·dt)}|²
// over the half-open grid k ∈ [0, n).
//
//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
//ivn:hotpath
func PeakPower(freqs []float64, coeffs []complex128, t0, dt float64, n int) float64 {
	p, _ := peakPowerArg(freqs, coeffs, t0, dt, n)
	return p
}

// peakPowerArg returns the power peak and its first grid index. The scan
// runs in scanPeak, so the full series is never written out, and on the
// AVX kernel it takes no scratch pair at all.
//
//ivn:unit freqs Hz
//ivn:unit t0 s
//ivn:unit dt s
func peakPowerArg(freqs []float64, coeffs []complex128, t0, dt float64, n int) (float64, int) {
	if n <= 0 || len(freqs) == 0 {
		return 0, -1
	}
	if takesAVX(len(freqs)) {
		return scan(freqs, coeffs, t0, dt, n, nil, nil, scanPeak)
	}
	re, im := getScratch(n, true)
	best, arg := scan(freqs, coeffs, t0, dt, n, re, im, scanPeak)
	putScratch(re, im)
	return best, arg
}

// refineFraction sets which coarse cells the refinement stage rescans:
// every cell whose coarse power is ≥ refineFraction × the coarse maximum.
// A coarse sample can undershoot a crest it straddles by at most
// cos²(π·B·dtC), where B is the envelope bandwidth (the carrier frequency
// spread) and dtC the coarse spacing; as long as cos²(π·B·dtC) ≥
// refineFraction, the cell holding the true fine-grid argmax always
// clears the threshold and the refined result equals the full scan. At
// 0.85 that holds for B·dtC ≤ 0.125 — e.g. a 2048-point coarse grid over
// 1 s covers plans up to ~250 Hz of spread, comfortably above the
// ≤200 Hz flatness-constrained CIB sets. Tighter envelopes refine a
// handful of cells; pathological ones (near-tie lobes everywhere)
// degrade gracefully toward the full scan instead of missing the peak.
const refineFraction = 0.85

// PeakPowerRefined is the coarse-to-fine peak scan: it samples the power
// envelope on a coarse grid of nCoarse points over [0, duration), then
// rescans the fine grid (duration/nFine spacing) only around the coarse
// cells within refineFraction of the coarse maximum. nFine must be a
// positive multiple of nCoarse; otherwise, or when the coarse grid would
// not actually be coarser, it falls back to the full fine-grid scan. The
// result is always the power at a sample point of PeakPower's half-open
// [0, duration) fine grid, and for adequately oversampled envelopes (see
// refineFraction) it equals the full fine-grid scan.
//
//ivn:unit freqs Hz
//ivn:unit duration s
//ivn:hotpath
func PeakPowerRefined(freqs []float64, coeffs []complex128, duration float64, nCoarse, nFine int) float64 {
	if len(freqs) == 0 || nFine <= 0 {
		return 0
	}
	if nCoarse <= 0 || nCoarse >= nFine || nFine%nCoarse != 0 {
		return PeakPower(freqs, coeffs, 0, duration/float64(nFine), nFine)
	}
	dtC := duration / float64(nCoarse)
	dtF := duration / float64(nFine)
	ratio := nFine / nCoarse

	// Coarse pass; keep the per-cell powers in re. The AVX kernel only
	// writes re, so its pair needs no clearing.
	re, im := getScratch(nCoarse, !takesAVX(len(freqs)))
	maxP, _ := scan(freqs, coeffs, 0, dtC, nCoarse, re, im, scanPower)

	// Every coarse point is also a fine point (k·dtC = k·ratio·dtF), so the
	// coarse peak is a valid lower bound on the fine-grid answer.
	best := maxP
	thresh := refineFraction * maxP

	// Refine: for each run of qualifying cells, rescan the fine-grid points
	// spanning the run plus the flanking cells, clamped to the interval.
	// Merging runs keeps overlapping windows from being evaluated twice.
	for k := 0; k < nCoarse; {
		if re[k] < thresh {
			k++
			continue
		}
		start := k
		for k < nCoarse && re[k] >= thresh {
			k++
		}
		lo := start*ratio - (ratio - 1)
		if lo < 0 {
			lo = 0
		}
		hi := (k-1)*ratio + ratio - 1
		if hi > nFine-1 {
			hi = nFine - 1
		}
		if p, _ := peakPowerArg(freqs, coeffs, float64(lo)*dtF, dtF, hi-lo+1); p > best {
			best = p
		}
	}
	putScratch(re, im)
	return best
}

// scratchPair is one re/im accumulator pair of the free list.
type scratchPair struct{ re, im []float64 }

// The free list of accumulator pairs. A pair grows to the largest scan it
// has served and is never released; the list holds as many pairs as scans
// have ever been in flight at once (one per trial worker, plus
// PeakPowerRefined's nested refinement scan). A scan takes its pair and
// returns it within one function and keeps no reference to it.
var (
	scratchMu   sync.Mutex
	scratchFree []scratchPair
)

// getScratch returns an re/im pair of length n: the most recently
// returned pair when it has the capacity, else a new one. With zeroed a
// recycled pair is cleared; the kernels add into re/im, so every scan but
// an AVX power scan needs that.
func getScratch(n int, zeroed bool) (re, im []float64) {
	var p scratchPair
	//ivn:allow hotpath sync.Mutex's Lock does not allocate
	scratchMu.Lock()
	if k := len(scratchFree) - 1; k >= 0 {
		p, scratchFree = scratchFree[k], scratchFree[:k]
	}
	//ivn:allow hotpath sync.Mutex's Unlock does not allocate
	scratchMu.Unlock()
	if cap(p.re) < n {
		//ivn:allow hotpath a pair grows once per size and then serves every scan up to it; make zeroes it
		return make([]float64, n), make([]float64, n)
	}
	re, im = p.re[:n], p.im[:n]
	if zeroed {
		clear(re)
		clear(im)
	}
	return re, im
}

// putScratch returns a pair taken with getScratch to the free list. The
// caller must not use re or im afterwards.
func putScratch(re, im []float64) {
	//ivn:allow hotpath sync.Mutex's Lock does not allocate
	scratchMu.Lock()
	//ivn:allow hotpath the list grows only until it holds one pair per scan ever in flight at once
	scratchFree = append(scratchFree, scratchPair{re, im})
	//ivn:allow hotpath sync.Mutex's Unlock does not allocate
	scratchMu.Unlock()
}
