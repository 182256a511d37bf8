package phasor

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"

	"ivn/internal/rng"
)

// FuzzScanMatchesSerial holds every scan mode of both kernel families to
// the serial reference on scans decoded from the fuzz input (see
// decodeScan), bit for bit: SumSeries from a partial sum, and scanPeak,
// scanPower, peakPowerArg and LongestRunAbove from zero, the last against
// the reference's Hypot loop.
//
// The committed corpus under testdata/fuzz holds odd carrier counts, a
// −0 partial sum that every carrier keeps −0 at its first sample (an
// added +0 would turn it into +0), a flat envelope (every sample ties
// the peak), scans across two and three renormalization blocks, a scan
// too wide for the AVX kernel, levels outside the power test's range,
// and a one-sample scan whose level is math.Hypot of its coefficient
// while x·x + y·y rounds above level·level.
func FuzzScanMatchesSerial(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		checkScan(t, decodeScan(in))
	})
}

// scanCase is one decoded fuzz input.
type scanCase struct {
	freqs    []float64
	coeffs   []complex128
	t0, dt   float64
	n        int
	re0, im0 float64 // the partial sum every sample starts from
	level    float64
	levelAt  int // ≥ 0: the level is the magnitude of this sample instead
}

// maxFuzzSamples bounds a decoded scan: long enough to cross two
// renormalization blocks, short enough to keep an input fast.
const maxFuzzSamples = 6000

// decodeScan reads a scan from a fuzz input. Fields are read in this
// order, little-endian; an input that ends early reads zeros:
//
//	byte     carriers = 1 + b%12
//	byte     flags: bit 0 integer-Hz frequencies, bit 1 level at a sample
//	uint16   n = 1 + v%maxFuzzSamples
//	float64  t0 (folded into |t0| < 1e3), dt (|dt| < 1)
//	float64  the partial sum's re and im (each |·| < 1e6)
//	level    with flag bit 1 a uint16 j, and the level is the magnitude
//	         of sample j%n of the zero-start sum; else a float64 taken as
//	         it stands, NaN and ±Inf included
//	per carrier: the frequency (an int16 in Hz with flag bit 0, else a
//	         float64 folded into |f| < 1e4), then the coefficient's re
//	         and im (each |·| < 1e6)
//
// Folding (see fuzzReader.float) keeps every value finite and every sum
// far from overflow, and keeps zeros and −0 as they are.
func decodeScan(in []byte) scanCase {
	r := fuzzReader(in)
	carriers := 1 + int(r.byte())%12
	flags := r.byte()
	c := scanCase{n: 1 + int(r.uint16())%maxFuzzSamples, levelAt: -1}
	c.t0, c.dt = r.float(1e3), r.float(1)
	c.re0, c.im0 = r.float(1e6), r.float(1e6)
	if flags&2 != 0 {
		c.levelAt = int(r.uint16()) % c.n
	} else {
		c.level = r.float(0)
	}
	for range carriers {
		f := 0.0
		if flags&1 != 0 {
			f = float64(int16(r.uint16()))
		} else {
			f = r.float(1e4)
		}
		c.freqs = append(c.freqs, f)
		c.coeffs = append(c.coeffs, complex(r.float(1e6), r.float(1e6)))
	}
	return c
}

// fuzzReader reads fields from the front of a fuzz input; past its end
// every byte reads as zero.
type fuzzReader []byte

func (r *fuzzReader) take(n int) []byte {
	var buf [8]byte
	m := copy(buf[:n], *r)
	*r = (*r)[m:]
	return buf[:n]
}

func (r *fuzzReader) byte() byte { return r.take(1)[0] }

func (r *fuzzReader) uint16() uint16 { return binary.LittleEndian.Uint16(r.take(2)) }

// float reads a float64. With lim > 0, NaN and ±Inf read as 0 and a
// value with |x| ≥ lim is folded to math.Mod(x, lim).
func (r *fuzzReader) float(lim float64) float64 {
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.take(8)))
	if lim > 0 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		if math.Abs(x) >= lim {
			x = math.Mod(x, lim)
		}
	}
	return x
}

// filled returns n copies of v.
func filled(n int, v float64) []float64 {
	s := make([]float64, n)
	for k := range s {
		s[k] = v
	}
	return s
}

// sameBits reports whether a and b are the same float64, bit for bit
// (so −0 differs from +0).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkScan runs c through every mode of every kernel family and fails
// on the first result that differs from the serial reference.
func checkScan(t *testing.T, c scanCase) {
	n := c.n
	wantRe, wantIm := filled(n, c.re0), filled(n, c.im0)
	sumSeriesSerial(c.freqs, c.coeffs, c.t0, c.dt, n, wantRe, wantIm)
	zeroRe, zeroIm := make([]float64, n), make([]float64, n)
	sumSeriesSerial(c.freqs, c.coeffs, c.t0, c.dt, n, zeroRe, zeroIm)
	wantPow := powers(zeroRe, zeroIm)
	wantBest, wantArg := maxArg(wantPow)
	level := c.level
	if c.levelAt >= 0 {
		level = math.Hypot(zeroRe[c.levelAt], zeroIm[c.levelAt])
	}
	wantRun := serialRunAbove(c.freqs, c.coeffs, c.t0, c.dt, n, level)

	for _, fam := range kernelFamilies() {
		func() {
			defer useFamily(fam)()
			re, im := filled(n, c.re0), filled(n, c.im0)
			SumSeries(c.freqs, c.coeffs, c.t0, c.dt, n, re, im)
			for k := range re {
				if !sameBits(re[k], wantRe[k]) || !sameBits(im[k], wantIm[k]) {
					t.Fatalf("%s, %d carriers, n=%d: SumSeries[%d] = (%v, %v), serial (%v, %v)",
						fam.name, len(c.freqs), n, k, re[k], im[k], wantRe[k], wantIm[k])
				}
			}
			best, arg := scan(c.freqs, c.coeffs, c.t0, c.dt, n, make([]float64, n), make([]float64, n), scanPeak)
			if !sameBits(best, wantBest) || arg != wantArg {
				t.Fatalf("%s, %d carriers, n=%d: scanPeak %v at %d, serial %v at %d",
					fam.name, len(c.freqs), n, best, arg, wantBest, wantArg)
			}
			pow := make([]float64, n)
			best, _ = scan(c.freqs, c.coeffs, c.t0, c.dt, n, pow, make([]float64, n), scanPower)
			for k := range pow {
				if !sameBits(pow[k], wantPow[k]) {
					t.Fatalf("%s, %d carriers, n=%d: scanPower[%d] = %v, serial %v", fam.name, len(c.freqs), n, k, pow[k], wantPow[k])
				}
			}
			if !sameBits(best, wantBest) {
				t.Fatalf("%s, %d carriers, n=%d: scanPower maximum %v, serial %v", fam.name, len(c.freqs), n, best, wantBest)
			}
			if best, arg := peakPowerArg(c.freqs, c.coeffs, c.t0, c.dt, n); !sameBits(best, wantBest) || arg != wantArg {
				t.Fatalf("%s, %d carriers, n=%d: peakPowerArg %v at %d, serial %v at %d",
					fam.name, len(c.freqs), n, best, arg, wantBest, wantArg)
			}
			if got := LongestRunAbove(c.freqs, c.coeffs, c.t0, c.dt, n, level); got != wantRun {
				t.Fatalf("%s, %d carriers, n=%d, level %v: LongestRunAbove %d, serial %d",
					fam.name, len(c.freqs), n, level, got, wantRun)
			}
		}()
	}
}

// TestAssemblyHasNoFusedMultiplyAdd reads the package's assembly and
// fails on any fused multiply-add mnemonic (VFMADD…, VFMSUB…, VFNMADD…,
// VFNMSUB…, VFMADDSUB…, VFMSUBADD…): a fused x·y+z rounds once, where
// the Go kernels and the reference round the product and the sum apart.
func TestAssemblyHasNoFusedMultiplyAdd(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no assembly files in the package")
	}
	fused := regexp.MustCompile(`(?i)\bVFN?M(ADD|SUB)`)
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range bytes.Split(src, []byte("\n")) {
			if j := bytes.Index(line, []byte("//")); j >= 0 {
				line = line[:j]
			}
			if fused.Match(line) {
				t.Errorf("%s:%d: fused multiply-add: %s", name, i+1, bytes.TrimSpace(line))
			}
		}
	}
}

// TestScanTakesAVXPath fails when the CPU has AVX (as the operating
// system reports it in /proc/cpuinfo, which lists avx only when the YMM
// state is enabled) but scans of 2–10 carriers do not run the AVX
// kernel, or batches of 2–6 carriers the lane kernel. Four checks: the
// two dispatch predicates; for 5–10 carriers a result only the AVX
// kernel gives — scanPeak leaves re/im as they came, where the Go
// kernels' earlier groups store partial sums into them; and for a
// 4-trial LongestRunsAbove batch of 3–6 carriers a side effect only the
// lane kernel lacks — it takes no pair from the free list, where the
// per-trial scans take the top pair and clear it.
func TestScanTakesAVXPath(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the AVX kernel is amd64 only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to read the CPU's flags from")
	}
	if !cpuinfoHasFlag(info, "avx") {
		t.Skip("the CPU has no AVX")
	}
	if !useAVX {
		t.Fatal("the CPU has AVX, but useAVX is false")
	}
	for carriers := 1; carriers <= maxAVXCarriers+2; carriers++ {
		if want := carriers >= 2 && carriers <= maxAVXCarriers; takesAVX(carriers) != want {
			t.Errorf("takesAVX(%d) = %v, want %v", carriers, !want, want)
		}
	}
	for carriers := 5; carriers <= maxAVXCarriers; carriers++ {
		freqs, coeffs := randomSet(rng.New(uint64(carriers)), carriers, 200)
		re, im := make([]float64, 64), make([]float64, 64)
		scan(freqs, coeffs, 0, 1.0/64, 64, re, im, scanPeak)
		for k := range re {
			if re[k] != 0 || im[k] != 0 {
				t.Fatalf("%d carriers: scanPeak stored a partial sum at %d; the Go kernels ran, not the AVX kernel", carriers, k)
			}
		}
	}
	for carriers := 1; carriers <= maxLaneCarriers+2; carriers++ {
		if want := carriers >= 2 && carriers <= maxLaneCarriers; takesLanes(carriers) != want {
			t.Errorf("takesLanes(%d) = %v, want %v", carriers, !want, want)
		}
	}
	for carriers := 3; carriers <= maxLaneCarriers; carriers++ {
		const n = 64
		r := rng.New(uint64(carriers))
		var freqs []float64
		var coeffs []complex128
		for range lanes {
			f, c := randomSet(r, carriers, 200)
			freqs, coeffs = f, append(coeffs, c...)
		}
		re, im := getScratch(n, true)
		re[0] = math.NaN()
		putScratch(re, im)
		LongestRunsAbove(freqs, coeffs, 1.0/n, n, 0.5*float64(carriers), make([]int, lanes))
		re, im = getScratch(n, false)
		poisoned := math.IsNaN(re[0])
		putScratch(re, im)
		if !poisoned {
			t.Fatalf("%d carriers: a %d-trial LongestRunsAbove cleared the free list's top pair; the per-trial scans ran, not the lane kernel", carriers, lanes)
		}
	}
}

// cpuinfoHasFlag reports whether a flags line of /proc/cpuinfo lists flag.
func cpuinfoHasFlag(info []byte, flag string) bool {
	for _, line := range bytes.Split(info, []byte("\n")) {
		name, list, ok := bytes.Cut(line, []byte(":"))
		if !ok || string(bytes.TrimSpace(name)) != "flags" {
			continue
		}
		for _, f := range bytes.Fields(list) {
			if string(f) == flag {
				return true
			}
		}
	}
	return false
}
