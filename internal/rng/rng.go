// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every randomized component in the IVN simulator.
//
// Reproducibility is a hard requirement for the experiment harness: a figure
// regenerated twice from the same seed must produce identical rows. The
// standard library's global math/rand source is shared mutable state, so this
// package instead gives each component an explicit *Rand. Independent streams
// for parallel trials are derived with Split, which hashes a label into a new
// seed so that adding a trial never perturbs the stream of another.
//
// The core generator is xoshiro256** (Blackman & Vigna, 2018): 256 bits of
// state, period 2^256-1, passes BigCrush, and is allocation-free.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic random number generator. It is not safe for
// concurrent use; derive one per goroutine with Split.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed. Two generators constructed from
// the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator state as if freshly constructed with New(seed).
func (r *Rand) Reseed(seed uint64) {
	// Expand the 64-bit seed into 256 bits of state with SplitMix64, as
	// recommended by the xoshiro authors. SplitMix64 is an equidistributed
	// generator, so any seed (including 0) yields a valid non-zero state.
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// fnv1a hashes label bytes with FNV-1a. It is the one label hash shared
// by every split variant, so a string label and its byte rendering always
// derive the same child stream.
func fnv1a(label []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

// fnv1aString is fnv1a over a string without converting it to []byte.
func fnv1aString(label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

// Split derives an independent generator from r and a label. The derived
// stream depends only on r's current state and the label, so the same
// (parent state, label) pair always yields the same child stream.
func (r *Rand) Split(label string) *Rand {
	// FNV-1a over the label, folded into a draw from the parent.
	return New(r.Uint64() ^ fnv1aString(label))
}

// SplitInto is Split into caller-owned storage: dst is reseeded to the
// exact stream Split(label) would return, with no allocation. The parent
// advances identically.
func (r *Rand) SplitInto(dst *Rand, label string) {
	dst.Reseed(r.Uint64() ^ fnv1aString(label))
}

// SplitBytesInto is SplitInto with the label given as bytes: identical
// label bytes yield the identical child stream, so hot paths can build
// labels in stack scratch (e.g. strconv.AppendInt) instead of fmt.Sprintf.
func (r *Rand) SplitBytesInto(dst *Rand, label []byte) {
	dst.Reseed(r.Uint64() ^ fnv1a(label))
}

// SplitIndexed derives an independent generator for trial index i. It is a
// convenience over Split for the common "one stream per trial" pattern and,
// unlike Split, does not advance the parent: the child seed is a pure
// function of the parent state and i, so parallel trial workers can derive
// their streams from a shared snapshot.
func (r *Rand) SplitIndexed(label string, i int) *Rand {
	child := &Rand{} // Reseed in SplitIndexedInto fully initializes it
	r.SplitIndexedInto(child, label, i)
	return child
}

// SplitIndexedInto is SplitIndexed into caller-owned storage: dst is
// reseeded to the exact stream SplitIndexed(label, i) would return, with
// no allocation. Like SplitIndexed it never mutates the parent, so
// parallel workers can derive trial streams into per-worker scratch from
// a shared snapshot.
func (r *Rand) SplitIndexedInto(dst *Rand, label string, i int) {
	h := fnv1aString(label)
	h ^= uint64(i) + 0x9e3779b97f4a7c15
	h *= 1099511628211
	// Mix with state without mutating it.
	dst.Reseed(h ^ rotl(r.s[0], 13) ^ r.s[3])
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits → [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// UniformRange returns a uniform value in [lo, hi).
func (r *Rand) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Phase returns a uniform phase in [0, 2π). This is the distribution of the
// unknown per-antenna offsets βᵢ in the CIB formulation (paper Eq. 5).
func (r *Rand) Phase() float64 {
	return 2 * math.Pi * r.Float64()
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Rayleigh returns a Rayleigh-distributed variate with scale sigma. Rayleigh
// amplitudes model non-line-of-sight multipath magnitude fading.
func (r *Rand) Rayleigh(sigma float64) float64 {
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return sigma * math.Sqrt(-2*math.Log(u))
}

// ComplexCircular returns a zero-mean circularly-symmetric complex Gaussian
// with the given standard deviation per real dimension. This is the standard
// model for rich-scattering channel taps and thermal noise samples.
func (r *Rand) ComplexCircular(sigma float64) complex128 {
	return complex(sigma*r.NormFloat64(), sigma*r.NormFloat64())
}

// UnitPhasor returns e^{jθ} with θ uniform in [0, 2π).
func (r *Rand) UnitPhasor() complex128 {
	th := r.Phase()
	s, c := math.Sincos(th)
	return complex(c, s)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
