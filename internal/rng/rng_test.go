package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverged: %d != %d", i, av, bv)
		}
	}
}

func TestReseedRestoresStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after Reseed, draw %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("seeds 1 and 2 agree on %d/100 draws", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	// xoshiro would be stuck if the state were all-zero; SplitMix64 expansion
	// must prevent that.
	var all uint64
	for i := 0; i < 64; i++ {
		all |= r.Uint64()
	}
	if all == 0 {
		t.Fatal("zero seed produced an all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d has %d draws, want ≈%v", i, c, want)
		}
	}
}

// schoolbookMul64 is the 128-bit product from four 32-bit partial
// products, the form Intn used before math/bits.Mul64; it is the
// reference that pins Intn's stream across the switch.
func schoolbookMul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

func TestMul64MatchesSchoolbook(t *testing.T) {
	edges := []uint64{0, 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, math.MaxUint64}
	var pairs [][2]uint64
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, [2]uint64{a, b})
		}
	}
	r := New(99)
	for i := 0; i < 10000; i++ {
		pairs = append(pairs, [2]uint64{r.Uint64(), r.Uint64() >> (i % 64)})
	}
	for _, p := range pairs {
		hi, lo := bits.Mul64(p[0], p[1])
		wantHi, wantLo := schoolbookMul64(p[0], p[1])
		if hi != wantHi || lo != wantLo {
			t.Fatalf("%d × %d: bits.Mul64 = (%d, %d), schoolbook (%d, %d)", p[0], p[1], hi, lo, wantHi, wantLo)
		}
	}
	// Intn's stream is the schoolbook sampler's, draw for draw, on small
	// and mid-sized bounds and on bounds just above MaxInt/2 (2⁶² on 64-bit
	// builds, where Lemire's method rejects about one draw in four). The
	// mid-sized bounds reach 2⁴⁰, or 2³⁰ where int has 32 bits.
	mid := uint64(1) << 40
	if bits.UintSize == 32 {
		mid = 1 << 30
	}
	a, b := New(7), New(7)
	for i := 0; i < 10000; i++ {
		n := []int{1 + i%1000, 1 + int(uint64(i)*2654435761%mid), math.MaxInt/2 + 1 + i}[i%3]
		var want int
		for {
			hi, lo := schoolbookMul64(b.Uint64(), uint64(n))
			if lo >= uint64(n) || lo >= -uint64(n)%uint64(n) {
				want = int(hi)
				break
			}
		}
		if got := a.Intn(n); got != want {
			t.Fatalf("draw %d: Intn(%d) = %d, schoolbook sampler %d", i, n, got, want)
		}
	}
}

// TestIntnPowerOfTwoIsTopBits pins the identity gen2's slot draw rests
// on: for a bound of 2^k, Lemire's rejection threshold is 0, so Intn never
// rejects and returns the top k bits of one draw. The bounds reach 2⁶², or
// 2³⁰ where int has 32 bits.
func TestIntnPowerOfTwoIsTopBits(t *testing.T) {
	maxK := 62
	if bits.UintSize == 32 {
		maxK = 30
	}
	for seed := uint64(0); seed < 40; seed++ {
		a, b := New(seed), New(seed)
		for k := 0; k <= maxK; k++ {
			for i := 0; i < 16; i++ {
				got, want := a.Intn(1<<k), int(b.Uint64()>>(64-k))
				if got != want {
					t.Fatalf("seed %d draw %d: Intn(1<<%d) = %d, top bits %d", seed, i, k, got, want)
				}
			}
			if *a != *b {
				t.Fatalf("seed %d: Intn(1<<%d) left the generator in another state than one Uint64 a draw", seed, k)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	a := parent.Split("alpha")
	b := parent.Split("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split streams agree on %d/100 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(123).Split("trial")
	b := New(123).Split("trial")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-label splits diverged at draw %d", i)
		}
	}
}

func TestSplitIndexedDoesNotAdvanceParent(t *testing.T) {
	a, b := New(4), New(4)
	_ = a.SplitIndexed("w", 0)
	_ = a.SplitIndexed("w", 1)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SplitIndexed mutated the parent stream")
		}
	}
}

func TestSplitIndexedDistinctPerIndex(t *testing.T) {
	parent := New(4)
	seen := map[uint64]int{}
	for i := 0; i < 200; i++ {
		v := parent.SplitIndexed("trial", i).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("indices %d and %d produced identical first draws", prev, i)
		}
		seen[v] = i
	}
}

func TestPhaseRange(t *testing.T) {
	r := New(21)
	for i := 0; i < 10000; i++ {
		p := r.Phase()
		if p < 0 || p >= 2*math.Pi {
			t.Fatalf("Phase() = %v out of [0,2π)", p)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(31)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean, variance := sum/n, sumSq/n
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ≈1", variance)
	}
}

func TestRayleighMean(t *testing.T) {
	r := New(41)
	const n = 200000
	sigma := 2.0
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Rayleigh(sigma)
	}
	want := sigma * math.Sqrt(math.Pi/2)
	if got := sum / n; math.Abs(got-want) > 0.02*want {
		t.Fatalf("Rayleigh mean = %v, want ≈%v", got, want)
	}
}

func TestQuickIntnInRange(t *testing.T) {
	r := New(91)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUniformRange(t *testing.T) {
	r := New(93)
	f := func(a, b int8) bool {
		lo, hi := float64(a), float64(a)+float64(uint8(b))+1
		v := r.UniformRange(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/value")
}

// TestSplitIntoMatchesSplit pins the scratch variants to the allocating
// originals: identical parents and labels must yield bit-identical child
// streams and identical parent advancement.
func TestSplitIntoMatchesSplit(t *testing.T) {
	labels := []string{"", "cib", "blind", "tag", "pll-0", "pll-17", "range-0.123456"}
	for _, label := range labels {
		a, b := New(42), New(42)
		want := a.Split(label)
		var got Rand
		b.SplitInto(&got, label)
		for i := 0; i < 64; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("SplitInto(%q) diverges at draw %d: %x vs %x", label, i, w, g)
			}
		}
		// Parent advancement must match too.
		if w, g := a.Uint64(), b.Uint64(); w != g {
			t.Fatalf("SplitInto(%q) advanced the parent differently: %x vs %x", label, w, g)
		}
	}
}

// TestSplitBytesIntoMatchesSplit checks the byte-label form hashes
// identically to the string form.
func TestSplitBytesIntoMatchesSplit(t *testing.T) {
	for _, label := range []string{"pll-0", "pll-9", "dl-3", "x"} {
		a, b := New(7), New(7)
		want := a.Split(label)
		var got Rand
		b.SplitBytesInto(&got, []byte(label))
		for i := 0; i < 32; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("SplitBytesInto(%q) diverges at draw %d", label, i)
			}
		}
	}
}

// TestSplitIndexedIntoMatchesSplitIndexed pins the indexed scratch variant
// and its non-advancing contract.
func TestSplitIndexedIntoMatchesSplitIndexed(t *testing.T) {
	parent := New(11)
	for i := 0; i < 20; i++ {
		want := parent.SplitIndexed("gain-trial", i)
		var got Rand
		parent.SplitIndexedInto(&got, "gain-trial", i)
		for d := 0; d < 32; d++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("SplitIndexedInto(i=%d) diverges at draw %d", i, d)
			}
		}
	}
	// Deriving children must not have advanced the parent.
	fresh := New(11)
	if parent.Uint64() != fresh.Uint64() {
		t.Fatal("SplitIndexedInto advanced the parent")
	}
}

// TestSplitVariantsAllocationFree pins the whole point of the Into forms.
func TestSplitVariantsAllocationFree(t *testing.T) {
	parent := New(3)
	var child Rand
	label := []byte("pll-4")
	allocs := testing.AllocsPerRun(100, func() {
		parent.SplitInto(&child, "cib")
		parent.SplitBytesInto(&child, label)
		parent.SplitIndexedInto(&child, "gain-trial", 7)
	})
	if allocs != 0 {
		t.Fatalf("split scratch variants allocate %.0f times per round, want 0", allocs)
	}
}

// TestNormFloat64sMatchesScalar pins the bulk fill to its definition: the
// values of len(dst) successive NormFloat64 calls, with the generator left
// where those calls leave it (checked on the next Uint64). The lengths
// cross the block boundary on both sides.
func TestNormFloat64sMatchesScalar(t *testing.T) {
	lengths := []int{0, 1, 2, normBlock - 1, normBlock, normBlock + 1, 2*normBlock + 1, 4097}
	for seed := uint64(0); seed < 40; seed++ {
		for _, n := range lengths {
			want, got := New(seed), New(seed)
			dst := make([]float64, n)
			got.NormFloat64s(dst)
			for i, g := range dst {
				if w := want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d, n %d: value %d = %v, scalar %v", seed, n, i, g, w)
				}
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d, n %d: next Uint64 %x, scalar %x", seed, n, g, w)
			}
		}
	}
}

// BenchmarkNormFloat64s reports ns per normal for a 2048-value fill
// (eight blocks), comparable with BenchmarkNormFloat64's ns/value.
func BenchmarkNormFloat64s(b *testing.B) {
	r := New(1)
	dst := make([]float64, 2048)
	for i := 0; i < b.N; i++ {
		r.NormFloat64s(dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/value")
}
