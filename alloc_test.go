package ivn

import (
	"runtime"
	"testing"

	"ivn/internal/ivnsim"
	"ivn/internal/session"
)

// TestInventoryExchangeAllocBudget pins the hot path's allocation count
// with tracing disabled: the link/session decomposition must not cost the
// facade anything. 135 is the pre-refactor BenchmarkInventoryExchange
// figure; the scratch link on System keeps realization off the heap.
func TestInventoryExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; budget holds without -race")
	}
	sys, err := New(Config{Antennas: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := benchScenario()
	model := benchTag()
	// Warm up pools and lazy state outside the measured window.
	if _, err := sys.Inventory(sc, model); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sys.Inventory(sc, model); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 135 {
		t.Fatalf("Inventory allocates %.0f times per exchange with a nil observer, budget 135", allocs)
	}
}

// runExperimentQuick executes one CI-scale experiment run (the benchmark
// configuration) for the alloc budgets below.
func runExperimentQuick(t *testing.T, id string) {
	t.Helper()
	e, err := ivnsim.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ivnsim.Config{Seed: 1, Quick: true}); err != nil {
		t.Fatal(err)
	}
}

// TestFig9AllocBudget pins the batched gain-trial path: per-point Prepare
// plus per-worker kits leave only the engine/statistics scaffolding on
// the heap. The quick Fig9 run (10 points × 30 trials) sat at ≈23,700
// allocations before batching; the budget leaves headroom over the ≈330
// it needs now while still failing loudly if a per-trial allocation
// sneaks back in (300 trials × only 7 allocs each would blow it).
func TestFig9AllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; budget holds without -race")
	}
	runExperimentQuick(t, "fig9") // warm pools and lazy state
	allocs := testing.AllocsPerRun(3, func() { runExperimentQuick(t, "fig9") })
	if allocs > 2400 {
		t.Fatalf("quick fig9 allocates %.0f times per run, budget 2400", allocs)
	}
}

// TestFig13BytesBudget pins the batched range-search path by bytes: the
// duration-only command path plus comm kits keep a quick Fig13(c) run
// within single-digit megabytes where it previously synthesized ≈15 MB of
// envelopes and channel state per run. Bytes are measured via the
// allocator's TotalAlloc counter (AllocsPerRun only counts objects).
func TestFig13BytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation; budget holds without -race")
	}
	runExperimentQuick(t, "fig13c") // warm pools and lazy state
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runExperimentQuick(t, "fig13c")
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if perRun > 3e6 {
		t.Fatalf("quick fig13c allocates %.1f MB per run, budget 3 MB", perRun/1e6)
	}
}

// TestPopulationBytesBudget pins the clean inventory path by bytes: the
// round-member broadcast (gen2.Population) and the round's reused reply
// and responder buffers leave a quick population run at ≈6 MB, where
// growing fresh reply slices on every command cost ≈16 MB. The budget
// fails loudly if per-command allocation returns.
func TestPopulationBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation; budget holds without -race")
	}
	runExperimentQuick(t, "population") // warm pools and lazy state
	const runs = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runExperimentQuick(t, "population")
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if perRun > 9e6 {
		t.Fatalf("quick population allocates %.1f MB per run, budget 9 MB", perRun/1e6)
	}
}

// TestObserverCostIsOptIn checks the other side of the zero-cost
// contract: attaching an observer records events without perturbing the
// exchange outcome.
func TestObserverCostIsOptIn(t *testing.T) {
	run := func(obs session.Observer) *Session {
		sys, err := New(Config{Antennas: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sys.Observer = obs
		res, err := sys.Inventory(benchScenario(), benchTag())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rec := &session.Recorder{}
	plain := run(nil)
	traced := run(rec)
	if plain.Powered != traced.Powered || plain.Decoded != traced.Decoded ||
		string(plain.EPC) != string(traced.EPC) {
		t.Fatalf("observer changed the exchange: %+v vs %+v", plain, traced)
	}
	if len(rec.Events) == 0 {
		t.Fatal("observer attached but no events recorded")
	}
}
