package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The benchmark's self-test. Run from this directory:
//
//	go test .
//
// Each workload runs at its smallest size (one set-up, one timed
// repetition or round) against the repository one directory up.

const repoRoot = ".."

type benchDefs struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDefs(t *testing.T) benchDefs {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchDefs
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func smallest(workload string, trace bool) options {
	return options{workload: workload, seed: goldenSeed, seconds: 0, trace: trace, setups: 1, root: repoRoot}
}

func mustRun(t *testing.T, opt options) *outcome {
	t.Helper()
	out, err := run(opt)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", opt.workload, opt.trace, err)
	}
	return out
}

// sameNames checks a run emitted exactly the metrics BENCHMARK.json lists,
// in order, with the listed units.
func sameNames(t *testing.T, what string, got []metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for i, w := range want {
		if got[i].name != w.Name || got[i].unit != w.Unit {
			t.Errorf("%s: metric %d is %s [%s], BENCHMARK.json lists %s [%s]", what, i, got[i].name, got[i].unit, w.Name, w.Unit)
		}
		if math.IsNaN(got[i].value) || math.IsInf(got[i].value, 0) {
			t.Errorf("%s: %s is %v", what, got[i].name, got[i].value)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	defs := loadDefs(t)
	for _, w := range workloads {
		out := mustRun(t, smallest(w, false))
		if out.failed != 0 || out.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w, out.failed, out.attempted, out.problems)
		}
		sameNames(t, w, out.e2e, defs.EndToEnd)
		for _, m := range out.e2e {
			if !(m.value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, m.value)
			}
		}
		tr := mustRun(t, smallest(w, true))
		if tr.failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed: %v", w, tr.failed, tr.attempted, tr.problems)
		}
		sameNames(t, w+" traced", tr.layer, defs.PerLayer)
	}
}

func TestAlteredReferenceFails(t *testing.T) {
	for _, w := range []string{"figures", "service"} {
		opt := smallest(w, false)
		opt.tamper = "fig9"
		out := mustRun(t, opt)
		if out.failed == 0 {
			t.Errorf("%s: an altered fig9 reference went unnoticed", w)
		}
	}
}

func TestCountsRepeat(t *testing.T) {
	for _, opt := range []options{smallest("figures", false), smallest("figures", true),
		smallest("population", false), smallest("service", false)} {
		a := mustRun(t, opt)
		b := mustRun(t, opt)
		if len(a.counts) == 0 || len(a.counts) != len(b.counts) {
			t.Fatalf("%s trace %v: counts %v vs %v", opt.workload, opt.trace, a.counts, b.counts)
		}
		for i := range a.counts {
			if a.counts[i] != b.counts[i] {
				t.Errorf("%s trace %v: count %s = %v, then %v", opt.workload, opt.trace, a.counts[i].name, a.counts[i].value, b.counts[i].value)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
