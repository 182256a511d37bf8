package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) declared {
	t.Helper()
	d, err := readDeclared(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCommittedSnapshotsPass checks every BENCH_*.json committed at the
// repository root, whichever schema it was written in.
func TestCommittedSnapshotsPass(t *testing.T) {
	d := benchmarkJSON(t)
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json at the repository root")
	}
	for _, path := range paths {
		if err := check(path, d); err != nil {
			t.Error(err)
		}
	}
}

// TestBestOfRule: an absent best_of is the older schema, a present one
// must be at least 1.
func TestBestOfRule(t *testing.T) {
	const bench = `"benchmarks": [{"name": "BenchmarkX", "iters": 1, "ns_per_op": 2}]`
	for _, c := range []struct {
		field string
		ok    bool
	}{
		{"", true},
		{`"best_of": 3,`, true},
		{`"best_of": 0,`, false},
		{`"best_of": -1,`, false},
	} {
		path := filepath.Join(t.TempDir(), "BENCH_test.json")
		doc := `{"date": "2026-01-01", "label": "x", ` + c.field + bench + `}`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		err := check(path, declared{})
		if (err == nil) != c.ok {
			t.Errorf("%q: error %v, want ok=%v", c.field, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "best_of") {
			t.Errorf("%q: error %v does not name best_of", c.field, err)
		}
	}
}

const e2e = `{"setup_s": {"value": 0.5, "unit": "s"}, "run_ms": {"value": 500, "unit": "ms"}, "alloc_mb_per_run": {"value": 10, "unit": "MiB"}, "peak_rss_mb": {"value": 14, "unit": "MiB"}}`

// untraced is a correct untraced run of w carrying every end-to-end
// metric.
func untraced(w string) string {
	return `{"workload": "` + w + `", "trace": 0, "result": {"correct": true, "attempted": 3, "failed": 0, "metrics": ` + e2e + `}}`
}

// TestRunsRules: a snapshot with runs needs a correct untraced run of
// every workload of BENCHMARK.json carrying every end-to-end metric;
// each rule is broken once.
func TestRunsRules(t *testing.T) {
	d := benchmarkJSON(t)
	traced := `{"workload": "population", "trace": 1, "result": {"correct": true, "attempted": 2, "failed": 0, "metrics": {"session.slots": {"value": 314671, "unit": "count"}}}}`
	base := []string{untraced("figures"), untraced("population"), untraced("service"), traced}
	for _, c := range []struct {
		name string
		runs []string
		want string // "" for ok, else a fragment of the error
	}{
		{"all workloads", base, ""},
		{"no untraced service run", base[:2], "no untraced run of service"},
		{"unknown workload", append(slices.Clone(base), untraced("other")), "unknown workload"},
		{"duplicate", append(slices.Clone(base), untraced("figures")), "recorded twice"},
		{"trace 2", append(slices.Clone(base), strings.Replace(traced, `"trace": 1`, `"trace": 2`, 1)), "trace must be 0 or 1"},
		{"incorrect", append([]string{strings.Replace(untraced("figures"), `"correct": true`, `"correct": false`, 1)}, base[1:]...), "correct false"},
		{"failed operation", append([]string{strings.Replace(untraced("figures"), `"failed": 0`, `"failed": 1`, 1)}, base[1:]...), "1 of 3 operations failed"},
		{"missing metric", append([]string{strings.Replace(untraced("figures"), `"peak_rss_mb"`, `"rss"`, 1)}, base[1:]...), "no peak_rss_mb"},
		{"zero run_ms", append([]string{strings.Replace(untraced("figures"), `"value": 500`, `"value": 0`, 1)}, base[1:]...), "run_ms 0, want > 0"},
		{"negative end-to-end metric", append([]string{strings.Replace(untraced("figures"), `"value": 10`, `"value": -1`, 1)}, base[1:]...), "alloc_mb_per_run -1, want > 0"},
		{"negative traced overhead", append(slices.Clone(base[:3]), strings.Replace(traced, `"value": 314671`, `"value": -0.7`, 1)), ""},
	} {
		path := filepath.Join(t.TempDir(), "BENCH_test.json")
		doc := `{"date": "2026-01-01", "label": "x", "best_of": 1, "runs": [` + strings.Join(c.runs, ", ") +
			`], "benchmarks": [{"name": "BenchmarkX", "iters": 1, "ns_per_op": 2}]}`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		err := check(path, d)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestParseBenchLine: the GOMAXPROCS suffix goes only when the
// benchmarks ran with that GOMAXPROCS, so a name's own trailing number
// stays at GOMAXPROCS 1, where the testing package adds none.
func TestParseBenchLine(t *testing.T) {
	k, ok := parseBenchLine("BenchmarkQueryAdjustPass/arbitrate-2  \t    2000\t     13613 ns/op\t        13.61 ns/visit\t     284 B/op\t      17 allocs/op", 2)
	if !ok || k.Name != "BenchmarkQueryAdjustPass/arbitrate" || k.Iters != 2000 || k.NsPerOp != 13613 ||
		k.BytesPerOp != 284 || k.AllocsPerOp != 17 || k.Metrics["ns/visit"] != 13.61 {
		t.Errorf("parsed %+v, %v", k, ok)
	}
	for _, c := range []struct {
		line  string
		procs int
		name  string
	}{
		{"BenchmarkInventoryRound/event-channel-1000-2 \t 75\t 16346687 ns/op\t 1463 ns/slot", 2, "BenchmarkInventoryRound/event-channel-1000"},
		{"BenchmarkInventoryRound/event-channel-1000 \t 75\t 16346687 ns/op\t 1463 ns/slot", 1, "BenchmarkInventoryRound/event-channel-1000"},
		{"BenchmarkInventoryRound/event-channel-1000-fixed \t 169\t 6918136 ns/op\t 604.8 ns/slot", 1, "BenchmarkInventoryRound/event-channel-1000-fixed"},
		{"BenchmarkSumSeries/N=10-4 \t 8761\t 132344 ns/op", 4, "BenchmarkSumSeries/N=10"},
	} {
		if k, ok := parseBenchLine(c.line, c.procs); !ok || k.Name != c.name {
			t.Errorf("GOMAXPROCS %d: %q parsed as %q, %v; want %q", c.procs, c.line, k.Name, ok, c.name)
		}
	}
	for _, line := range []string{
		"--- BENCH: BenchmarkX-2",
		"BenchmarkX-2",
		"BenchmarkX-2 \t 10\t 5 ns/op\t 3",
		"ok  \tivn/internal/gen2\t1.2s",
	} {
		if _, ok := parseBenchLine(line, 2); ok {
			t.Errorf("%q parsed as a result", line)
		}
	}
}

// TestReadKernels names each benchmark's package from the pkg: line
// above it and keeps its fastest repetition.
func TestReadKernels(t *testing.T) {
	out := strings.Join([]string{
		"goos: linux",
		"pkg: ivn/internal/dsp",
		"BenchmarkA-2   \t   100\t   900 ns/op\t 0 B/op\t 0 allocs/op",
		"BenchmarkA-2   \t   100\t   700 ns/op\t 0 B/op\t 0 allocs/op",
		"PASS",
		"ok  \tivn/internal/dsp\t1.0s",
		"pkg: ivn/internal/gen2",
		"BenchmarkB/x-2 \t 10\t 50 ns/op\t 2.5 ns/visit",
	}, "\n")
	rows := readKernels(out, 2)
	if len(rows) != 2 || rows[0].Name != "BenchmarkA" || rows[0].NsPerOp != 700 || rows[0].Package != "ivn/internal/dsp" ||
		rows[1].Name != "BenchmarkB/x" || rows[1].Package != "ivn/internal/gen2" || rows[1].Metrics["ns/visit"] != 2.5 {
		t.Errorf("rows %+v", rows)
	}
}

// TestRecord: record writes a document with one run or benchmark per
// line that checks and decodes to what was recorded, and writes nothing
// when a run fails the checks.
func TestRecord(t *testing.T) {
	d := benchmarkJSON(t)
	dir := t.TempDir()
	runs := filepath.Join(dir, "runs.jsonl")
	kernels := filepath.Join(dir, "kernels.txt")
	lines := []string{untraced("figures"), untraced("population"), untraced("service")}
	write := func(path, s string) {
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(runs, strings.Join(lines, "\n")+"\n")
	write(kernels, "pkg: p\nBenchmarkA \t 1\t 2 ns/op\t 1.5 ns/visit\n")
	bestOf := 3
	s := snapshot{Date: "2026-01-01", Label: "x", Revision: "abc", BestOf: &bestOf,
		Machine: &machine{GOOS: "linux", GOARCH: "amd64", CPUs: 2, Go: "go1.24.0"}}
	out := filepath.Join(dir, "BENCH_x.json")
	if err := record(out, s, runs, kernels, d); err != nil {
		t.Fatal(err)
	}
	if err := check(out, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n != 15 {
		t.Errorf("%d lines, want 15:\n%s", n, raw)
	}
	var got snapshot
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Revision != "abc" || *got.BestOf != 3 || got.Machine.CPUs != 2 || len(got.Runs) != 3 ||
		got.Runs[2].Workload != "service" || len(got.Benchmarks) != 1 || got.Benchmarks[0].Package != "p" ||
		got.Benchmarks[0].Metrics["ns/visit"] != 1.5 {
		t.Errorf("recorded %+v", got)
	}

	write(runs, strings.Replace(strings.Join(lines, "\n"), `"correct": true`, `"correct": false`, 1))
	bad := filepath.Join(dir, "BENCH_bad.json")
	if err := record(bad, s, runs, kernels, d); err == nil || !strings.Contains(err.Error(), "correct false") {
		t.Errorf("record of an incorrect run: %v", err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Errorf("record wrote %s for an incorrect run: %v", bad, err)
	}
}

// diffDoc is a small snapshot of the current schema: one untraced
// figures run with the given run_ms and setup_s, one traced run and one
// kernel row.
func diffDoc(label string, runMS, setupS, rss, nsPerOp float64) string {
	return fmt.Sprintf(`{"date": "2026-01-01", "label": %q, "best_of": 1, "runs": [
  {"workload": "figures", "trace": 0, "seed": 11, "seconds": 30, "result": {"attempted": 10, "correct": true, "failed": 0, "metrics": {
    "run_ms": {"unit": "ms", "value": %g}, "setup_s": {"unit": "s", "value": %g},
    "alloc_mb_per_run": {"unit": "MiB", "value": 2.5}, "peak_rss_mb": {"unit": "MiB", "value": %g}}}},
  {"workload": "figures", "trace": 1, "seed": 11, "seconds": 30, "result": {"attempted": 10, "correct": true, "failed": 0, "metrics": {
    "phasor.samples": {"unit": "count", "value": 3382800}, "phasor.self_ms": {"unit": "ms", "value": %g}}}}
], "benchmarks": [
  {"name": "BenchmarkSumSeries/N=10", "iters": 100, "ns_per_op": %g, "metrics": {"ns/carrier-sample": %g}}
]}`, label, runMS, setupS, rss, 2*runMS, nsPerOp, nsPerOp/81920)
}

// diffDeclared is a BENCHMARK.json with one workload and three bounded
// end-to-end metrics, one of them better when higher.
func diffDeclared(t *testing.T) declared {
	t.Helper()
	var d declared
	err := json.Unmarshal([]byte(`{"workloads": [{"name": "figures"}], "end_to_end": [
		{"name": "run_ms", "better": "lower", "bound": 0.25},
		{"name": "setup_s", "better": "lower", "bound": 0.25},
		{"name": "peak_rss_mb", "better": "higher", "bound": 0.1}]}`), &d)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiffFlagsOnlyBoundBreaches compares two small snapshots: run_ms
// worsens by 30% (bound 25%) and is flagged; setup_s improves; the
// better-when-higher peak_rss_mb falls by 20% (bound 10%) and is flagged;
// the traced run's 30% rise is not, because only untraced runs carry the
// end-to-end metrics. Every row shows both values and the change, counts
// in full.
func TestDiffFlagsOnlyBoundBreaches(t *testing.T) {
	d := diffDeclared(t)
	old, err := validate([]byte(diffDoc("parent", 200, 0.2, 10, 50000)), d)
	if err != nil {
		t.Fatal(err)
	}
	new, err := validate([]byte(diffDoc("change", 260, 0.1, 8, 25000)), d)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	flagged := diffSnapshots(&out, old, new, d)
	if want := []string{"figures --trace 0 peak_rss_mb", "figures --trace 0 run_ms"}; !slices.Equal(flagged, want) {
		t.Errorf("flagged %q, want %q", flagged, want)
	}
	for _, want := range []string{
		"run_ms", "200 ms", "260 ms", "+30.0%", "WORSE",
		"setup_s", "-50.0%",
		"3382800 count",
		"BenchmarkSumSeries/N=10", "50000 ns/op", "25000 ns/op", "ns/carrier-sample",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "setup_s WORSE") {
		t.Errorf("an improved setup_s was flagged:\n%s", out.String())
	}
}

// TestDiffRefusesMalformedSnapshot: -diff reads a snapshot through the
// same validation as a check, so a malformed one is an error, not a
// comparison.
func TestDiffRefusesMalformedSnapshot(t *testing.T) {
	d := diffDeclared(t)
	path := filepath.Join(t.TempDir(), "BENCH_bad.json")
	bad := strings.Replace(diffDoc("bad", 200, 0.2, 10, 50000), `"correct": true`, `"correct": false`, 1)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshot(path, d); err == nil {
		t.Fatal("a run that is not correct read as a valid snapshot")
	}
}
