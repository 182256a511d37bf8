package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim"
	"ivn/internal/ivnsim/runspec"
)

// goldenDir holds the committed Seed 11, Quick text tables.
const goldenDir = "internal/ivnsim/testdata/golden"

// goldenSeed is the seed the goldens were captured at.
const goldenSeed = 11

const mib = 1 << 20

// batchIDs lists a batch workload's experiments in registry order.
func batchIDs(workload string) []string {
	if workload == "population" {
		return []string{"population", "adaptiveq"}
	}
	var ids []string
	for _, e := range ivnsim.Registry() {
		if e.ID != "population" && e.ID != "adaptiveq" {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// allIDs lists every registered experiment.
func allIDs() []string {
	var ids []string
	for _, e := range ivnsim.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// repResult is one repetition of a batch workload.
type repResult struct {
	ms      float64
	perExp  map[string]float64
	texts   map[string][]byte
	results map[string]*engine.Result
	trials  int64
}

// runRep runs every experiment once through runspec.Run with one trial
// worker and renders it as text. t, when non-nil, gets a span around each
// call.
func runRep(t *tracer, ids []string, seed uint64) (repResult, error) {
	rep := repResult{perExp: map[string]float64{}, texts: map[string][]byte{}, results: map[string]*engine.Result{}}
	var sched engine.SchedMetrics
	lim := engine.Limits{MaxParallel: 1, Metrics: &sched}
	start := time.Now()
	for _, id := range ids {
		spec := runspec.Spec{Experiment: id, Seed: seed, Quick: true}
		t0 := time.Now()
		sid := t.begin("runspec", "ivnsim."+id)
		res, _, err := runspec.Run(context.Background(), lim, spec, nil)
		t.end(sid)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", id, err)
		}
		var buf bytes.Buffer
		rid := t.begin("engine", "engine.RenderText")
		err = engine.RenderText(res, &buf)
		t.end(rid)
		if err != nil {
			return rep, fmt.Errorf("%s: render: %w", id, err)
		}
		rep.perExp[id] = msSince(t0)
		rep.texts[id] = buf.Bytes()
		rep.results[id] = res
	}
	rep.ms = msSince(start)
	rep.trials = sched.Trials.Load()
	return rep, nil
}

// loadRefs returns the reference text per experiment: the committed
// goldens at the golden seed, nil otherwise (the first warm-up becomes the
// reference).
func loadRefs(opt options, ids []string) (map[string][]byte, error) {
	if opt.seed != goldenSeed {
		return nil, nil
	}
	refs := map[string][]byte{}
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(opt.root, goldenDir, id+".txt"))
		if err != nil {
			return nil, err
		}
		refs[id] = b
	}
	return refs, nil
}

// check compares a repetition's outputs with the references, counting
// each experiment as one operation.
func check(out *outcome, refs map[string][]byte, rep repResult, ids []string, when string) {
	for _, id := range ids {
		out.attempted++
		if !bytes.Equal(rep.texts[id], refs[id]) {
			out.fail("%s: %s output differs from its reference", when, id)
		}
	}
}

// tampered returns refs with experiment id's reference altered, so the
// correctness gate can be exercised; refs itself when id is empty.
func tampered(refs map[string][]byte, id string) map[string][]byte {
	b, ok := refs[id]
	if !ok || len(b) == 0 {
		return refs
	}
	out := make(map[string][]byte, len(refs))
	for k, v := range refs {
		out[k] = v
	}
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 1
	out[id] = c
	return out
}

// runBatch runs the figures or population workload.
func runBatch(opt options) (*outcome, error) {
	out := &outcome{raw: map[string]any{}}
	ids := batchIDs(opt.workload)

	// Set-up: load the references and run one warm-up repetition, several
	// times; setup_s is the median. The first set-up's clock starts at
	// process start.
	var base, refs map[string][]byte
	var setupS []float64
	var trialsPerRep int64 = -1
	for s := 0; s < opt.setups; s++ {
		t0 := time.Now()
		if s == 0 {
			t0 = procStart
		}
		r, err := loadRefs(opt, ids)
		if err != nil {
			return nil, err
		}
		warm, err := runRep(nil, ids, opt.seed)
		if err != nil {
			return nil, err
		}
		if r == nil {
			if base == nil {
				base = warm.texts
			}
		} else {
			base = r
		}
		refs = tampered(base, opt.tamper)
		check(out, refs, warm, ids, "warm-up")
		if trialsPerRep >= 0 && warm.trials != trialsPerRep {
			out.fail("warm-up ran %d trials, an earlier one %d", warm.trials, trialsPerRep)
		}
		trialsPerRep = warm.trials
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	out.raw["setup_s"] = setupS

	if opt.trace {
		if err := tracedBatch(opt, out, ids, refs); err != nil {
			return nil, err
		}
		return out, nil
	}

	var repMs, allocMiB []float64
	perExp := map[string][]float64{}
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for len(repMs) == 0 || time.Since(start).Seconds() < opt.seconds {
		runtime.ReadMemStats(&ms0)
		rep, err := runRep(nil, ids, opt.seed)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		repMs = append(repMs, rep.ms)
		allocMiB = append(allocMiB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/mib)
		for id, v := range rep.perExp {
			perExp[id] = append(perExp[id], v)
		}
		check(out, refs, rep, ids, fmt.Sprintf("repetition %d", len(repMs)))
		if rep.trials != trialsPerRep {
			out.fail("repetition %d ran %d trials, the warm-up %d", len(repMs), rep.trials, trialsPerRep)
		}
	}
	out.raw["run_ms"] = repMs
	out.raw["alloc_mib"] = allocMiB
	out.raw["experiment_ms"] = perExp

	out.e2e = []metric{
		{name: "setup_s", unit: "s", value: median(setupS), n: len(setupS)},
		{name: "run_ms", unit: "ms", value: median(repMs), n: len(repMs)},
		{name: "alloc_mb_per_run", unit: "MiB", value: median(allocMiB), n: len(allocMiB)},
		{name: "peak_rss_mb", unit: "MiB", value: peakRSSMiB()},
	}
	out.counts = []metric{
		{name: "experiments_per_rep", unit: "count", value: float64(len(ids))},
		{name: "engine.trials_per_rep", unit: "count", value: float64(trialsPerRep)},
	}
	return out, nil
}

// newBatchDrivers returns a batch workload's traced drivers. Run after a
// repetition, they check their outcomes against the public entry points':
// the population and adaptiveq rows of that repetition, ivnsim.MeasureGains
// and ivnsim.RunCommTrial (computed here, once), and the fig6 and freqopt
// rows.
func newBatchDrivers(opt options) (func(t *tracer, rep repResult) error, error) {
	seed := opt.seed
	if opt.workload == "population" {
		return func(t *tracer, rep repResult) error {
			pop, err := runPopulationDriver(t, seed)
			if err != nil {
				return err
			}
			if err := equalOutcome("population rows", pop, rep.results["population"].TextRows()); err != nil {
				return err
			}
			aq, err := runAdaptiveQDriver(t, seed)
			if err != nil {
				return err
			}
			return equalOutcome("adaptiveq rows", aq, rep.results["adaptiveq"].TextRows())
		}, nil
	}
	wantGains, err := refGains(seed)
	if err != nil {
		return nil, err
	}
	wantComm, err := refComm(seed)
	if err != nil {
		return nil, err
	}
	return func(t *tracer, rep repResult) error {
		gains, err := runGainDriver(t, seed)
		if err != nil {
			return err
		}
		if err := equalOutcome("gain trials vs ivnsim.MeasureGains", gains, wantGains); err != nil {
			return err
		}
		comm, err := runCommDriver(t, seed)
		if err != nil {
			return err
		}
		if err := equalOutcome("comm trials vs ivnsim.RunCommTrial", comm, wantComm); err != nil {
			return err
		}
		fig6, freqopt, err := runFreqDriver(t, seed)
		if err != nil {
			return err
		}
		if err := equalOutcome("fig6 rows", fig6, rep.results["fig6"].TextRows()); err != nil {
			return err
		}
		return equalOutcome("freqopt rows", freqopt, rep.results["freqopt"].TextRows())
	}, nil
}

// tracedBatch is the traced run of a batch workload: each cycle runs one
// untraced repetition (experiments plus drivers) and one traced one, so
// the difference of their medians is the tracing overhead.
func tracedBatch(opt options, out *outcome, ids []string, refs map[string][]byte) error {
	drv, err := newBatchDrivers(opt)
	if err != nil {
		return err
	}
	tr := newTracer()
	var untracedMs, tracedMs []float64
	var engineTrials int64
	var repCounts []map[string]int64
	start := time.Now()
	for len(tracedMs) == 0 || time.Since(start).Seconds() < opt.seconds {
		t0 := time.Now()
		rep, err := runRep(nil, ids, opt.seed)
		if err != nil {
			return err
		}
		out.attempted++
		if err := drv(nil, rep); err != nil {
			out.fail("untraced drivers: %v", err)
		}
		untracedMs = append(untracedMs, msSince(t0))
		check(out, refs, rep, ids, "untraced repetition")

		before := tr.snapshotCounts()
		tr.rep = int32(len(tracedMs))
		t0 = time.Now()
		rep, err = runRep(tr, ids, opt.seed)
		if err != nil {
			return err
		}
		out.attempted++
		if err := drv(tr, rep); err != nil {
			out.fail("traced drivers: %v", err)
		}
		tracedMs = append(tracedMs, msSince(t0))
		check(out, refs, rep, ids, "traced repetition")
		engineTrials += rep.trials
		repCounts = append(repCounts, diffCounts(tr.snapshotCounts(), before))
	}
	for i := 1; i < len(repCounts); i++ {
		if !maps.Equal(repCounts[i], repCounts[0]) {
			out.fail("traced repetition %d counted %v, the first %v", i, repCounts[i], repCounts[0])
		}
	}
	reps := float64(len(tracedMs))
	c := repCounts[0]
	byLayer, byName := tr.aggregate()
	out.layer = layerMetrics(byLayer, byName, reps, c)
	set(out.layer, "engine.trials", float64(engineTrials)/reps)
	set(out.layer, "engine.render_ms", float64(byName["engine.RenderText"])/1e6/reps)
	for _, id := range allIDs() {
		set(out.layer, "ivnsim."+id+"_ms", float64(byName["ivnsim."+id])/1e6/reps)
	}
	mu, mt := median(untracedMs), median(tracedMs)
	set(out.layer, "trace.untraced_run_ms", mu)
	set(out.layer, "trace.run_ms", mt)
	set(out.layer, "trace.overhead_pct", 100*(mt-mu)/mu)
	out.notes = append(out.notes,
		fmt.Sprintf("tracing overhead: traced %.1f ms - untraced %.1f ms = %.1f ms per repetition (%.1f%%), medians of %d cycles",
			mt, mu, mt-mu, 100*(mt-mu)/mu, len(tracedMs)),
		selfTimeNote)
	out.raw["untraced_ms"] = untracedMs
	out.raw["traced_ms"] = tracedMs
	out.counts = countMetrics(c)
	return tr.writeJSONL(tracePath(opt))
}

// tracePath is where a traced run writes its spans.
func tracePath(opt options) string {
	return filepath.Join(opt.root, ".bench_build", "perfbench", "trace",
		fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
}

func diffCounts(after, before map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		if v-before[k] != 0 {
			d[k] = v - before[k]
		}
	}
	return d
}

// countMetrics lists one repetition's exact counts, sorted by name.
func countMetrics(c map[string]int64) []metric {
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	var ms []metric
	for _, k := range names {
		ms = append(ms, metric{name: k + "_per_rep", unit: "count", value: float64(c[k])})
	}
	return ms
}
