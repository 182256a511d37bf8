// Command perfbench is the repository's benchmark. It runs one workload
// through the pipeline the ivnsim CLI and the ivnsimd daemon share
// (runspec.Run, service.NewHandler), checks every output, and prints the
// workload's metrics; the last line of standard output is one JSON object.
//
//	perfbench --workload figures|population|service --seed N --seconds S --trace 0|1
//	perfbench --workload W --steady K    # K back-to-back runs and their spread
//
// With --trace 0 the run carries no instrumentation and reports the
// end-to-end metrics; --trace 1 is a separate run that reports the
// per-layer split. See README.md for the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procStart anchors the first set-up's clock at process start.
var procStart = time.Now()

// workloads is every workload the benchmark runs, in report order.
var workloads = []string{"figures", "population", "service"}

type metricDef struct{ name, unit string }

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setups is how many times the workload is set up; setup_s is the
	// median. The self-test sets 1.
	setups int
	// root is the checkout root (goldens, BENCHMARK.json, build outputs).
	root string
	// tamper names an experiment whose reference output is altered before
	// the run, so the correctness gate can be shown to fire.
	tamper string
}

// metric is one measured value.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value; 0 when not a sample statistic
}

// outcome is what a workload run returns.
type outcome struct {
	attempted, failed int
	e2e               []metric // the gated end-to-end metrics (--trace 0)
	report            []metric // further end-to-end figures, printed, not gated
	layer             []metric // per-layer metrics (--trace 1)
	counts            []metric // exact operation counts
	raw               map[string]any
	notes             []string
	problems          []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	var opt options
	var steady int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&opt.seed, "seed", 11, "workload seed (11 checks outputs against the committed goldens)")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer split instead of the timed run")
	flag.IntVar(&steady, "steady", 0, "run the workload this many times back to back and report each metric's spread")
	flag.Parse()
	opt.trace = *trace == 1
	opt.setups = 3

	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	opt.root = root
	if err := checkCheckout(root); err != nil {
		fatal(err)
	}
	if steady > 0 {
		if err := runSteady(opt, steady); err != nil {
			fatal(err)
		}
		return
	}
	out, err := run(opt)
	if err != nil {
		fatal(err)
	}
	if err := emit(os.Stdout, opt, out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// checkCheckout refuses to run outside a checkout of the repository: the
// goldens the figures check against live in the repository.
func checkCheckout(root string) error {
	if _, err := os.Stat(filepath.Join(root, goldenDir)); err != nil {
		return fmt.Errorf("not at the repository root (no %s): %w", goldenDir, err)
	}
	return nil
}

// run dispatches one workload.
func run(opt options) (*outcome, error) {
	if opt.setups < 1 {
		opt.setups = 1
	}
	switch opt.workload {
	case "figures", "population":
		return runBatch(opt)
	case "service":
		return runService(opt)
	default:
		return nil, fmt.Errorf("unknown workload %q (use one of %s)", opt.workload, strings.Join(workloads, ", "))
	}
}

// stamp records where and on what a run was taken.
func stamp(opt options) map[string]any {
	rev, dirty := gitState(opt.root)
	return map[string]any{
		"workload":   opt.workload,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   rev,
		"dirty":      dirty,
	}
}

// gitState asks git for the checkout's revision and whether its tree has
// changes; both read "unknown" outside a git repository.
func gitState(root string) (rev, dirty string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	git := func(args ...string) (string, error) {
		cmd := exec.CommandContext(ctx, "git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", "unknown"
	}
	st, err := git("status", "--porcelain")
	if err != nil {
		return rev, "unknown"
	}
	return rev, strconv.FormatBool(st != "")
}

// emit prints the report, writes the raw samples, and ends with the one
// JSON result line.
func emit(w *os.File, opt options, out *outcome) error {
	st := stamp(opt)
	sj, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(w, "stamp %s\n", sj)
	printMetrics := func(kind string, ms []metric) {
		for _, m := range ms {
			if m.n > 0 {
				fmt.Fprintf(w, "%-8s %-34s %14.10g %-6s n=%d\n", kind, m.name, m.value, m.unit, m.n)
			} else {
				fmt.Fprintf(w, "%-8s %-34s %14.10g %s\n", kind, m.name, m.value, m.unit)
			}
		}
	}
	printMetrics("metric", out.e2e)
	printMetrics("report", out.report)
	printMetrics("layer", out.layer)
	printMetrics("count", out.counts)
	ratio := 0.0
	if out.attempted > 0 {
		ratio = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "report   %-34s %14.10g 1      (%d of %d operations)\n", "failed_ratio", ratio, out.failed, out.attempted)
	for _, n := range out.notes {
		fmt.Fprintf(w, "note     %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "FAILED   %s\n", p)
	}

	raw := map[string]any{"stamp": st, "attempted": out.attempted, "failed": out.failed, "samples": out.raw}
	rawPath := filepath.Join(".bench_build", "perfbench", "raw",
		fmt.Sprintf("%s-seed%d-trace%d.json", opt.workload, opt.seed, boolInt(opt.trace)))
	if err := writeJSON(filepath.Join(opt.root, rawPath), raw); err != nil {
		return err
	}
	fmt.Fprintf(w, "raw      %s\n", rawPath)

	metrics := map[string]any{}
	list := out.e2e
	if opt.trace {
		list = out.layer
	}
	for _, m := range list {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeJSON writes v to path, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
