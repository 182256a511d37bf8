// Command benchcheck records and validates the BENCH_*.json snapshots
// that scripts/bench.sh writes.
//
// benchcheck FILE... validates each snapshot. The document must parse,
// carry a non-empty date and label (an empty label once shipped in a
// committed snapshot and made it undiffable from its neighbors), and
// list at least one benchmark with a name, a positive iteration count,
// and a positive ns/op figure. Duplicate benchmark names are rejected —
// the best-of-N fold is supposed to collapse repetitions. A best_of
// field, when present, must be at least 1; snapshots written before
// bench.sh recorded it carry none and are checked as that older schema.
//
// A snapshot recorded through the repository's benchmark also carries
// runs: each names a workload of BENCHMARK.json and its trace flag (0 or
// 1, once per pair) and holds the run's result line, which must be
// correct, with no failed operation, at least one attempted, and finite
// metrics (a traced run's overhead may read below zero). Every workload
// needs an untraced run, and an untraced run must report every
// end-to-end metric of BENCHMARK.json, each above zero. Snapshots without
// runs are the older schema, whose benchmarks were the experiment-level
// Go benchmarks.
//
// benchcheck -record OUT assembles a snapshot and writes it to OUT only
// if it passes the same checks. Its runs are the JSON objects of the
// -runs file, one per line (the workload, its trace flag, seed and
// window, and the run's result line as _perfbench printed it). Its
// benchmarks are the result lines of the plain `go test -bench` output
// in the -kernels file, whose `pkg:` lines name each one's package. A
// benchmark repeated with -count keeps its fastest repetition (lowest
// ns/op, with that repetition's memory and custom metrics): on a shared
// machine one-off scheduler hiccups only ever push a timing up. The
// document holds one run or benchmark per line, so two snapshots diff
// line by line.
//
// benchcheck -diff OLD NEW compares two snapshots, the parent's and a
// change's. For every run the two share (same workload and trace flag)
// it prints each metric's value in both and the relative change, and it
// prints the kernel rows side by side. An end-to-end metric of an
// untraced run that is worse by more than its BENCHMARK.json bound is
// flagged. A snapshot is one sample per run, so a flag asks for
// alternating pairs before anything is concluded, and the exit status is
// non-zero only when a snapshot does not validate.
//
// Usage:
//
//	go run ./scripts/benchcheck BENCH_2026-08-09_label.json...
//	go run ./scripts/benchcheck -record BENCH_<date>_<label>.json -label L -date YYYY-MM-DD \
//		-revision R -best-of N -runs runs.jsonl -kernels kernels.txt
//	go run ./scripts/benchcheck -diff BENCH_<date>_parent.json BENCH_<date>_change.json
//
// All three read BENCHMARK.json from the working directory, the
// repository root.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// snapshot is one BENCH_*.json document.
type snapshot struct {
	Date       string   `json:"date"`
	Label      string   `json:"label"`
	Revision   string   `json:"revision,omitempty"`
	Machine    *machine `json:"machine,omitempty"`
	BestOf     *int     `json:"best_of"` // nil in the schema before best-of-N
	Runs       []run    `json:"runs"`    // nil in the schema before the benchmark's runs
	Benchmarks []bench  `json:"benchmarks"`
}

type machine struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	CPU    string `json:"cpu,omitempty"`
	Go     string `json:"go"`
}

// run is one run of the repository's benchmark; Result is its last
// stdout line as _perfbench printed it.
type run struct {
	Workload string          `json:"workload"`
	Trace    int             `json:"trace"`
	Seed     int             `json:"seed"`
	Seconds  float64         `json:"seconds"`
	Result   json.RawMessage `json:"result"`
}

// result is the part of a run's result line that the checks read.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Unit  string  `json:"unit"`
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type bench struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Iters       int                `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// declared is what BENCHMARK.json declares that runs must cover: its
// workloads and its end-to-end metrics, each with the direction that is
// better and the relative bound by which it may worsen.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
}

func readDeclared(path string) (declared, error) {
	var d declared
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &d)
	}
	if err == nil && (len(d.Workloads) == 0 || len(d.EndToEnd) == 0) {
		err = errors.New("no workloads or no end-to-end metrics")
	}
	if err != nil {
		return d, fmt.Errorf("%s: %v", path, err)
	}
	return d, nil
}

func check(path string, d declared) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s, err := validate(raw, d)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	fmt.Printf("benchcheck: %s OK (%d runs, %d benchmarks, label %q)\n", path, len(s.Runs), len(s.Benchmarks), s.Label)
	return nil
}

func validate(raw []byte, d declared) (snapshot, error) {
	var s snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, err
	}
	if s.Date == "" {
		return s, errors.New("empty date")
	}
	if s.Label == "" {
		return s, errors.New("empty label (bench.sh defaults to the git revision; pass one explicitly)")
	}
	if s.BestOf != nil && *s.BestOf < 1 {
		return s, fmt.Errorf("best_of %d, want >= 1", *s.BestOf)
	}
	if len(s.Benchmarks) == 0 {
		return s, errors.New("no benchmarks recorded")
	}
	seen := map[string]bool{}
	for i, b := range s.Benchmarks {
		switch {
		case b.Name == "":
			return s, fmt.Errorf("benchmark %d has no name", i)
		case seen[b.Name]:
			return s, fmt.Errorf("duplicate benchmark %q", b.Name)
		case b.Iters < 1:
			return s, fmt.Errorf("%s: iters %d, want >= 1", b.Name, b.Iters)
		case !(b.NsPerOp > 0):
			return s, fmt.Errorf("%s: ns_per_op %g, want > 0", b.Name, b.NsPerOp)
		case b.BytesPerOp < 0 || b.AllocsPerOp < 0:
			return s, fmt.Errorf("%s: negative memory figures", b.Name)
		}
		seen[b.Name] = true
	}
	if s.Runs != nil {
		return s, checkRuns(s.Runs, d)
	}
	return s, nil
}

func checkRuns(runs []run, d declared) error {
	known := map[string]bool{}
	for _, w := range d.Workloads {
		known[w.Name] = true
	}
	seen := map[string]bool{}
	for _, r := range runs {
		key := fmt.Sprintf("%s --trace %d", r.Workload, r.Trace)
		var res result
		if err := json.Unmarshal(r.Result, &res); err != nil {
			return fmt.Errorf("%s: result: %v", key, err)
		}
		switch {
		case !known[r.Workload]:
			return fmt.Errorf("run of unknown workload %q", r.Workload)
		case r.Trace != 0 && r.Trace != 1:
			return fmt.Errorf("%s: trace must be 0 or 1", key)
		case seen[key]:
			return fmt.Errorf("%s: recorded twice", key)
		case !res.Correct || res.Failed != 0 || res.Attempted < 1:
			return fmt.Errorf("%s: correct %v, %d of %d operations failed", key, res.Correct, res.Failed, res.Attempted)
		case len(res.Metrics) == 0:
			return fmt.Errorf("%s: no metrics", key)
		}
		seen[key] = true
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return fmt.Errorf("%s: %s = %g", key, name, m.Value)
			}
		}
		if r.Trace == 1 {
			continue
		}
		for _, e := range d.EndToEnd {
			if m, ok := res.Metrics[e.Name]; !ok {
				return fmt.Errorf("%s: no %s", key, e.Name)
			} else if !(m.Value > 0) {
				return fmt.Errorf("%s: %s %g, want > 0", key, e.Name, m.Value)
			}
		}
	}
	for _, w := range d.Workloads {
		if !seen[w.Name+" --trace 0"] {
			return fmt.Errorf("no untraced run of %s", w.Name)
		}
	}
	return nil
}

// record assembles the snapshot's runs and benchmarks from the two
// files and writes it to out if it validates.
func record(out string, s snapshot, runsPath, kernelsPath string, d declared) error {
	runs, err := os.ReadFile(runsPath)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(runs))
	for {
		var r run
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("%s: %v", runsPath, err)
		}
		s.Runs = append(s.Runs, r)
	}
	kernels, err := os.ReadFile(kernelsPath)
	if err != nil {
		return err
	}
	// The benchmarks ran in this process's environment, so with its
	// GOMAXPROCS.
	s.Benchmarks = readKernels(string(kernels), runtime.GOMAXPROCS(0))
	doc, err := encode(s)
	if err != nil {
		return err
	}
	if _, err := validate(doc, d); err != nil {
		return fmt.Errorf("%s: %v", out, err)
	}
	if err := os.WriteFile(out, doc, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchcheck: wrote %s (%d runs, %d benchmarks, label %q)\n", out, len(s.Runs), len(s.Benchmarks), s.Label)
	return nil
}

// readKernels reads go test -bench output and keeps the fastest
// repetition of every benchmark; procs is the GOMAXPROCS it ran with.
func readKernels(out string, procs int) []bench {
	var rows []bench
	index := map[string]int{}
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = p
			continue
		}
		k, ok := parseBenchLine(line, procs)
		if !ok {
			continue
		}
		k.Package = pkg
		if j, seen := index[k.Name]; !seen {
			index[k.Name] = len(rows)
			rows = append(rows, k)
		} else if k.NsPerOp < rows[j].NsPerOp {
			rows[j] = k
		}
	}
	return rows
}

// parseBenchLine reads one result line of the testing package:
// "BenchmarkName-P  iters  v ns/op  v B/op  v allocs/op  v unit…". The
// testing package appends -P only when GOMAXPROCS P is not 1, so a name
// keeps a trailing number of its own (event-channel-1000) at P = 1.
func parseBenchLine(line string, procs int) (bench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
		return bench{}, false
	}
	iters, err := strconv.Atoi(f[1])
	if err != nil {
		return bench{}, false
	}
	name := f[0]
	if procs != 1 {
		name = strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
	}
	k := bench{Name: name, Iters: iters}
	for j := 2; j+1 < len(f); j += 2 {
		v, err := strconv.ParseFloat(f[j], 64)
		if err != nil {
			return bench{}, false
		}
		switch unit := f[j+1]; unit {
		case "ns/op":
			k.NsPerOp = v
		case "B/op":
			k.BytesPerOp = v
		case "allocs/op":
			k.AllocsPerOp = v
		default:
			if k.Metrics == nil {
				k.Metrics = map[string]float64{}
			}
			k.Metrics[unit] = v
		}
	}
	return k, k.NsPerOp > 0
}

// encode writes the snapshot with one run or benchmark per line.
func encode(s snapshot) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("{\n")
	for _, f := range []struct {
		name string
		v    any
	}{{"date", s.Date}, {"label", s.Label}, {"revision", s.Revision}, {"machine", s.Machine}, {"best_of", s.BestOf}} {
		j, err := json.Marshal(f.v)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  %q: %s,\n", f.name, j)
	}
	if err := writeRows(&b, "runs", s.Runs, ","); err != nil {
		return nil, err
	}
	if err := writeRows(&b, "benchmarks", s.Benchmarks, ""); err != nil {
		return nil, err
	}
	b.WriteString("}\n")
	return b.Bytes(), nil
}

// writeRows writes the array field name with one element per line.
func writeRows[T any](b *bytes.Buffer, name string, rows []T, comma string) error {
	fmt.Fprintf(b, "  %q: [", name)
	for i, r := range rows {
		j, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "\n    %s", j)
	}
	fmt.Fprintf(b, "\n  ]%s\n", comma)
	return nil
}

// readSnapshot reads and validates one snapshot.
func readSnapshot(path string, d declared) (snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, err
	}
	s, err := validate(raw, d)
	if err != nil {
		return s, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// runKey names a run by its workload and trace flag.
func runKey(r run) string { return fmt.Sprintf("%s --trace %d", r.Workload, r.Trace) }

// delta is the relative change from a to b, as text.
func delta(a, b float64) string {
	if a == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(b-a)/a)
}

// num formats a metric value: whole numbers (counts) in full, anything
// else to four significant digits.
func num(v float64) string {
	if math.Mod(v, 1) == 0 && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// diffSnapshots writes the comparison of old (the parent) and new (the
// change) to w and returns the flagged metrics, as "<run> <metric>".
// Both snapshots must have validated.
func diffSnapshots(w io.Writer, old, new snapshot, d declared) []string {
	var flagged []string
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "parent %s (%s)\tchange %s (%s)\n", old.Label, old.Revision, new.Label, new.Revision)
	newRuns := map[string]run{}
	for _, r := range new.Runs {
		newRuns[runKey(r)] = r
	}
	for _, ro := range old.Runs {
		key := runKey(ro)
		rn, ok := newRuns[key]
		if !ok {
			fmt.Fprintf(tw, "\n%s: only in the parent\n", key)
			continue
		}
		delete(newRuns, key)
		var a, b result
		// Both results parsed when the snapshots validated.
		_ = json.Unmarshal(ro.Result, &a)
		_ = json.Unmarshal(rn.Result, &b)
		fmt.Fprintf(tw, "\n%s (%gs windows)\tparent\tchange\tdelta\t\n", key, ro.Seconds)
		names := make([]string, 0, len(a.Metrics))
		for name := range a.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ma := a.Metrics[name]
			mb, ok := b.Metrics[name]
			if !ok {
				fmt.Fprintf(tw, "  %s\t%s %s\t—\t\t\n", name, num(ma.Value), ma.Unit)
				continue
			}
			note := ""
			if ro.Trace == 0 {
				if worse, bound, ok := worseBeyondBound(d, name, ma.Value, mb.Value); ok && worse {
					note = fmt.Sprintf("WORSE than its %g bound", bound)
					flagged = append(flagged, key+" "+name)
				}
			}
			fmt.Fprintf(tw, "  %s\t%s %s\t%s %s\t%s\t%s\n", name, num(ma.Value), ma.Unit, num(mb.Value), mb.Unit, delta(ma.Value, mb.Value), note)
		}
	}
	for _, r := range new.Runs {
		if _, ok := newRuns[runKey(r)]; ok {
			fmt.Fprintf(tw, "\n%s: only in the change\n", runKey(r))
		}
	}

	newBench := map[string]bench{}
	for _, k := range new.Benchmarks {
		newBench[k.Name] = k
	}
	fmt.Fprintf(tw, "\nkernels\tparent\tchange\tdelta\t\n")
	for _, ko := range old.Benchmarks {
		kn, ok := newBench[ko.Name]
		if !ok {
			fmt.Fprintf(tw, "  %s\t%s ns/op\t—\t\t\n", ko.Name, num(ko.NsPerOp))
			continue
		}
		delete(newBench, ko.Name)
		fmt.Fprintf(tw, "  %s\t%s ns/op\t%s ns/op\t%s\t\n", ko.Name, num(ko.NsPerOp), num(kn.NsPerOp), delta(ko.NsPerOp, kn.NsPerOp))
		units := make([]string, 0, len(ko.Metrics))
		for unit := range ko.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			if v, ok := kn.Metrics[unit]; ok {
				fmt.Fprintf(tw, "  %s\t%s %s\t%s %s\t%s\t\n", ko.Name, num(ko.Metrics[unit]), unit, num(v), unit, delta(ko.Metrics[unit], v))
			}
		}
	}
	for _, k := range new.Benchmarks {
		if _, ok := newBench[k.Name]; ok {
			fmt.Fprintf(tw, "  %s\t—\t%s ns/op\t\t\n", k.Name, num(k.NsPerOp))
		}
	}
	// tabwriter's error is the writer's; w is standard output.
	_ = tw.Flush()
	if len(flagged) > 0 {
		fmt.Fprintf(w, "\nflagged (one sample each; confirm with alternating pairs): %s\n", strings.Join(flagged, ", "))
	}
	return flagged
}

// worseBeyondBound reports whether the end-to-end metric name moved from
// a to b in its worse direction by more than its bound; ok is false for
// a metric BENCHMARK.json does not list as end-to-end.
func worseBeyondBound(d declared, name string, a, b float64) (worse bool, bound float64, ok bool) {
	for _, e := range d.EndToEnd {
		if e.Name != name {
			continue
		}
		change := (b - a) / a
		if e.Better == "higher" {
			change = -change
		}
		return change > e.Bound, e.Bound, true
	}
	return false, 0, false
}

func thisMachine() *machine {
	m := &machine{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(), Go: runtime.Version()}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func main() {
	out := flag.String("record", "", "assemble a snapshot and write it to this file")
	label := flag.String("label", "", "with -record: the snapshot's label (required)")
	date := flag.String("date", "", "with -record: the snapshot's date, YYYY-MM-DD (required)")
	revision := flag.String("revision", "", "with -record: the source revision the snapshot measures")
	bestOf := flag.Int("best-of", 1, "with -record: repetitions of each kernel benchmark")
	runsPath := flag.String("runs", "", "with -record: file of run lines, one JSON object each (required)")
	kernelsPath := flag.String("kernels", "", "with -record: go test -bench output of the kernel benchmarks (required)")
	diff := flag.Bool("diff", false, "compare two snapshots, OLD then NEW")
	flag.Parse()
	recording := *out != ""
	if recording && (*label == "" || *date == "" || *runsPath == "" || *kernelsPath == "") ||
		*diff && (recording || flag.NArg() != 2) ||
		!recording && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck BENCH_*.json...\n       benchcheck -record OUT -label L -date D -runs RUNS -kernels KERNELS [-revision R] [-best-of N]\n       benchcheck -diff OLD NEW")
		flag.PrintDefaults()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	d, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	if *diff {
		old, err := readSnapshot(flag.Arg(0), d)
		if err != nil {
			fail(err)
		}
		new, err := readSnapshot(flag.Arg(1), d)
		if err != nil {
			fail(err)
		}
		diffSnapshots(os.Stdout, old, new, d)
		return
	}
	if recording {
		s := snapshot{Date: *date, Label: *label, Revision: *revision, Machine: thisMachine(), BestOf: bestOf}
		if err := record(*out, s, *runsPath, *kernelsPath, d); err != nil {
			fail(err)
		}
	}
	for _, path := range flag.Args() {
		if err := check(path, d); err != nil {
			fail(err)
		}
	}
}
