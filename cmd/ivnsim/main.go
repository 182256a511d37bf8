// Command ivnsim runs IVN's evaluation experiments and prints the rows of
// the corresponding paper figure or table.
//
// Usage:
//
//	ivnsim -list
//	ivnsim -run fig9 [-seed 1] [-trials 150] [-csv|-json]
//	ivnsim -run all [-quick] [-parallel 4]
//	ivnsim -run fig12 -trace events.jsonl
//	ivnsim -run fig9 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Sharded execution splits one run's trials across processes (or
// machines sharing a filesystem), each fragment checkpointing to its
// own journal; the merge renders the exact bytes of the unsharded run:
//
//	ivnsim -run fig9 -shard 0/2 -journal frags/fig9.s0.jsonl
//	ivnsim -run fig9 -shard 1/2 -journal frags/fig9.s1.jsonl
//	ivnsim -merge frags -json
//
// A killed run (sharded or not) resumes from its journal, re-executing
// only trials the journal lacks:
//
//	ivnsim -run fig9 -journal fig9.jsonl
//	ivnsim -run fig9 -journal fig9.jsonl -resume
//
// The CLI and the ivnsimd daemon share one run pipeline
// (internal/ivnsim/runspec): each invocation builds a validated RunSpec
// from the flags and executes it exactly the way a daemon job would, so
// the two fronts can never drift apart in what a run means.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim"
	"ivn/internal/ivnsim/runspec"
	"ivn/internal/session"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run holds the real main body so deferred profile writers execute before
// the process exits (os.Exit in main would skip them) and can still turn
// a failed profile write into a non-zero exit status.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("ivnsim", flag.ContinueOnError)
	var (
		list        = fs.Bool("list", false, "list available experiments")
		runID       = fs.String("run", "", "experiment id to run, or \"all\"")
		seed        = fs.Uint64("seed", 1, "random seed (equal seeds reproduce identical tables)")
		trials      = fs.Int("trials", 0, "override the experiment's trial count (0 = default)")
		quick       = fs.Bool("quick", false, "reduced workload")
		csv         = fs.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut     = fs.Bool("json", false, "emit JSON (typed cells) instead of aligned text")
		parallel    = fs.Int("parallel", 0, "cap concurrent trial workers (0 = GOMAXPROCS; never changes results)")
		outDir      = fs.String("out", "", "also write each result to DIR/<id>.txt, DIR/<id>.csv and DIR/<id>.json")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to FILE")
		memProfile  = fs.String("memprofile", "", "write a heap profile to FILE on exit")
		faultScales = fs.String("faultscales", "", "comma-separated fault-intensity multiples for faultmatrix (e.g. 0,1,4)")
		traceFile   = fs.String("trace", "", "write the session-layer event stream to FILE as JSON lines")
		shardFlag   = fs.String("shard", "", "execute only fragment I/N of the run's trials (requires -journal; the journal is the output)")
		journalFile = fs.String("journal", "", "checkpoint completed trials to FILE as JSONL")
		resume      = fs.Bool("resume", false, "reload -journal and re-execute only trials it lacks")
		mergeDir    = fs.String("merge", "", "merge the shard journals in DIR into the whole run's table (byte-identical to an unsharded run)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *csv && *jsonOut {
		fmt.Fprintln(os.Stderr, "ivnsim: -csv and -json are mutually exclusive")
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "ivnsim: -parallel %d: worker cap must be >= 0 (0 = GOMAXPROCS)\n", *parallel)
		return 2
	}
	shard, err := engine.ParseShard(*shardFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivnsim: -shard: %v\n", err)
		return 2
	}
	if *mergeDir != "" && (*runID != "" || *shardFlag != "" || *journalFile != "" || *resume || *traceFile != "") {
		fmt.Fprintln(os.Stderr, "ivnsim: -merge stands alone (the fragments' journals already pin the run)")
		return 2
	}
	if shard.Enabled() && *journalFile == "" {
		fmt.Fprintln(os.Stderr, "ivnsim: -shard requires -journal (a fragment's output is its journal)")
		return 2
	}
	if *resume && *journalFile == "" {
		fmt.Fprintln(os.Stderr, "ivnsim: -resume requires -journal")
		return 2
	}
	if *journalFile != "" {
		if *runID == "" || *runID == "all" {
			fmt.Fprintln(os.Stderr, "ivnsim: -journal checkpoints a single run: pass one experiment via -run")
			return 2
		}
		if *traceFile != "" {
			fmt.Fprintln(os.Stderr, "ivnsim: -trace cannot be combined with -journal (replayed trials emit no events)")
			return 2
		}
	}
	// The cap is carried per run (engine.Limits), not set process-wide:
	// the CLI is a one-job process, but the shared pipeline keeps the
	// daemon's independent-jobs contract intact.
	lim := engine.Limits{MaxParallel: *parallel}

	scales, err := runspec.ParseScales(*faultScales)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivnsim: -faultscales: %v\n", err)
		return 2
	}

	// A failure to write a profile fails the invocation: with a zero exit
	// status nothing downstream would notice the missing profile.
	profileFailed := func(flagName string, err error) {
		fmt.Fprintf(os.Stderr, "ivnsim: %s: %v\n", flagName, err)
		if code == 0 {
			code = 1
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: cpuprofile: %v\n", err)
			return 2
		}
		w := bufio.NewWriter(f)
		if err := pprof.StartCPUProfile(w); err != nil {
			_ = f.Close() // the start error is the one to report
			fmt.Fprintf(os.Stderr, "ivnsim: cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := closeProfile(w, f); err != nil {
				profileFailed("cpuprofile", err)
			}
		}()
	}
	if *memProfile != "" {
		// Open the file now, so a bad path fails before the run rather
		// than after it.
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: memprofile: %v\n", err)
			return 2
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live objects
			w := bufio.NewWriter(f)
			err := pprof.WriteHeapProfile(w)
			if cerr := closeProfile(w, f); err == nil {
				err = cerr
			}
			if err != nil {
				profileFailed("memprofile", err)
			}
		}()
	}

	render := engine.RenderText
	switch {
	case *csv:
		render = engine.RenderCSV
	case *jsonOut:
		render = engine.RenderJSON
	}

	// One log across every experiment of the invocation: span keys carry
	// the experiment id, and the JSONL form sorts spans, so -run all with
	// -trace is as deterministic as a single experiment.
	var tlog *session.TraceLog
	if *traceFile != "" {
		tlog = session.NewTraceLog()
	}

	// specFor maps the flag set onto the shared RunSpec for one experiment.
	specFor := func(id string) runspec.Spec {
		return runspec.Spec{
			Experiment:  id,
			Seed:        *seed,
			Trials:      *trials,
			Quick:       *quick,
			FaultScales: scales,
			Trace:       *traceFile != "",
		}
	}

	switch {
	case *mergeDir != "":
		if err := runMerge(*mergeDir, lim, *jsonOut, render, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: merge: %v\n", err)
			return 1
		}
		return 0
	case shard.Enabled():
		if *runID == "" || *runID == "all" {
			fmt.Fprintln(os.Stderr, "ivnsim: -shard fragments a single run: pass one experiment via -run")
			return 2
		}
		spec := specFor(*runID)
		spec.Shard = &shard
		spec.Journal = *journalFile
		spec.Resume = *resume
		if err := runFragment(spec, lim); err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: %s: %v\n", spec.Experiment, err)
			return 1
		}
		return 0
	case *list:
		for _, e := range ivnsim.Registry() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
			fmt.Printf("%-20s paper: %s\n", "", e.Paper)
		}
	case *runID == "all":
		for _, e := range ivnsim.Registry() {
			if err := runOne(specFor(e.ID), lim, *jsonOut, render, *outDir, tlog); err != nil {
				fmt.Fprintf(os.Stderr, "ivnsim: %s: %v\n", e.ID, err)
				return 1
			}
		}
	case *runID != "":
		spec := specFor(*runID)
		spec.Journal = *journalFile
		spec.Resume = *resume
		if err := spec.Validate(); err != nil {
			// An unknown id comes back from ivnsim.ByID already
			// prefixed; every other error gets the command's prefix.
			msg := err.Error()
			if !strings.HasPrefix(msg, "ivnsim: ") {
				msg = "ivnsim: " + msg
			}
			fmt.Fprintln(os.Stderr, msg)
			return 2
		}
		if err := runOne(spec, lim, *jsonOut, render, *outDir, tlog); err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: %s: %v\n", spec.Experiment, err)
			return 1
		}
	default:
		fs.Usage()
		return 2
	}

	if *traceFile != "" {
		if err := writeTrace(tlog, *traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "ivnsim: trace: %v\n", err)
			return 1
		}
	}
	return 0
}

// closeProfile flushes a profile's buffer and closes its file.
// runtime/pprof drops the errors of its own writes; the buffer keeps the
// first one, and Flush returns it.
func closeProfile(w *bufio.Writer, f *os.File) error {
	err := w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runFragment executes one shard of a run, leaving its journal as the
// product. The stderr summary is the fragment's machine-checkable
// receipt: its recorded/replayed counts show how much of a resumed
// fragment came from the journal.
func runFragment(spec runspec.Spec, lim engine.Limits) error {
	//ivn:allow determinism wall-clock only feeds the stderr elapsed-time diagnostic, never a table
	start := time.Now()
	j, err := runspec.RunFragment(context.Background(), lim, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "(%s shard %s: recorded %d, replayed %d, journal %s, in %v)\n",
		spec.Experiment, spec.Shard, j.Recorded(), j.Replayed(), spec.Journal,
		time.Since(start).Round(time.Millisecond))
	return nil
}

// runMerge recombines a directory of shard journals into the whole
// run's result and renders it exactly as an unsharded invocation would.
func runMerge(dir string, lim engine.Limits, jsonOut bool, render engine.Renderer, outDir string) error {
	//ivn:allow determinism wall-clock only feeds the stderr elapsed-time diagnostic, never a table
	start := time.Now()
	paths, err := runspec.FindFragments(dir)
	if err != nil {
		return err
	}
	res, spec, err := runspec.Merge(context.Background(), lim, paths)
	if err != nil {
		return err
	}
	if err := render(res, os.Stdout); err != nil {
		return err
	}
	if outDir != "" {
		if err := runspec.WriteOutputs(res, outDir); err != nil {
			return err
		}
	}
	// Match runOne's footer placement so output pipelines treat a merged
	// run exactly like a direct one.
	if !jsonOut {
		fmt.Printf("(%s in %v, seed %d)\n\n", spec.Experiment, time.Since(start).Round(time.Millisecond), spec.Seed)
	} else {
		fmt.Fprintf(os.Stderr, "(%s in %v, seed %d)\n", spec.Experiment, time.Since(start).Round(time.Millisecond), spec.Seed)
	}
	return nil
}

// writeTrace serializes the collected event log as JSON lines.
func writeTrace(tlog *session.TraceLog, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tlog.WriteJSONL(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// runOne executes one spec through the shared pipeline, renders it to
// stdout, and fans the result out to -out files. Any per-file write
// failure surfaces with its path and fails the invocation.
func runOne(spec runspec.Spec, lim engine.Limits, jsonOut bool, render engine.Renderer, outDir string, tlog *session.TraceLog) error {
	//ivn:allow determinism wall-clock only feeds the stderr elapsed-time diagnostic, never a table
	start := time.Now()
	res, _, err := runspec.Run(context.Background(), lim, spec, tlog)
	if err != nil {
		return err
	}
	if err := render(res, os.Stdout); err != nil {
		return err
	}
	if outDir != "" {
		if err := runspec.WriteOutputs(res, outDir); err != nil {
			return err
		}
	}
	if !jsonOut {
		fmt.Printf("(%s in %v, seed %d)\n\n", spec.Experiment, time.Since(start).Round(time.Millisecond), spec.Seed)
	} else {
		fmt.Fprintf(os.Stderr, "(%s in %v, seed %d)\n", spec.Experiment, time.Since(start).Round(time.Millisecond), spec.Seed)
	}
	return nil
}
