// Command benchcheck validates a BENCH_*.json file written by
// scripts/bench.sh: the document must parse, carry a non-empty date and
// label (an empty label once shipped in a committed snapshot and made it
// undiffable from its neighbors), and list at least one benchmark with a
// name, a positive iteration count, and a positive ns/op figure.
// Duplicate benchmark names are rejected — the awk best-of-N fold is
// supposed to collapse repetitions. A best_of field, when present, must
// be at least 1; snapshots written before bench.sh recorded it carry
// none and are checked as that older schema.
//
// Usage: go run ./scripts/benchcheck BENCH_2026-08-09_label.json...
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

type benchFile struct {
	Date       string  `json:"date"`
	Label      string  `json:"label"`
	BestOf     *int    `json:"best_of"` // nil in the schema before best-of-N
	Benchmarks []bench `json:"benchmarks"`
}

type bench struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func check(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if f.Date == "" {
		return fmt.Errorf("%s: empty date", path)
	}
	if f.Label == "" {
		return fmt.Errorf("%s: empty label (bench.sh defaults to the git short SHA; pass one explicitly)", path)
	}
	if f.BestOf != nil && *f.BestOf < 1 {
		return fmt.Errorf("%s: best_of %d, want >= 1", path, *f.BestOf)
	}
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks recorded", path)
	}
	seen := map[string]bool{}
	for i, b := range f.Benchmarks {
		switch {
		case b.Name == "":
			return fmt.Errorf("%s: benchmark %d has no name", path, i)
		case seen[b.Name]:
			return fmt.Errorf("%s: duplicate benchmark %q", path, b.Name)
		case b.Iters < 1:
			return fmt.Errorf("%s: %s: iters %d, want >= 1", path, b.Name, b.Iters)
		case !(b.NsPerOp > 0):
			return fmt.Errorf("%s: %s: ns_per_op %g, want > 0", path, b.Name, b.NsPerOp)
		case b.BytesPerOp < 0 || b.AllocsPerOp < 0:
			return fmt.Errorf("%s: %s: negative memory figures", path, b.Name)
		}
		seen[b.Name] = true
	}
	fmt.Printf("benchcheck: %s OK (%d benchmarks, label %q)\n", path, len(f.Benchmarks), f.Label)
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck BENCH_*.json...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		if err := check(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
	}
}
