package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedSnapshotsPass checks every BENCH_*.json committed at the
// repository root, whichever schema it was written in.
func TestCommittedSnapshotsPass(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json at the repository root")
	}
	for _, path := range paths {
		if err := check(path); err != nil {
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
		err := check(path)
		if (err == nil) != c.ok {
			t.Errorf("%q: error %v, want ok=%v", c.field, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "best_of") {
			t.Errorf("%q: error %v does not name best_of", c.field, err)
		}
	}
}
