package ivnsim

import (
	"runtime"
	"strings"
	"testing"

	"ivn/internal/engine"
)

// The scheduler's own unit tests live with it in internal/engine; this
// file keeps the end-to-end determinism check at the experiment level.

// renderedJSON runs an experiment and renders its result as the -json
// document: every value at full precision, with its format, plus the
// notes, as one comparable string.
func renderedJSON(t *testing.T, id string, cfg Config) (string, error) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		return "", err
	}
	res, err := e.Run(cfg)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := engine.RenderJSON(res, &sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// TestTablesIdenticalAcrossWorkerCap is the same contract along the other
// concurrency axis: the engine's -parallel worker cap. It specifically
// guards the batched scratch paths — with one worker a single kit serves
// every trial of a sweep; with four workers trials land on different kits
// in scheduling-dependent order — so any leakage of worker state into
// results shows up as a table diff. Fig9 covers the batched gain sweep,
// fig13c the batched range search.
func TestTablesIdenticalAcrossWorkerCap(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ids := []string{"fig9", "fig13c"}
	cfg := Config{Seed: 42, Quick: true}
	for _, id := range ids {
		cfg.Limits = engine.Limits{MaxParallel: 1}
		one, err := renderedJSON(t, id, cfg)
		if err != nil {
			t.Fatalf("%s at -parallel 1: %v", id, err)
		}
		cfg.Limits = engine.Limits{MaxParallel: 4}
		four, err := renderedJSON(t, id, cfg)
		if err != nil {
			t.Fatalf("%s at -parallel 4: %v", id, err)
		}
		if four != one {
			t.Errorf("%s: table differs between -parallel 1 and 4:\nserial:\n%s\nparallel:\n%s", id, one, four)
		}
	}
}

func TestTablesIdenticalAcrossGOMAXPROCS(t *testing.T) {
	// The determinism contract of the parallel trial loops: for a fixed
	// seed, every experiment table is byte-identical whether trials run
	// serially (GOMAXPROCS=1) or concurrently. Covers the experiments
	// whose trial loops run through the engine scheduler.
	if testing.Short() {
		t.Skip("short mode")
	}
	ids := []string{"fig9", "invivo", "ablation-equalpower", "ablation-flatness",
		"ablation-averaging", "ablation-freqerror", "ablation-miller", "fig13a"}
	cfg := Config{Seed: 42, Quick: true}

	prev := runtime.GOMAXPROCS(1)
	serial := make(map[string]string)
	for _, id := range ids {
		doc, err := renderedJSON(t, id, cfg)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatalf("%s serial: %v", id, err)
		}
		serial[id] = doc
	}
	runtime.GOMAXPROCS(prev)
	if prev == 1 {
		prev = 4 // force a genuinely concurrent second pass on 1-CPU hosts
	}
	runtime.GOMAXPROCS(prev)
	for _, id := range ids {
		got, err := renderedJSON(t, id, cfg)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if got != serial[id] {
			t.Errorf("%s: table differs between GOMAXPROCS=1 and %d:\nserial:\n%s\nparallel:\n%s",
				id, prev, serial[id], got)
		}
	}
}
