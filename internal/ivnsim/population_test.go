package ivnsim

import (
	"bytes"
	"strings"
	"testing"

	"ivn/internal/engine"
	"ivn/internal/rng"
	"ivn/internal/session"
)

// TestPopulationTablesIdenticalAcrossWorkerCap pins the N=1000
// experiments' determinism contract along the -parallel axis: the
// event-level channel draws every slot outcome from split rng streams,
// so worker count must never leak into a table byte.
func TestPopulationTablesIdenticalAcrossWorkerCap(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Seed: 7, Quick: true}
	for _, id := range []string{"population", "adaptiveq"} {
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

// TestPopulationTracedMatchesUntraced extends the trace-transparency
// contract to the population family: attaching a trace log must not
// change a table byte, and every trial must commit a span keyed by its
// sweep label.
func TestPopulationTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, err := ByID("population")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 11, Quick: true}
	plain, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tlog := session.NewTraceLog()
	cfg.Trace = tlog
	traced, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderText(t, plain), renderText(t, traced)) {
		t.Fatal("population: traced table differs from untraced")
	}
	keys := tlog.Keys()
	wantSpans := len(populationSizes(true)) * cfg.trials(6, 2)
	if len(keys) != wantSpans {
		t.Fatalf("recorded %d spans, want %d", len(keys), wantSpans)
	}
	for _, k := range keys {
		if !strings.HasPrefix(k, "population-") {
			t.Fatalf("unexpected span key %q", k)
		}
		if len(tlog.Events(k)) == 0 {
			t.Fatalf("span %q recorded no events", k)
		}
		checkSpanClock(t, k, tlog.Events(k))
	}
}

// TestPopulationShape sanity-checks the trial mechanics at a small size
// without pinning golden numbers: every row must account for its slots,
// and an inventory at the waterfall must read some but rarely all tags
// within the round budget.
func TestPopulationShape(t *testing.T) {
	res, err := runPopulationTrial(64, 4, true, popRounds, 12*64+256, nil, rng.New(5).Split("population-shape"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 64 {
		t.Fatalf("total = %d", res.Total)
	}
	if res.Read == 0 {
		t.Fatal("waterfall inventory read nothing")
	}
	if res.Slots != res.Singles+res.Captures+res.Collisions+res.Empties {
		t.Fatalf("slot ledger: %d slots vs %d+%d+%d+%d", res.Slots, res.Singles, res.Captures, res.Collisions, res.Empties)
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Fatalf("fairness = %g outside (0,1]", res.Fairness)
	}
	if res.QueryAdjusts == 0 {
		t.Fatal("floating-Q round issued no QueryAdjusts")
	}
}
