package ivnsim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ivn/internal/engine"
	"ivn/internal/session"
)

// renderText renders a result to bytes for comparison.
func renderText(t *testing.T, res *engine.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := engine.RenderText(res, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSpanClock fails unless a span's sim clock starts at or after zero
// and never runs backwards.
func checkSpanClock(t *testing.T, span string, events []session.Event) {
	t.Helper()
	prev := 0.0
	for i, ev := range events {
		if ev.T < prev {
			t.Fatalf("span %q event %d: clock at %v after %v", span, i, ev.T, prev)
		}
		prev = ev.T
	}
}

// TestTracedRunMatchesUntraced extends the renderer-equivalence suite
// across the observability seam: attaching a trace log to an experiment
// must not change one byte of its table, and the log must actually fill.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, id := range []string{"fig12", "invivo", "faultmatrix"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := e.Run(Config{Seed: 11, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		tlog := session.NewTraceLog()
		traced, err := e.Run(Config{Seed: 11, Quick: true, Trace: tlog})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderText(t, plain), renderText(t, traced)) {
			t.Fatalf("%s: traced table differs from untraced", id)
		}
		keys := tlog.Keys()
		if len(keys) == 0 {
			t.Fatalf("%s: traced run recorded no spans", id)
		}
		for _, k := range keys {
			if !strings.HasPrefix(k, id) && !strings.HasPrefix(k, "invivo-") {
				t.Fatalf("%s: unexpected span key %q", id, k)
			}
			if len(tlog.Events(k)) == 0 {
				t.Fatalf("%s: span %q committed empty", id, k)
			}
			checkSpanClock(t, k, tlog.Events(k))
		}
	}
}

// TestTraceLogByteIdenticalAcrossParallel serializes the fig12 trace at
// two worker-pool widths and requires identical bytes — the acceptance
// bar for -trace determinism at any GOMAXPROCS — and a stream that
// parses back into well-formed events.
func TestTraceLogByteIdenticalAcrossParallel(t *testing.T) {
	run := func(workers int) []byte {
		e, err := ByID("fig12")
		if err != nil {
			t.Fatal(err)
		}
		tlog := session.NewTraceLog()
		if _, err := e.Run(Config{Seed: 3, Quick: true, Trace: tlog, Limits: engine.Limits{MaxParallel: workers}}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tlog.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := run(1)
	b := run(4)
	if len(a) == 0 {
		t.Fatal("empty trace serialization")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("trace JSONL differs between -parallel 1 and 4")
	}

	// Every line decodes through session.Event (whose kind decoder
	// rejects an unknown name) under a non-empty span; a span's lines
	// come in observation order.
	spans := map[string][]session.Event{}
	for n, raw := range bytes.Split(bytes.TrimSuffix(a, []byte("\n")), []byte("\n")) {
		var line struct {
			Span string `json:"span"`
			session.Event
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		if line.Span == "" {
			t.Fatalf("line %d: empty span", n+1)
		}
		spans[line.Span] = append(spans[line.Span], line.Event)
	}
	for span, events := range spans {
		checkSpanClock(t, span, events)
	}
}
