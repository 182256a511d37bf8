package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// layers are the program's layers the traced run splits time over. Each
// gets L.calls and L.self_ms in the per-layer report, named after the
// package (or package group) whose public functions the spans wrap.
var layers = []string{"scenario", "core", "phasor", "radio", "link", "reader", "session", "engine", "runspec", "service"}

// span is one timed call into a layer's public function.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Trial  int32  `json:"trial"`
	Rep    int32  `json:"rep"`
}

// tracer records spans in memory. Nested spans come from one goroutine
// (the single-worker batch drivers) and use the open-span stack for their
// parent; concurrent callers (the HTTP handler wrapper) use add, which
// records a root span under the lock. A nil tracer records nothing, so
// the untraced repetitions run the same driver code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	stack  []int32
	trial  int32
	rep    int32
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(layer, name string) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Start: now, Parent: parent, Trial: t.trial, Rep: t.rep})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// add records a finished root span measured by the caller.
func (t *tracer) add(layer, name string, start, end time.Time, trial int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Name: name, Layer: layer,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: -1, Trial: trial, Rep: t.rep})
}

// count adds d to a named operation counter taken at a span boundary.
func (t *tracer) count(name string, d int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += d
	t.mu.Unlock()
}

// setTrial stamps subsequent spans with a trial id.
func (t *tracer) setTrial(i int) {
	if t != nil {
		t.trial = int32(i)
	}
}

// call wraps fn in a span.
func call[T any](t *tracer, layer, name string, fn func() T) T {
	id := t.begin(layer, name)
	v := fn()
	t.end(id)
	return v
}

// call2 wraps a (value, error) fn in a span.
func call2[T any](t *tracer, layer, name string, fn func() (T, error)) (T, error) {
	id := t.begin(layer, name)
	v, err := fn()
	t.end(id)
	return v, err
}

// layerStat is one layer's aggregate over a set of spans.
type layerStat struct {
	calls  int64
	selfNs int64
}

// aggregate sums self time (a span's duration minus its children's) per
// layer, and total duration per span name.
func (t *tracer) aggregate() (byLayer map[string]layerStat, byName map[string]int64) {
	byLayer = map[string]layerStat{}
	byName = map[string]int64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		dur := s.End - s.Start
		st := byLayer[s.Layer]
		st.calls++
		st.selfNs += dur - child[i]
		byLayer[s.Layer] = st
		byName[s.Name] += dur
	}
	return byLayer, byName
}

// snapshotCounts copies the operation counters.
func (t *tracer) snapshotCounts() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// reset drops spans and counters, keeping the clock.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
	t.stack = t.stack[:0]
	t.counts = map[string]int64{}
}

// writeJSONL writes every span as one JSON line to path.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
