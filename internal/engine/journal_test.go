package engine

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"ivn/internal/rng"
)

// tsample is the journal tests' sample type: exported fields only, so it
// round-trips through JSON bit-exactly.
type tsample struct {
	V float64
	N int
}

// tMeasure is a deterministic measurement: a pure function of (trial, r).
func tMeasure(trial int, r *rng.Rand) (tsample, error) {
	return tsample{V: r.Float64(), N: trial}, nil
}

func TestShardOwnsIsAPartition(t *testing.T) {
	for _, count := range []int{2, 3, 4, 7} {
		for i := 0; i < 100; i++ {
			owners := 0
			for idx := 0; idx < count; idx++ {
				if (Shard{Index: idx, Count: count}).Owns(i) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("trial %d owned by %d shards of %d, want exactly 1", i, owners, count)
			}
		}
	}
	// The zero shard owns everything.
	var whole Shard
	for i := 0; i < 10; i++ {
		if !whole.Owns(i) {
			t.Fatalf("zero shard must own trial %d", i)
		}
	}
}

func TestParseShard(t *testing.T) {
	sh, err := ParseShard("1/4")
	if err != nil || sh.Index != 1 || sh.Count != 4 {
		t.Fatalf("ParseShard(1/4) = %v, %v", sh, err)
	}
	if sh, err := ParseShard(""); err != nil || sh.Enabled() {
		t.Fatalf("empty shard = %v, %v, want whole run", sh, err)
	}
	for _, bad := range []string{"x", "3", "1/1", "4/4", "-1/4", "a/b"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

func TestShardValidate(t *testing.T) {
	for _, sh := range []Shard{{}, {Index: 0, Count: 2}, {Index: 3, Count: 4}} {
		if err := sh.Validate(); err != nil {
			t.Errorf("%v: %v", sh, err)
		}
	}
	for _, sh := range []Shard{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 1, Count: 0}, {Index: 0, Count: -2}} {
		if err := sh.Validate(); err == nil {
			t.Errorf("%v accepted", sh)
		}
	}
}

func TestTrialsShardWithoutJournalErrors(t *testing.T) {
	lim := Limits{Shard: Shard{Index: 0, Count: 2}}
	_, err := TrialsCtx(context.Background(), lim, 7, "x", 4, tMeasure)
	if err == nil || !strings.Contains(err.Error(), "requires a journal") {
		t.Fatalf("got %v, want a requires-a-journal error", err)
	}
}

func TestTrialsJournalRecordThenReplay(t *testing.T) {
	const n = 16
	direct, err := TrialsCtx(context.Background(), Limits{}, 7, "replay", n, tMeasure)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	j := NewJournal(&buf)
	recSamples, err := TrialsCtx(context.Background(), Limits{Journal: j}, 7, "replay", n, tMeasure)
	if err != nil {
		t.Fatal(err)
	}
	if j.Recorded() != n || j.Replayed() != 0 {
		t.Fatalf("recorded %d replayed %d, want %d/0", j.Recorded(), j.Replayed(), n)
	}

	// Reload the JSONL bytes into a fresh journal: every trial replays,
	// nothing executes (the measure trap), and the scheduler never sees a
	// trial (SchedMetrics.Trials stays zero — the resume-test pin).
	j2 := NewJournal(nil)
	if loaded, _, err := j2.LoadEntries(bytes.NewReader(buf.Bytes())); err != nil || loaded != n {
		t.Fatalf("LoadEntries = %d, %v", loaded, err)
	}
	var m SchedMetrics
	var executed atomic.Int64
	replaySamples, err := TrialsCtx(context.Background(), Limits{Journal: j2, Metrics: &m}, 7, "replay", n,
		func(trial int, r *rng.Rand) (tsample, error) {
			executed.Add(1)
			return tMeasure(trial, r)
		})
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 0 {
		t.Fatalf("%d trials executed on a fully-journaled run", executed.Load())
	}
	if m.Trials.Load() != 0 {
		t.Fatalf("SchedMetrics.Trials = %d for a pure replay, want 0", m.Trials.Load())
	}
	if j2.Replayed() != n {
		t.Fatalf("Replayed = %d, want %d", j2.Replayed(), n)
	}
	for i := range direct {
		if direct[i] != recSamples[i] || direct[i] != replaySamples[i] {
			t.Fatalf("trial %d: direct %v recorded %v replayed %v", i, direct[i], recSamples[i], replaySamples[i])
		}
	}
}

func TestJournalOccDisambiguatesRepeatedLabels(t *testing.T) {
	// Two calls with the same (seed, label) — the paired-ablation pattern —
	// must journal and replay independently via the occurrence counter.
	measureA := func(trial int, r *rng.Rand) (tsample, error) { return tsample{V: r.Float64(), N: trial}, nil }
	measureB := func(trial int, r *rng.Rand) (tsample, error) { return tsample{V: -r.Float64(), N: -trial}, nil }

	var buf bytes.Buffer
	j := NewJournal(&buf)
	lim := Limits{Journal: j}
	a1, err := TrialsCtx(context.Background(), lim, 3, "pair", 5, measureA)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := TrialsCtx(context.Background(), lim, 3, "pair", 5, measureB)
	if err != nil {
		t.Fatal(err)
	}

	j2 := NewJournal(nil)
	if _, _, err := j2.LoadEntries(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	lim2 := Limits{Journal: j2}
	trap := func(trial int, r *rng.Rand) (tsample, error) {
		t.Error("trial executed on replay")
		return tsample{}, nil
	}
	a2, err := TrialsCtx(context.Background(), lim2, 3, "pair", 5, trap)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := TrialsCtx(context.Background(), lim2, 3, "pair", 5, trap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if a1[i] != a2[i] || b1[i] != b2[i] {
			t.Fatalf("occurrence mixup at trial %d: %v/%v vs %v/%v", i, a1[i], b1[i], a2[i], b2[i])
		}
	}
	if a2[0] == b2[0] {
		t.Fatal("the two occurrences replayed identical samples — occ not keyed")
	}
}

func TestTrialsShardExecutesOwnedOnly(t *testing.T) {
	const n = 10
	sh := Shard{Index: 1, Count: 3}
	j := NewJournal(nil)
	var executed []int32
	executed = make([]int32, n)
	samples, err := TrialsCtx(context.Background(), Limits{Shard: sh, Journal: j}, 7, "own", n,
		func(trial int, r *rng.Rand) (tsample, error) {
			atomic.AddInt32(&executed[trial], 1)
			return tMeasure(trial, r)
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := int32(0)
		if sh.Owns(i) {
			want = 1
		}
		if executed[i] != want {
			t.Fatalf("trial %d executed %d times, want %d", i, executed[i], want)
		}
		if !sh.Owns(i) && samples[i] != (tsample{}) {
			t.Fatalf("unowned trial %d has non-zero sample %v", i, samples[i])
		}
	}
	if j.IncompleteCalls() != 1 {
		t.Fatalf("IncompleteCalls = %d, want 1 (fragment left gaps)", j.IncompleteCalls())
	}
}

func TestShardFragmentsMergeToDirectRun(t *testing.T) {
	const n, count = 13, 4
	direct, err := TrialsCtx(context.Background(), Limits{}, 21, "merge", n, tMeasure)
	if err != nil {
		t.Fatal(err)
	}
	union := NewJournal(nil)
	for idx := 0; idx < count; idx++ {
		frag := NewJournal(nil)
		lim := Limits{Shard: Shard{Index: idx, Count: count}, Journal: frag}
		if _, err := TrialsCtx(context.Background(), lim, 21, "merge", n, tMeasure); err != nil {
			t.Fatal(err)
		}
		if err := union.Absorb(frag); err != nil {
			t.Fatal(err)
		}
	}
	if len(union.entries) != n {
		t.Fatalf("union holds %d entries, want %d", len(union.entries), n)
	}
	merged, err := TrialsCtx(context.Background(), Limits{Journal: union}, 21, "merge", n,
		func(trial int, r *rng.Rand) (tsample, error) {
			t.Errorf("trial %d executed during merge replay", trial)
			return tsample{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if direct[i] != merged[i] {
			t.Fatalf("trial %d: direct %v merged %v", i, direct[i], merged[i])
		}
	}
	if union.IncompleteCalls() != 0 {
		t.Fatalf("IncompleteCalls = %d on a complete merge", union.IncompleteCalls())
	}
}

func TestLoadEntriesDropsTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if _, err := TrialsCtx(context.Background(), Limits{Journal: j}, 5, "tail", 4, tMeasure); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()
	// Tear mid-final-line, as a SIGKILL during the last append would.
	torn := buf.Bytes()[:whole-9]

	j2 := NewJournal(nil)
	n, consumed, err := j2.LoadEntries(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("loaded %d entries from a torn 4-entry journal, want 3", n)
	}
	// consumed must point just past the last complete line, so a resume
	// can truncate the torn bytes away before appending.
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	wantConsumed := int64(len(lines[0]) + len(lines[1]) + len(lines[2]))
	if consumed != wantConsumed {
		t.Fatalf("consumed = %d, want %d", consumed, wantConsumed)
	}
}

func TestLoadEntriesRejectsMalformedInteriorLine(t *testing.T) {
	data := `{"label":"x","seed":1,"occ":0,"trial":0,"sample":{"V":1}}
not json
{"label":"x","seed":1,"occ":0,"trial":1,"sample":{"V":2}}
`
	j := NewJournal(nil)
	if _, _, err := j.LoadEntries(strings.NewReader(data)); err == nil {
		t.Fatal("malformed interior line loaded without error")
	}
}

func TestRecorderRejectsUnexportedSampleFields(t *testing.T) {
	type hidden struct {
		v float64 //nolint:unused // the point: it vanishes in JSON
	}
	j := NewJournal(nil)
	_, err := TrialsCtx(context.Background(), Limits{Journal: j}, 7, "hidden", 2,
		func(trial int, r *rng.Rand) (hidden, error) {
			return hidden{v: r.Float64()}, nil
		})
	if err == nil || !strings.Contains(err.Error(), "round-trip") {
		t.Fatalf("got %v, want a does-not-round-trip error", err)
	}
}

func TestAbsorbConflictingSamples(t *testing.T) {
	mk := func(sample string) *Journal {
		j := NewJournal(nil)
		data := `{"label":"x","seed":1,"occ":0,"trial":0,"sample":` + sample + "}\n"
		if _, _, err := j.LoadEntries(strings.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, dup, b := mk(`{"V":1}`), mk(`{"V":1}`), mk(`{"V":2}`)
	if err := a.Absorb(dup); err != nil {
		t.Fatalf("byte-identical duplicate rejected: %v", err)
	}
	if err := a.Absorb(b); err == nil {
		t.Fatal("conflicting sample bytes absorbed without error")
	}
}
