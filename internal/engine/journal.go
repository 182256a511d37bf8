package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Shard selects one work partition of a run's trial indices: trial i
// belongs to shard Index of Count iff i % Count == Index. The zero value
// (and any Count <= 1) means "the whole run".
//
// The partition is a stride, not a contiguous block, deliberately: sweep
// points carry small per-point trial counts (often single digits in
// -quick runs), and a contiguous block split would hand one shard all of
// a small point's trials while another shard gets none, skewing per-shard
// wall time. A stride gives every shard an interleaved ceil(n/Count) or
// floor(n/Count) slice of every point's trials, so shard runtimes balance
// point by point, and membership is an O(1) test needing no knowledge of
// n. Correctness is partition-independent either way: rng.SplitIndexed
// derives trial i's stream purely from (seed, label, i), never from which
// process runs it.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Enabled reports whether the shard actually partitions work.
func (s Shard) Enabled() bool { return s.Count > 1 }

// Validate rejects shards that cannot mean anything. The zero value is
// valid (whole run).
func (s Shard) Validate() error {
	if s.Count < 0 || s.Index < 0 {
		return fmt.Errorf("engine: negative shard %s", s)
	}
	if s.Count > 0 && s.Index >= s.Count {
		return fmt.Errorf("engine: shard index %d out of range for count %d", s.Index, s.Count)
	}
	if s.Count == 0 && s.Index != 0 {
		return fmt.Errorf("engine: shard index %d with zero count", s.Index)
	}
	return nil
}

// Owns reports whether trial index i falls in this shard's partition.
func (s Shard) Owns(i int) bool {
	if !s.Enabled() {
		return true
	}
	return i%s.Count == s.Index
}

// String renders the conventional "index/count" form.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// ParseShard parses the "index/count" CLI form. Empty means "whole run".
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	var sh Shard
	if n, err := fmt.Sscanf(s, "%d/%d", &sh.Index, &sh.Count); err != nil || n != 2 {
		return Shard{}, fmt.Errorf("engine: bad shard %q (want \"index/count\", e.g. 0/4)", s)
	}
	if !sh.Enabled() {
		return Shard{}, fmt.Errorf("engine: shard count %d must be >= 2", sh.Count)
	}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// JournalEntry is one completed trial's contribution: the (seed, label,
// occurrence, trial) coordinates that identify the trial's rng stream
// within a run, plus the measured sample serialized as JSON. One entry
// per JSONL line.
//
// Occ disambiguates deliberate stream reuse: experiments like the
// adaptive-Q ablation run several Trials calls with the same (seed,
// label) to pair placements across variants, so the coordinates alone
// would collide; Occ is the per-(seed, label) call counter within the
// run. Because a run's engine-visible call sequence is a pure function
// of its spec, every shard — and the merge replay — counts occurrences
// identically.
type JournalEntry struct {
	Label  string          `json:"label"`
	Seed   uint64          `json:"seed"`
	Occ    int             `json:"occ"`
	Trial  int             `json:"trial"`
	Sample json.RawMessage `json:"sample"`
}

// journalKey is the entry identity (everything but the sample).
type journalKey struct {
	label string
	seed  uint64
	occ   int
	trial int
}

// Journal is the engine's append-only per-trial checkpoint store: each
// completed trial of a journaled run is recorded as one JSONL entry, and
// a later run with the same spec replays recorded samples instead of
// re-executing their trials. It backs three modes that are all the same
// mechanism:
//
//   - resume: a killed run reloaded from its own journal re-executes only
//     the missing indices;
//   - shard fragments: a run with Limits.Shard executes (and records)
//     only the indices it owns, leaving the journal as its output;
//   - merge: a run loaded with every fragment's entries replays all of
//     them, re-executes anything missing live, and reduces the complete
//     sample set exactly as a single-process run would.
//
// Entries record sample values with encoding/json's shortest-round-trip
// float encoding, so a replayed sample is bit-identical to the one the
// recording process measured — the property the byte-identical merge
// rests on.
//
// A Journal carries per-run occurrence counters and therefore must not
// be shared by two runs, nor reused for a second run; record and lookup
// are safe from concurrent trial workers within one run. Writes go to w
// (when non-nil) as exactly one Write call per entry, so a SIGKILL can
// truncate at most the final line — which LoadEntries tolerates.
type Journal struct {
	mu      sync.Mutex
	w       io.Writer
	entries map[journalKey]json.RawMessage
	occ     map[occKey]int

	recorded   atomic.Int64
	replayed   atomic.Int64
	incomplete atomic.Int64
}

type occKey struct {
	label string
	seed  uint64
}

// NewJournal builds a journal appending entries to w; nil w keeps the
// journal memory-only (the daemon's in-process fragments).
func NewJournal(w io.Writer) *Journal {
	return &Journal{
		w:       w,
		entries: map[journalKey]json.RawMessage{},
		occ:     map[occKey]int{},
	}
}

// Attach sets the append writer for entries recorded from now on.
// Loaded/absorbed entries are never re-written.
func (j *Journal) Attach(w io.Writer) {
	j.mu.Lock()
	j.w = w
	j.mu.Unlock()
}

// Recorded returns the count of entries recorded (executed and written)
// by this run.
func (j *Journal) Recorded() int64 { return j.recorded.Load() }

// Replayed returns the count of trials this run served from the journal
// instead of executing.
func (j *Journal) Replayed() int64 { return j.replayed.Load() }

// IncompleteCalls returns how many Trials-level calls of this run left
// indices neither owned by the run's shard nor found in the journal —
// zero exactly when the run produced a complete (reducible) sample set.
func (j *Journal) IncompleteCalls() int64 { return j.incomplete.Load() }

// LoadEntries parses JSONL entries from r into memory (for resume and
// merge). A final line that is truncated mid-write — no trailing
// newline and unparseable — is dropped silently, which is the crash
// recovery contract for SIGKILLed appends; a malformed interior line is
// an error. Returns the number of entries loaded and the byte offset
// just past the last complete entry (the length a resuming writer should
// truncate the file to before appending).
func (j *Journal) LoadEntries(r io.Reader) (n int, consumed int64, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		complete := rerr == nil
		if len(bytes.TrimSpace(line)) > 0 {
			var e JournalEntry
			if perr := unmarshalStrict(line, &e); perr != nil {
				if !complete {
					// Truncated tail: drop it.
					return n, consumed, nil
				}
				return n, consumed, fmt.Errorf("engine: journal line %d: %w", n+1, perr)
			}
			if verr := validEntry(e); verr != nil {
				if !complete {
					return n, consumed, nil
				}
				return n, consumed, verr
			}
			j.mu.Lock()
			j.entries[journalKey{e.Label, e.Seed, e.Occ, e.Trial}] = e.Sample
			j.mu.Unlock()
			n++
		}
		if complete {
			consumed += int64(len(line))
		}
		if rerr != nil {
			if rerr == io.EOF {
				return n, consumed, nil
			}
			return n, consumed, rerr
		}
	}
}

// unmarshalStrict decodes one entry rejecting trailing garbage on the
// line (a torn write that happens to end at a brace must not half-load).
func unmarshalStrict(line []byte, e *JournalEntry) error {
	dec := json.NewDecoder(bytes.NewReader(bytes.TrimSpace(line)))
	if err := dec.Decode(e); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after entry")
	}
	return nil
}

// validEntry rejects entries whose coordinates cannot identify a trial.
func validEntry(e JournalEntry) error {
	if e.Label == "" || e.Trial < 0 || e.Occ < 0 || len(e.Sample) == 0 {
		return fmt.Errorf("engine: journal entry missing coordinates or sample (label %q, occ %d, trial %d)", e.Label, e.Occ, e.Trial)
	}
	return nil
}

// Absorb merges another journal's entries into j (the merge step's union
// across shard fragments). Duplicate keys with identical sample bytes are
// tolerated (a resumed fragment may overlap itself); conflicting bytes
// for one key mean two runs disagreed about a deterministic trial and
// are an error.
func (j *Journal) Absorb(other *Journal) error {
	other.mu.Lock()
	defer other.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	for k, v := range other.entries {
		if prev, ok := j.entries[k]; ok {
			if !bytes.Equal(prev, v) {
				return fmt.Errorf("engine: journal conflict at %s seed %d occ %d trial %d: fragments disagree", k.label, k.seed, k.occ, k.trial)
			}
			continue
		}
		j.entries[k] = v
	}
	return nil
}

// journalCall is one Trials-level call's view of the journal: the
// occurrence-resolved key prefix plus append access.
type journalCall struct {
	j     *Journal
	label string
	seed  uint64
	occ   int
}

// beginCall resolves the call's occurrence number (per-run, per
// (seed, label)) and returns its handle. Trials-level calls of a run are
// sequential, matching the experiments' structure; only record/lookup
// within a call run concurrently.
func (j *Journal) beginCall(seed uint64, label string) *journalCall {
	k := occKey{label, seed}
	j.mu.Lock()
	occ := j.occ[k]
	j.occ[k] = occ + 1
	j.mu.Unlock()
	return &journalCall{j: j, label: label, seed: seed, occ: occ}
}

// lookup returns the recorded sample for a trial of this call, if any.
func (c *journalCall) lookup(trial int) (json.RawMessage, bool) {
	c.j.mu.Lock()
	defer c.j.mu.Unlock()
	raw, ok := c.j.entries[journalKey{c.label, c.seed, c.occ, trial}]
	return raw, ok
}

// record stores one completed trial's sample and appends its JSONL line
// in a single Write, so a kill can only ever truncate the final line.
func (c *journalCall) record(trial int, sample json.RawMessage) error {
	e := JournalEntry{Label: c.label, Seed: c.seed, Occ: c.occ, Trial: trial, Sample: sample}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("engine: journal entry %s trial %d: %w", c.label, trial, err)
	}
	line = append(line, '\n')
	c.j.mu.Lock()
	defer c.j.mu.Unlock()
	if c.j.w != nil {
		if _, werr := c.j.w.Write(line); werr != nil {
			return fmt.Errorf("engine: journal write %s trial %d: %w", c.label, trial, werr)
		}
	}
	c.j.entries[journalKey{c.label, c.seed, c.occ, trial}] = e.Sample
	c.j.recorded.Add(1)
	return nil
}
