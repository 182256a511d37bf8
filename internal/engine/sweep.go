package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"

	"ivn/internal/rng"
)

// resolveJournal partitions one Trials-level call's indices under the
// run's shard and journal: recorded samples are decoded straight into
// the samples slice (replayed), missing indices the shard owns are
// returned for execution, and missing unowned indices mark the call
// incomplete (a fragment whose reduction will be discarded). A nil
// return call means the plain unjournaled path applies.
func resolveJournal[S any](lim Limits, seed uint64, label string, samples []S) (*journalCall, []int, error) {
	if err := lim.Shard.Validate(); err != nil {
		return nil, nil, err
	}
	if lim.Journal == nil {
		if lim.Shard.Enabled() {
			return nil, nil, fmt.Errorf("engine: sharded run (shard %s) requires a journal", lim.Shard)
		}
		return nil, nil, nil
	}
	c := lim.Journal.beginCall(seed, label)
	toRun := make([]int, 0, len(samples))
	incomplete := false
	for i := range samples {
		if raw, ok := c.lookup(i); ok {
			if err := json.Unmarshal(raw, &samples[i]); err != nil {
				return nil, nil, fmt.Errorf("engine: journal replay %q occ %d trial %d: %w", label, c.occ, i, err)
			}
			c.j.replayed.Add(1)
			continue
		}
		if lim.Shard.Owns(i) {
			toRun = append(toRun, i)
			continue
		}
		incomplete = true
	}
	if incomplete {
		c.j.incomplete.Add(1)
	}
	return c, toRun, nil
}

// recorder journals executed samples for one call, guarding the first
// record with a decode round-trip so a sample type that cannot survive
// JSON (unexported fields marshal to {} silently) fails the run loudly
// instead of corrupting a resume or merge.
type recorder[S any] struct {
	call    *journalCall
	samples []S
	guarded atomic.Bool
}

func (rc *recorder[S]) record(i int) error {
	data, err := json.Marshal(rc.samples[i])
	if err != nil {
		return fmt.Errorf("engine: sample for trial %d of %q does not serialize: %w", i, rc.call.label, err)
	}
	if rc.guarded.CompareAndSwap(false, true) {
		var back S
		if err := json.Unmarshal(data, &back); err != nil {
			return fmt.Errorf("engine: sample for trial %d of %q does not decode back: %w", i, rc.call.label, err)
		}
		if !reflect.DeepEqual(back, rc.samples[i]) {
			return fmt.Errorf("engine: sample type %T does not round-trip through JSON (unexported fields?)", back)
		}
	}
	return rc.call.record(i, data)
}

// TrialsCtx runs n independent trials of measure on the bounded
// scheduler and returns the samples in trial order. Each trial's stream
// is derived with SplitIndexed(label, i) from a parent seeded with seed,
// so the sample slice — not just its aggregate — is a pure function of
// (seed, label, n) at any worker cap. It is TrialsScratchCtx without
// per-worker scratch, so the journal/shard semantics are the same. The
// trial's *rng.Rand is worker storage reseeded for every trial: measure
// must not keep it past its return.
func TrialsCtx[S any](ctx context.Context, lim Limits, seed uint64, label string, n int, measure func(trial int, r *rng.Rand) (S, error)) ([]S, error) {
	return TrialsScratchCtx(ctx, lim, seed, label, n, NewScratches(nil), func(i int, _ any, r *rng.Rand) (S, error) {
		return measure(i, r)
	})
}

// Scratches is the engine's per-worker trial state for the batched
// evaluation paths: one scratch object and one reusable rng child per
// scheduler worker. Each slot is only ever touched by the single
// goroutine owning that worker id, so no locking is involved; slots are
// created lazily on first use and persist across points (and across
// separate ForEachScratchCtx calls with the same Scratches), which is
// where the allocation savings come from. A Scratches must not be shared
// between concurrently running sweeps.
type Scratches struct {
	mk    func() any
	buf   []any
	rands []rng.Rand
}

// NewScratches builds a scratch set whose slots are created by mk (nil mk
// yields nil scratch values, for callers that only want the per-worker
// rng children).
func NewScratches(mk func() any) *Scratches { return &Scratches{mk: mk} }

// ensure grows the slot slices to cover `workers` entries. Called
// sequentially before workers launch.
func (s *Scratches) ensure(workers int) {
	for len(s.buf) < workers {
		s.buf = append(s.buf, nil)
	}
	for len(s.rands) < workers {
		s.rands = append(s.rands, rng.Rand{})
	}
}

// ForEachScratchCtx is ForEachCtx handing each invocation its worker's
// persistent scratch object and rng child slot. The rng child arrives in
// whatever state the worker's previous trial left it — callers reseed it
// per index (e.g. via SplitIndexedInto) so results stay a pure function
// of the index, never of worker assignment.
func ForEachScratchCtx(ctx context.Context, lim Limits, n int, s *Scratches, fn func(i int, scratch any, r *rng.Rand) error) error {
	workers := lim.maxParallel()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	s.ensure(workers)
	return forEachWorkerN(ctx, lim.Metrics, n, workers, func(w, i int) error {
		if s.buf[w] == nil && s.mk != nil {
			s.buf[w] = s.mk()
		}
		return fn(i, s.buf[w], &s.rands[w])
	})
}

// TrialsScratchCtx runs n trials under a cancellation context and
// per-run limits, handing measure the worker's persistent scratch object
// and its rng child, reseeded to SplitIndexed(label, i) of a parent
// seeded with seed — so the derivation allocates nothing and samples are
// the same at any worker cap. Cancellation stops the run between trials:
// a cancelled run yields ctx's error, never partial samples.
//
// When lim carries a Journal, recorded samples replay instead of
// re-executing (they never enter the scheduler, so SchedMetrics.Trials
// counts executed trials only), executed samples are recorded, and a
// Shard restricts execution to owned indices — unowned missing indices
// stay zero-valued and mark the call incomplete on the Journal.
func TrialsScratchCtx[S any](ctx context.Context, lim Limits, seed uint64, label string, n int, s *Scratches, measure func(trial int, scratch any, r *rng.Rand) (S, error)) ([]S, error) {
	if n < 1 {
		return nil, fmt.Errorf("engine: %d trials", n)
	}
	parent := rng.New(seed)
	samples := make([]S, n)
	call, toRun, jerr := resolveJournal(lim, seed, label, samples)
	if jerr != nil {
		return nil, jerr
	}
	trial := func(i int, scratch any, r *rng.Rand) error {
		// SplitIndexedInto only reads the parent state — concurrent
		// derivation from the shared parent is race-free.
		parent.SplitIndexedInto(r, label, i)
		var err error
		samples[i], err = measure(i, scratch, r)
		return err
	}
	var err error
	if call == nil {
		err = ForEachScratchCtx(ctx, lim, n, s, trial)
	} else {
		rec := &recorder[S]{call: call, samples: samples}
		err = ForEachScratchCtx(ctx, lim, len(toRun), s, func(k int, scratch any, r *rng.Rand) error {
			if err := trial(toRun[k], scratch, r); err != nil {
				return err
			}
			return rec.record(toRun[k])
		})
	}
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// Sweep is a declarative per-point trial schedule: for each sweep point
// (an antenna count, a depth, a fault scale, a scenario) the engine runs
// Trials independent measurements on deterministic streams and reduces
// the samples — in index order — to one typed table row.
//
// Points execute sequentially (trials within a point are what
// parallelize), so Row closures may accumulate cross-point state such as
// a worst-case statistic for a trailing note.
type Sweep[P, S any] struct {
	// Trials is the per-point trial count.
	Trials int
	// Plan derives the point's rng plan: the parent seed and the
	// SplitIndexed label. Labels/seeds must differ between points unless
	// the experiment deliberately reuses placements across rows (the
	// paired-ablation pattern).
	Plan func(p P) (seed uint64, label string)
	// Prepare, when set, builds the point's trial-invariant context once
	// per point, before any trial runs. The returned value is handed to
	// every Measure call of that point and MUST be treated as read-only
	// there: trials run concurrently and share it. Nil Prepare passes a
	// nil context.
	Prepare func(p P) (any, error)
	// NewScratch, when set, creates one worker's reusable scratch object,
	// persistent across the trials and points that worker runs. Nil
	// NewScratch passes a nil scratch.
	NewScratch func() any
	// Measure runs one trial and returns a typed sample: prepared is the
	// point's shared Prepare result, scratch the worker's persistent
	// object. The sample must be a pure function of (p, prepared, trial,
	// r) — never of which worker ran it.
	Measure func(p P, prepared, scratch any, trial int, r *rng.Rand) (S, error)
	// Row reduces a point's samples (in trial order) to one table row.
	Row func(p P, samples []S) ([]Cell, error)
}

// RunIntoCtx executes the sweep over points under a cancellation context
// and per-run limits and appends one row per point to res: ctx is checked
// between points and between trials (prompt cooperative cancellation),
// and lim caps this sweep's parallelism independently of any other run
// in the process. On error res may hold the rows of earlier points.
func (s Sweep[P, S]) RunIntoCtx(ctx context.Context, lim Limits, res *Result, points []P) error {
	if s.Measure == nil {
		return fmt.Errorf("engine: sweep has no Measure")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	scratches := NewScratches(s.NewScratch)
	for _, p := range points {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Fragment mode: a shard that does not own all of a point's
		// missing trials leaves the sample set incomplete, and reducing
		// garbage rows would be misleading even in a result that the
		// fragment runner discards. Snapshot the incomplete-call count so
		// such points can skip Row below.
		var preIncomplete int64
		if lim.Journal != nil {
			preIncomplete = lim.Journal.IncompleteCalls()
		}
		seed, label := s.Plan(p)
		var prepared any
		if s.Prepare != nil {
			var err error
			if prepared, err = s.Prepare(p); err != nil {
				return err
			}
		}
		samples, err := TrialsScratchCtx(ctx, lim, seed, label, s.Trials, scratches, func(trial int, scratch any, r *rng.Rand) (S, error) {
			return s.Measure(p, prepared, scratch, trial, r)
		})
		if err != nil {
			return err
		}
		if lim.Journal != nil && lim.Journal.IncompleteCalls() > preIncomplete {
			continue
		}
		row, err := s.Row(p, samples)
		if err != nil {
			return err
		}
		res.AddRow(row...)
	}
	return nil
}
