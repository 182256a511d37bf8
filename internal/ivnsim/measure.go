package ivnsim

import (
	"context"
	"fmt"
	"math"

	"ivn/internal/engine"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/session"
	"ivn/internal/tag"
)

// GainSample is one trial's peak received powers (isotropic watts at the
// sensor position) under each transmission scheme.
type GainSample struct {
	// CIB is the coherently-incoherent beamformer's envelope peak.
	CIB float64
	// Single is one antenna of the same array (the paper's denominator).
	Single float64
	// Blind is the N-antenna same-frequency baseline.
	Blind float64
	// MRT is oracle maximum-ratio transmission (perfect channel
	// knowledge) — the unreachable coherent upper bound.
	MRT float64
}

// MeasureGains realizes one placement of sc with n antennas and measures
// the four schemes against identical channels: a fresh gain kit used
// once, so it draws exactly what a reused kit draws for the same stream.
//
//ivn:allow unreached the benchmark in _perfbench checks its own gain trials against it
func MeasureGains(sc scenario.Scenario, n int, r *rng.Rand) (GainSample, error) {
	return new(gainKit).measure(sc, n, nil, r)
}

// RunGainTrialsCtx measures trials independent placements on the
// engine's bounded scheduler under a cancellation context and per-run
// limits, and returns the samples in trial order (deterministic
// regardless of scheduling). With a non-nil log, trial i records under
// "<prefix>/NNNN"; a nil log draws the same streams and returns
// identical samples. Per-worker gain kits absorb the per-trial
// allocations.
func RunGainTrialsCtx(ctx context.Context, lim engine.Limits, sc scenario.Scenario, n, trials int, seed uint64, tlog *session.TraceLog, prefix string) ([]GainSample, error) {
	s := engine.NewScratches(newGainKit)
	return engine.TrialsScratchCtx(ctx, lim, seed, "gain-trial", trials, s, func(i int, scratch any, r *rng.Rand) (GainSample, error) {
		var tr *session.Trace
		if tlog != nil {
			var commit func()
			tr, commit = tlog.Span(fmt.Sprintf("%s/%04d", prefix, i))
			defer commit()
		}
		return scratch.(*gainKit).measure(sc, n, tr, r)
	})
}

// CommTrial is one end-to-end communication attempt: power-up via CIB,
// then RN16 decode via the out-of-band reader.
type CommTrial struct {
	// PeakPower is the CIB envelope peak at the sensor (isotropic watts).
	PeakPower float64
	// Powered reports whether the tag reached its rail.
	Powered bool
	// Decoded reports whether the reader recovered the RN16.
	Decoded bool
	// Correlation is the preamble correlation of the waveform decode (0
	// when the budget path was used or decoding failed early).
	Correlation float64
}

// CommOptions tunes a communication trial.
type CommOptions struct {
	// Waveform switches from the fast link-budget uplink check to full
	// waveform synthesis and FM0 correlation decoding.
	Waveform bool
	// Trace, when non-nil, observes the trial as a typed event stream on
	// the simulated air clock. Nil is free.
	Trace *session.Trace
}

// defaultEPC is the EPC programmed into every simulated tag. Shared
// safely across trials: gen2.NewTagLogic copies the bytes it is given.
var defaultEPC = []byte{0xE2, 0x00, 0x12, 0x34}

// RunCommTrial realizes a placement and attempts a full power-up +
// inventory exchange with the given tag model: a fresh comm kit used
// once.
//
//ivn:allow unreached the benchmark in _perfbench checks its own comm trials against it
func RunCommTrial(sc scenario.Scenario, n int, model tag.Model, opts CommOptions, r *rng.Rand) (CommTrial, error) {
	return new(commKit).trial(sc, n, model, opts, r)
}

// MaxOperatingDistanceCtx finds the largest distance at which
// communication succeeds, via bisection over mk(distance) scenarios.
// Success at a distance means at least successNeeded of trialsPerPoint
// trials complete the power-up + decode exchange. Returns 0 when even
// the minimum distance fails. Each probe's trial loop checks ctx between
// trials, so a cancelled bisection returns promptly.
func MaxOperatingDistanceCtx(ctx context.Context, lim engine.Limits, mk func(d float64) scenario.Scenario, n int, model tag.Model, lo, hi float64, trialsPerPoint, successNeeded int, seed uint64) (float64, error) {
	if lo <= 0 || hi <= lo {
		return 0, fmt.Errorf("ivnsim: bad search interval [%v, %v]", lo, hi)
	}
	if trialsPerPoint < 1 || successNeeded < 1 || successNeeded > trialsPerPoint {
		return 0, fmt.Errorf("ivnsim: bad success spec %d/%d", successNeeded, trialsPerPoint)
	}
	parent := rng.New(seed)
	// Per-worker comm kits and the outcome buffer persist across the whole
	// bisection — every probe reuses them.
	scratches := engine.NewScratches(newCommKit)
	good := make([]bool, trialsPerPoint)
	ok := func(d float64) (bool, error) {
		// Trials at one distance are independent; run them on the worker
		// pool. SplitIndexedInto derives each child stream purely from the
		// parent state + label + index, so concurrent derivation is safe
		// and the per-trial outcomes are identical at any GOMAXPROCS. The
		// scenario is trial-invariant: build it once per probe and share it
		// read-only across the parallel trials.
		sc := mk(d)
		label := fmt.Sprintf("range-%.6g", d)
		err := engine.ForEachScratchCtx(ctx, lim, trialsPerPoint, scratches, func(i int, scratch any, r *rng.Rand) error {
			parent.SplitIndexedInto(r, label, i)
			tr, err := scratch.(*commKit).trial(sc, n, model, CommOptions{}, r)
			if err != nil {
				return err
			}
			good[i] = tr.Powered && tr.Decoded
			return nil
		})
		if err != nil {
			return false, err
		}
		succ := 0
		for _, g := range good {
			if g {
				succ++
			}
		}
		return succ >= successNeeded, nil
	}
	okLo, err := ok(lo)
	if err != nil {
		return 0, err
	}
	if !okLo {
		return 0, nil
	}
	if okHi, err := ok(hi); err != nil {
		return 0, err
	} else if okHi {
		return hi, nil
	}
	for i := 0; i < 24 && hi-lo > hi*1e-3; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection suits dB-linear links
		good, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if good {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
