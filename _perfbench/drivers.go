package main

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"ivn/internal/baseline"
	"ivn/internal/core"
	"ivn/internal/em"
	"ivn/internal/engine"
	"ivn/internal/gen2"
	"ivn/internal/ivnsim"
	"ivn/internal/link"
	"ivn/internal/radio"
	"ivn/internal/reader"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/session"
	"ivn/internal/stats"
	"ivn/internal/tag"
)

// The traced run's drivers. Each one issues a workload's main trial kind
// by calling the layers' public functions in the order, and on the rng
// streams, the experiments use, with a span around every call. A driver
// is checked against the public entry point it mirrors (newBatchDrivers), so
// the per-layer split describes the computation the timed run measures.
//
// The trial configurations are the Quick ones of the experiments named
// beside each driver; the constants repeat the experiments' own.

// single is the benchmark's trial-worker cap: one worker, as in the timed
// run.
var single = engine.Limits{MaxParallel: 1}

// epc is the EPC ivnsim programs into every single-tag trial.
var epc = []byte{0xE2, 0x00, 0x12, 0x34}

// Gain trial: fig9 (Quick) — for n = 1..10 antennas, 30 placements in
// the 0.5 m water tank at 10 cm depth, on seed+n.
const (
	gainMaxAntennas = 10
	gainTrials      = 30
	gainLabel       = "gain-trial"
)

func gainScenario() scenario.Scenario { return scenario.NewTank(0.5, em.Water, 0.10) }

// gainKit is one worker's retained state, as in the experiments' kit path.
type gainKit struct {
	placement scenario.Placement
	bf        *core.Beamformer
	chans     []complex128
	carr      []radio.Carrier
	single    [1]radio.Carrier
	child     rng.Rand
}

// peakScan is baseline.PeakReceivedPower(Refined) under a phasor span,
// counting carrier × scan-point evaluations from the call's arguments (the
// coarse grid for a refined scan: the fine pass depends on the data).
func peakScan(t *tracer, carr []radio.Carrier, chans []complex128, coarse, samples int) (float64, error) {
	if coarse > 0 {
		t.count("phasor.samples", int64(len(carr)*coarse))
		return call2(t, "phasor", "baseline.PeakReceivedPowerRefined", func() (float64, error) {
			return baseline.PeakReceivedPowerRefined(carr, chans, link.ScanDuration, coarse, samples)
		})
	}
	t.count("phasor.samples", int64(len(carr)*samples))
	return call2(t, "phasor", "baseline.PeakReceivedPower", func() (float64, error) {
		return baseline.PeakReceivedPower(carr, chans, link.ScanDuration, samples)
	})
}

func (k *gainKit) trial(t *tracer, sc scenario.Scenario, n int, r *rng.Rand) (ivnsim.GainSample, error) {
	var out ivnsim.GainSample
	if _, err := call2(t, "scenario", "scenario.RealizeInto", func() (struct{}, error) {
		return struct{}{}, scenario.RealizeInto(sc, &k.placement, n, r)
	}); err != nil {
		return out, err
	}
	p := &k.placement
	g := p.Geometry()
	k.chans = call(t, "link", "link.DownlinkCoeffsInto", func() []complex128 {
		return link.DownlinkCoeffsInto(k.chans[:0], p, g.CIBFreq)
	})
	amp := call(t, "radio", "link.ChainAmplitude", link.ChainAmplitude)

	r.SplitInto(&k.child, "cib")
	if k.bf == nil || k.bf.N() != n || k.bf.CenterFreq != g.CIBFreq {
		cfg := core.DefaultConfig()
		cfg.Antennas = n
		cfg.CenterFreq = g.CIBFreq
		bf, err := call2(t, "core", "core.New", func() (*core.Beamformer, error) { return core.New(cfg, &k.child) })
		if err != nil {
			return out, err
		}
		k.bf = bf
		t.count("core.builds", 1)
	} else {
		id := t.begin("core", "core.Beamformer.Relock")
		k.bf.Relock(&k.child)
		t.end(id)
		t.count("core.relocks", 1)
	}
	k.carr = call(t, "core", "core.Beamformer.AppendCarriers", func() []radio.Carrier { return k.bf.AppendCarriers(k.carr[:0]) })
	var err error
	if out.CIB, err = peakScan(t, k.carr, k.chans, link.ScanCoarse, link.ScanSamples); err != nil {
		return out, err
	}

	k.single[0] = radio.Carrier{Freq: g.CIBFreq, Phase: 0, Amplitude: amp}
	if out.Single, err = peakScan(t, k.single[:], k.chans[:1], 0, 1); err != nil {
		return out, err
	}

	r.SplitInto(&k.child, "blind")
	blind, err := call2(t, "core", "baseline.BlindArrayInto", func() ([]radio.Carrier, error) {
		return baseline.BlindArrayInto(k.carr[:0], n, g.CIBFreq, amp, &k.child)
	})
	if err != nil {
		return out, err
	}
	if out.Blind, err = peakScan(t, blind, k.chans, 0, 1); err != nil {
		return out, err
	}

	mrt, err := call2(t, "core", "baseline.OracleMRTInto", func() ([]radio.Carrier, error) {
		return baseline.OracleMRTInto(k.carr[:0], g.CIBFreq, amp, k.chans)
	})
	if err != nil {
		return out, err
	}
	if out.MRT, err = peakScan(t, mrt, k.chans, 0, 1); err != nil {
		return out, err
	}
	return out, nil
}

// runGainDriver issues the gain trials, one engine call per antenna
// count, on one kit as the experiment's single worker does.
func runGainDriver(t *tracer, seed uint64) ([][]ivnsim.GainSample, error) {
	sc := gainScenario()
	k := new(gainKit)
	var out [][]ivnsim.GainSample
	for n := 1; n <= gainMaxAntennas; n++ {
		got, err := call2(t, "engine", "engine.TrialsCtx", func() ([]ivnsim.GainSample, error) {
			return engine.TrialsCtx(context.Background(), single, seed+uint64(n), gainLabel, gainTrials, func(i int, r *rng.Rand) (ivnsim.GainSample, error) {
				t.setTrial(i)
				return k.trial(t, sc, n, r)
			})
		})
		if err != nil {
			return nil, err
		}
		out = append(out, got)
	}
	return out, nil
}

// Comm trial with waveform decode: invivo (Quick) — 4 swine cases × 4
// sessions, 8 antennas.
const (
	commAntennas = 8
	commTrials   = 4
)

type commCase struct {
	sc    *scenario.Swine
	model tag.Model
}

func commCases() []commCase {
	return []commCase{
		{scenario.NewSwine(scenario.Gastric), tag.StandardTag()},
		{scenario.NewSwine(scenario.Gastric), tag.MiniatureTag()},
		{scenario.NewSwine(scenario.Subcutaneous), tag.StandardTag()},
		{scenario.NewSwine(scenario.Subcutaneous), tag.MiniatureTag()},
	}
}

type commKit struct {
	placement scenario.Placement
	lk        link.TrialKit
	tagRand   rng.Rand
}

func (k *commKit) trial(t *tracer, sc scenario.Scenario, n int, model tag.Model, r *rng.Rand) (ivnsim.CommTrial, error) {
	var res ivnsim.CommTrial
	if _, err := call2(t, "scenario", "scenario.RealizeInto", func() (struct{}, error) {
		return struct{}{}, scenario.RealizeInto(sc, &k.placement, n, r)
	}); err != nil {
		return res, err
	}
	lk, err := call2(t, "link", "link.TrialKit.ForTrial", func() (*link.Link, error) {
		return k.lk.ForTrial(&k.placement, n, nil, r)
	})
	if err != nil {
		return res, err
	}
	t.count("phasor.link_scans", 1)
	r.SplitInto(&k.tagRand, "tag")
	res.PeakPower = lk.PeakPower()
	tg, err := call2(t, "session", "tag.New", func() (*tag.Tag, error) { return tag.New(model, epc, &k.tagRand) })
	if err != nil {
		return res, err
	}
	x := session.Exchange{Link: lk}
	res.Powered = call(t, "session", "session.Exchange.PowerUp", func() bool { return x.PowerUp(tg, res.PeakPower) })
	if !res.Powered {
		return res, nil
	}
	reply, err := call2(t, "session", "session.Exchange.Query", func() (gen2.Reply, error) {
		return x.Query(tg, &gen2.Query{Q: 0, Session: gen2.S0})
	})
	t.count("session.commands", 1)
	if err != nil {
		return res, fmt.Errorf("downlink: %w", err)
	}
	if reply.Kind != gen2.ReplyRN16 {
		return res, nil
	}
	// link.Link.Decode, split at its two public calls: the tag's
	// backscatter synthesis and the reader's decode.
	bs, err := call2(t, "link", "tag.Tag.BackscatterWaveform", func() ([]float64, error) {
		return tg.BackscatterWaveform(reply, lk.Reader.SamplesPerHalfBit)
	})
	if err != nil {
		return res, err
	}
	gain := lk.RoundTrip(tg.Model)
	dr, derr := call2(t, "reader", "reader.Reader.DecodeUplink", func() (*reader.DecodeResult, error) {
		return lk.Reader.DecodeUplink(bs, gain, lk.Jam(), len(reply.Bits), r.Split("uplink"))
	})
	t.count("reader.decodes", 1)
	if derr == nil && dr.Bits.Equal(reply.Bits) {
		t.count("reader.decode_ok", 1)
		res.Decoded = true
		res.Correlation = dr.Correlation
	}
	return res, nil
}

// runCommDriver issues the invivo sessions, case by case.
func runCommDriver(t *tracer, seed uint64) ([][]ivnsim.CommTrial, error) {
	k := new(commKit)
	var out [][]ivnsim.CommTrial
	for ci, c := range commCases() {
		got, err := call2(t, "engine", "engine.TrialsCtx", func() ([]ivnsim.CommTrial, error) {
			return engine.TrialsCtx(context.Background(), single, seed, fmt.Sprintf("invivo-%d", ci), commTrials, func(i int, r *rng.Rand) (ivnsim.CommTrial, error) {
				t.setTrial(i)
				return k.trial(t, c.sc, commAntennas, c.model, r)
			})
		})
		if err != nil {
			return nil, err
		}
		out = append(out, got)
	}
	return out, nil
}

// Frequency-plan search: fig6 and freqopt (Quick). It returns both
// tables' rows as text.
func runFreqDriver(t *tracer, seed uint64) (fig6, freqopt [][]string, err error) {
	r := rng.New(seed)
	ocfg := core.DefaultOptimizerConfig()
	ocfg.Trials, ocfg.SamplesPerTrial = 16, 1024
	worst, err := call2(t, "core", "core.WorstOf", func() (core.Plan, error) { return core.WorstOf(5, 24, ocfg, r.Split("worst")) })
	if err != nil {
		return nil, nil, err
	}
	best := core.PaperOffsets()[:5]
	bestData := call(t, "core", "core.PeakCDF", func() []float64 { return core.PeakCDF(best, 300, 2048, r.Split("best-cdf")) })
	worstData := call(t, "core", "core.PeakCDF", func() []float64 { return core.PeakCDF(worst.Offsets, 300, 2048, r.Split("worst-cdf")) })
	bestCDF, err := stats.NewCDF(bestData)
	if err != nil {
		return nil, nil, err
	}
	worstCDF, err := stats.NewCDF(worstData)
	if err != nil {
		return nil, nil, err
	}
	res := engine.NewResult("fig6", "", engine.Col("power gain", ""), engine.Col("CDF best set", ""), engine.Col("CDF worst set", ""))
	for g := 8.0; g <= 25.0; g += 1.0 {
		res.AddRow(engine.Number("%.0f", g), engine.Number("%.3f", bestCDF.At(g)), engine.Number("%.3f", worstCDF.At(g)))
	}
	fig6 = res.TextRows()

	r = rng.New(seed)
	ocfg = core.DefaultOptimizerConfig()
	ocfg.Trials, ocfg.SamplesPerTrial, ocfg.Restarts, ocfg.StepsPerRestart = 12, 1024, 2, 16
	res = engine.NewResult("freqopt", "", engine.Col("N", ""), engine.Col("optimized Δf", "Hz"),
		engine.Col("E[peak]/N", ""), engine.Col("RMS", "Hz"), engine.Col("limit", "Hz"))
	for _, n := range []int{3, 5} {
		plan, err := call2(t, "core", "core.Optimize", func() (core.Plan, error) {
			return core.Optimize(n, ocfg, r.Split(fmt.Sprintf("opt-%d", n)))
		})
		if err != nil {
			return nil, nil, err
		}
		res.AddRow(engine.Int(n), engine.List(plan.Offsets), engine.Number("%.3f", plan.Score/float64(n)),
			engine.Number("%.1f", plan.RMS), engine.Number("%.1f", plan.Limit))
	}
	return fig6, res.TextRows(), nil
}

// Population trial: population and adaptiveq (Quick). The constants are
// the experiments' own.
const (
	popAntennas     = 8
	popShadowDB     = 4.0
	popCaptureRatio = 2.0
	popTargetSNR    = 1.2
	popRounds       = 4
)

type popTrial struct {
	Read, Total         int
	Slots, Commands     int
	Singles, Captures   int
	Collisions, Empties int
	QueryAdjusts        int
	Fairness            float64
	FinalQ              float64
}

func popTrialRun(t *tracer, n int, initialQ byte, floating bool, maxRounds, maxCommands int, r *rng.Rand) (popTrial, error) {
	res := popTrial{Total: n}
	p, err := call2(t, "scenario", "scenario.Swine.Realize", func() (*scenario.Placement, error) {
		return scenario.NewSwine(scenario.Subcutaneous).Realize(popAntennas, r.Split("placement"))
	})
	if err != nil {
		return res, err
	}
	lk, err := call2(t, "link", "link.ForTrial", func() (*link.Link, error) { return link.ForTrial(p, popAntennas, nil, r) })
	if err != nil {
		return res, err
	}
	t.count("phasor.link_scans", 1)
	base := call(t, "link", "link.Link.EventBudget", func() session.TagBudget { return lk.EventBudget(tag.StandardTag()) })
	if !(base.SNR > 0) {
		return res, fmt.Errorf("unusable base budget (snr %g)", base.SNR)
	}
	norm := popTargetSNR / base.SNR
	ec := call(t, "link", "link.Link.EventChannel", func() *session.EventChannel { return lk.EventChannel(nil) })
	ec.CaptureRatio = popCaptureRatio
	ec.Budgets = make([]session.TagBudget, n)
	shadow := r.Split("shadow")
	logics := make([]*gen2.TagLogic, n)
	for i := range logics {
		f := norm * math.Pow(10, shadow.NormFloat64()*popShadowDB/10)
		ec.Budgets[i] = session.TagBudget{SNR: base.SNR * f, RSSI: base.RSSI * f}
		tl, err := call2(t, "session", "gen2.NewTagLogic", func() (*gen2.TagLogic, error) {
			return gen2.NewTagLogic([]byte{0xE2, byte(i >> 8), byte(i), 0x20}, r.Split(fmt.Sprintf("tag-%d", i)))
		})
		if err != nil {
			return res, err
		}
		logics[i] = tl
	}
	ic := session.NewInventoryController(gen2.S0)
	ic.InitialQ = initialQ
	ic.MaxCommands = maxCommands
	ic.Channel = ec
	if floating {
		ic.Recovery = session.DefaultRecovery()
	}
	readRound := map[string]int{}
	roundR := r.Split("rounds")
	for round := 0; round < maxRounds && len(readRound) < n; round++ {
		rr := roundR.Split(fmt.Sprintf("round-%d", round))
		stats, err := call2(t, "session", "session.InventoryController.RunRound", func() (*session.RoundStats, error) {
			return ic.RunRound(logics, rr)
		})
		if err != nil {
			return res, err
		}
		t.count("session.slots", int64(stats.Slots))
		t.count("session.commands", int64(stats.Commands))
		t.count("session.useful_slots", int64(stats.Singles+stats.Captures))
		res.Slots += stats.Slots
		res.Commands += stats.Commands
		res.Singles += stats.Singles
		res.Captures += stats.Captures
		res.Collisions += stats.Collisions
		res.Empties += stats.Empties
		res.QueryAdjusts += stats.QueryAdjusts
		res.FinalQ = stats.FinalQ
		for _, e := range stats.EPCs {
			if _, ok := readRound[string(e)]; !ok {
				readRound[string(e)] = round + 1
			}
		}
	}
	res.Read = len(readRound)
	var sum, sumSq float64
	for _, tl := range logics {
		if k, ok := readRound[string(tl.EPC())]; ok && k > 0 {
			x := 1 / float64(k)
			sum += x
			sumSq += x * x
		}
	}
	if sumSq > 0 {
		res.Fairness = sum * sum / (float64(n) * sumSq)
	}
	return res, nil
}

// runPopulationDriver issues the population experiment's trials and
// returns its table rows as text.
func runPopulationDriver(t *tracer, seed uint64) ([][]string, error) {
	const trials = 2
	res := engine.NewResult("population", "",
		engine.Col("tags", ""), engine.Col("read", ""), engine.Col("slots/tag", ""), engine.Col("cmds/tag", ""),
		engine.Col("efficiency", ""), engine.Col("collision", ""), engine.Col("capture", ""), engine.Col("fairness", ""), engine.Col("incomplete", ""))
	for _, n := range []int{16, 256, 1000} {
		results, err := call2(t, "engine", "engine.TrialsCtx", func() ([]popTrial, error) {
			return engine.TrialsCtx(context.Background(), single, seed, fmt.Sprintf("population-%d", n), trials, func(i int, r *rng.Rand) (popTrial, error) {
				t.setTrial(i)
				return popTrialRun(t, n, 4, true, popRounds, 12*n+256, r)
			})
		})
		if err != nil {
			return nil, err
		}
		var read, total, slots, cmds, singles, captures, collisions, incomplete int
		var fairness float64
		for _, tr := range results {
			read += tr.Read
			total += tr.Total
			slots += tr.Slots
			cmds += tr.Commands
			singles += tr.Singles
			captures += tr.Captures
			collisions += tr.Collisions
			fairness += tr.Fairness
			if tr.Read < tr.Total {
				incomplete++
			}
		}
		res.AddRow(
			engine.Number("%d", float64(n)),
			engine.Tuple("%d/%d (%.1f%%)", float64(read), float64(total), 100*float64(read)/float64(total)),
			engine.Number("%.2f", float64(slots)/float64(total)),
			engine.Number("%.2f", float64(cmds)/float64(total)),
			engine.Number("%.3f", float64(singles+captures)/float64(slots)),
			engine.Number("%.3f", float64(collisions)/float64(slots)),
			engine.Number("%.3f", float64(captures)/float64(slots)),
			engine.Number("%.3f", fairness/float64(trials)),
			engine.Counts(incomplete, trials),
		)
	}
	return res.TextRows(), nil
}

// runAdaptiveQDriver issues the adaptiveq cells (one N=1000 trial each)
// and returns its table rows as text.
func runAdaptiveQDriver(t *tracer, seed uint64) ([][]string, error) {
	const n, trials = 1000, 1
	res := engine.NewResult("adaptiveq", "",
		engine.Col("policy", ""), engine.Col("Q0", ""), engine.Col("read", ""), engine.Col("cmds", ""), engine.Col("slots", ""),
		engine.Col("efficiency", ""), engine.Col("adjusts", ""), engine.Col("captures", ""), engine.Col("finalQ", ""))
	points := []struct {
		floating bool
		q0       byte
	}{{true, 0}, {true, 4}, {true, 10}, {true, 15}, {false, 4}, {false, 10}}
	for _, pt := range points {
		results, err := call2(t, "engine", "engine.TrialsCtx", func() ([]popTrial, error) {
			return engine.TrialsCtx(context.Background(), single, seed, "adaptiveq", trials, func(i int, r *rng.Rand) (popTrial, error) {
				t.setTrial(i)
				return popTrialRun(t, n, pt.q0, pt.floating, 2, 16384, r)
			})
		})
		if err != nil {
			return nil, err
		}
		var read, total, slots, cmds, singles, captures, adjusts int
		var finalQ float64
		for _, tr := range results {
			read += tr.Read
			total += tr.Total
			slots += tr.Slots
			cmds += tr.Commands
			singles += tr.Singles
			captures += tr.Captures
			adjusts += tr.QueryAdjusts
			finalQ += tr.FinalQ
		}
		policy := "schoute"
		if pt.floating {
			policy = "floating"
		}
		res.AddRow(
			engine.Str(policy),
			engine.Number("%d", float64(pt.q0)),
			engine.Tuple("%d/%d (%.1f%%)", float64(read), float64(total), 100*float64(read)/float64(total)),
			engine.Number("%.0f", float64(cmds)/float64(trials)),
			engine.Number("%.0f", float64(slots)/float64(trials)),
			engine.Number("%.3f", float64(singles+captures)/float64(slots)),
			engine.Number("%.1f", float64(adjusts)/float64(trials)),
			engine.Number("%.1f", float64(captures)/float64(trials)),
			engine.Number("%.1f", finalQ/float64(trials)),
		)
	}
	return res.TextRows(), nil
}

// Reference outcomes from the public entry points, for newBatchDrivers.

// refGains runs ivnsim.MeasureGains on the gain driver's streams.
func refGains(seed uint64) ([][]ivnsim.GainSample, error) {
	sc := gainScenario()
	var out [][]ivnsim.GainSample
	for n := 1; n <= gainMaxAntennas; n++ {
		got, err := engine.TrialsCtx(context.Background(), single, seed+uint64(n), gainLabel, gainTrials, func(_ int, r *rng.Rand) (ivnsim.GainSample, error) {
			return ivnsim.MeasureGains(sc, n, r)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, got)
	}
	return out, nil
}

// refComm runs ivnsim.RunCommTrial with waveform decode on the comm
// driver's streams.
func refComm(seed uint64) ([][]ivnsim.CommTrial, error) {
	var out [][]ivnsim.CommTrial
	for ci, c := range commCases() {
		got, err := engine.TrialsCtx(context.Background(), single, seed, fmt.Sprintf("invivo-%d", ci), commTrials, func(_ int, r *rng.Rand) (ivnsim.CommTrial, error) {
			return ivnsim.RunCommTrial(c.sc, commAntennas, c.model, ivnsim.CommOptions{Waveform: true}, r)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, got)
	}
	return out, nil
}

// equalOutcome returns an error naming the outcome when a driver's
// outcome differs from its reference.
func equalOutcome(what string, got, want any) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: driver outcome differs from the public entry point", what)
	}
	return nil
}
