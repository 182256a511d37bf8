package ivnsim

import (
	"fmt"

	"ivn/internal/baseline"
	"ivn/internal/core"
	"ivn/internal/engine"
	"ivn/internal/fault"
	"ivn/internal/gen2"
	"ivn/internal/link"
	"ivn/internal/reader"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/session"
	"ivn/internal/tag"
)

// Fault-matrix experiment: multi-sensor inventory under the deterministic
// fault layer, with and without the recovery stack. The paper's in-vivo
// evaluation (§6) lives in exactly this regime — brownouts as the CIB
// envelope peak drifts with subject motion, decode failures at deep-tissue
// SNR, collisions in multi-sensor inventory — so degradation curves and
// the recovery ablation are a committed, regression-checked artifact.

func init() {
	register(Experiment{
		ID:    "faultmatrix",
		Title: "Inventory success vs fault intensity, with and without link-layer recovery",
		Paper: "robustness ablation for the §6 degraded-channel regime (no direct figure)",
		Run:   runFaultMatrix,
	})
}

const (
	// faultTags is the sensor population per trial (the paper's
	// multi-sensor story, §3.7).
	faultTags = 6
	// faultRounds is the per-trial inventory round budget. Kept tight:
	// a stranded tag (EPC lost, inventoried flag flipped) stays lost
	// unless a brownout happens to reset it, and a generous budget would
	// let those rescues mask the no-recovery degradation being measured.
	faultRounds = 5
	// faultAntennas matches the prototype's 8-chain array.
	faultAntennas = 8
)

// FaultMatrixRow is one (scale, recovery) cell of the fault matrix,
// aggregated over trials.
type FaultMatrixRow struct {
	// Scale is the fault-intensity multiple of fault.DefaultConfig.
	Scale float64
	// Recovery reports whether the recovery stack was enabled.
	Recovery bool
	// Trials is the number of independent trials aggregated.
	Trials int
	// Inventoried counts trials that read the full population.
	Inventoried int
	// TagsRead / TagsTotal is the aggregate tag-read fraction.
	TagsRead, TagsTotal int
	// Rounds and Commands are totals across trials.
	Rounds, Commands int
	// ACKRetries and Recovered are the recovery stack's totals.
	ACKRetries, Recovered int
	// Truncated, Corrupted, Brownouts count injected faults observed.
	Truncated, Corrupted, Brownouts int
	// CaptureOK counts trials whose reader-side capture retry decoded;
	// CaptureAttempts is the total attempts spent.
	CaptureOK, CaptureAttempts int
}

// SuccessRate is the aggregate fraction of tags read.
func (r FaultMatrixRow) SuccessRate() float64 {
	if r.TagsTotal == 0 {
		return 0
	}
	return float64(r.TagsRead) / float64(r.TagsTotal)
}

// faultTrialResult is one trial's outcome. Fields are exported because
// journaled runs serialize samples to JSONL (the engine's round-trip
// guard rejects types whose fields cannot survive JSON).
type faultTrialResult struct {
	Read, Total                     int
	Rounds, Commands                int
	ACKRetries, Recovered           int
	Truncated, Corrupted, Brownouts int
	CaptureOK                       bool
	CaptureAttempts                 int
}

// roundChannel composes the injector's link faults with the physics-level
// power state: a tag whose rail is down (envelope peak faded this round)
// is dark regardless of the injector's brownout draw.
type roundChannel struct {
	inj  session.ChannelFault
	dark []bool
}

func (rc *roundChannel) CommandTruncated(cmd int) bool { return rc.inj.CommandTruncated(cmd) }

func (rc *roundChannel) TagPowered(cmd, tagIndex int) bool {
	return !rc.dark[tagIndex] && rc.inj.TagPowered(cmd, tagIndex)
}

func (rc *roundChannel) CorruptUplink(cmd int, bits gen2.Bits) (gen2.Bits, bool) {
	return rc.inj.CorruptUplink(cmd, bits)
}

// runFaultTrial runs one multi-sensor inventory under fault injection.
// The rng stream and injector seed derive identically for both recovery
// variants (the caller excludes `recovery` from the stream label), so the
// ablation is paired: both variants face the same placement, the same PLL
// phases, and the same fault schedule. A non-nil tr observes the
// inventory rounds.
func runFaultTrial(scale float64, recovery bool, tr *session.Trace, r *rng.Rand) (faultTrialResult, error) {
	res := faultTrialResult{Total: faultTags}
	p, err := scenario.NewSwine(scenario.Subcutaneous).Realize(faultAntennas, r.Split("placement"))
	if err != nil {
		return res, err
	}
	g := p.Geometry()
	chans := link.DownlinkCoeffs(p, g.CIBFreq)
	ccfg := core.DefaultConfig()
	ccfg.Antennas = faultAntennas
	ccfg.CenterFreq = g.CIBFreq
	bf, err := core.New(ccfg, r.Split("cib"))
	if err != nil {
		return res, err
	}
	inj := fault.NewInjector(fault.DefaultConfig().Scale(scale), r.Split("fault").Uint64())

	model := tag.StandardTag()
	tags := make([]*tag.Tag, faultTags)
	logics := make([]*gen2.TagLogic, faultTags)
	var tagRand rng.Rand
	for i := range tags {
		epc := []byte{0xE2, 0x00, byte(i), 0x10}
		r.SplitInto(&tagRand, fmt.Sprintf("tag-%d", i))
		tg, err := tag.New(model, epc, &tagRand)
		if err != nil {
			return res, err
		}
		tg.Fault = inj.PowerFault(i)
		tags[i] = tg
		logics[i] = tg.Logic
	}

	ic := session.NewInventoryController(gen2.S0)
	rc := &roundChannel{inj: inj, dark: make([]bool, faultTags)}
	ic.Fault = rc
	ic.Trace = tr
	if recovery {
		ic.Recovery = session.DefaultRecovery()
	}

	seen := map[string]bool{}
	roundR := r.Split("rounds")
	for round := 0; round < faultRounds && len(seen) < faultTags; round++ {
		// Physics: this round's carrier set after antenna dropout / PLL
		// re-lock faults, then the envelope peak each sensor harvests.
		carriers := bf.Array.PerturbedCarriers(inj.CarrierFault(round))
		peak, err := baseline.PeakReceivedPowerRefined(carriers, chans, link.ScanDuration, link.ScanCoarse, link.ScanSamples)
		if err != nil {
			return res, err
		}
		for i, tg := range tags {
			tg.UpdatePowerAt(round, peak)
			rc.dark[i] = !tg.Powered()
		}
		stats, err := ic.RunRound(logics, roundR.Split(fmt.Sprintf("round-%d", round)))
		if err != nil {
			return res, err
		}
		res.Rounds++
		res.Commands += stats.Commands
		res.ACKRetries += stats.ACKRetries
		res.Recovered += stats.Recovered
		res.Truncated += stats.Truncated
		res.Corrupted += stats.Corrupted
		res.Brownouts += stats.Brownouts
		for _, epc := range stats.EPCs {
			seen[string(epc)] = true
		}
	}
	res.Read = len(seen)

	// Reader-side capture retry sub-measurement: one RN16 uplink decode
	// through the out-of-band reader with the injector corrupting captures
	// and the retry budget (recovery only) re-capturing.
	var probeRand rng.Rand
	r.SplitInto(&probeRand, "probe")
	probe, err := tag.New(model, []byte{0xE2, 0x00, 0xFF, 0x10}, &probeRand)
	if err != nil {
		return res, err
	}
	probe.UpdatePower(probe.Model.MinPeakPower() * 2)
	reply := probe.HandleCommand(&gen2.Query{Q: 0})
	rd := reader.New()
	rd.PhaseDriftPerPeriod = p.UplinkPhaseDriftPerPeriod
	bs, err := probe.BackscatterWaveform(reply, rd.SamplesPerHalfBit)
	if err != nil {
		return res, err
	}
	retries := 0
	if recovery {
		retries = 2
	}
	rr, err := rd.DecodeUplinkWithRetry(0, retries, inj, bs, link.RoundTrip(rd, p, model), nil, len(reply.Bits), r.Split("capture"))
	if err != nil {
		return res, err
	}
	res.CaptureOK = rr.Succeeded()
	res.CaptureAttempts = len(rr.Attempts)
	return res, nil
}

// FaultMatrixSummary computes the fault matrix: for each intensity scale,
// a paired pair of rows (recovery on / off) aggregated over cfg trials.
// Identical configs produce identical summaries at any GOMAXPROCS.
func FaultMatrixSummary(cfg Config) ([]FaultMatrixRow, error) {
	scales := cfg.FaultScales
	if len(scales) == 0 {
		scales = fault.DefaultScales()
	}
	trials := cfg.trials(16, 4)
	var rows []FaultMatrixRow
	for _, scale := range scales {
		for _, recovery := range []bool{true, false} {
			row := FaultMatrixRow{Scale: scale, Recovery: recovery, Trials: trials}
			// The stream label excludes `recovery`, pairing the variants:
			// same placements, same fault schedules, different protocol.
			// The span key includes it: each variant's trial is its own
			// exchange.
			label := fmt.Sprintf("fault-%g", scale)
			rec := recovery
			variant := "off"
			if rec {
				variant = "on"
			}
			results, err := engine.TrialsCtx(cfg.Context(), cfg.Limits, cfg.Seed, label, trials, func(trial int, r *rng.Rand) (faultTrialResult, error) {
				var tr *session.Trace
				if cfg.Trace != nil {
					span, commit := cfg.Trace.Span(fmt.Sprintf("faultmatrix-%g-%s/%04d", scale, variant, trial))
					defer commit()
					tr = span
				}
				return runFaultTrial(scale, rec, tr, r)
			})
			if err != nil {
				return nil, err
			}
			for _, tr := range results {
				if tr.Read == tr.Total {
					row.Inventoried++
				}
				row.TagsRead += tr.Read
				row.TagsTotal += tr.Total
				row.Rounds += tr.Rounds
				row.Commands += tr.Commands
				row.ACKRetries += tr.ACKRetries
				row.Recovered += tr.Recovered
				row.Truncated += tr.Truncated
				row.Corrupted += tr.Corrupted
				row.Brownouts += tr.Brownouts
				if tr.CaptureOK {
					row.CaptureOK++
				}
				row.CaptureAttempts += tr.CaptureAttempts
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runFaultMatrix(cfg Config) (*engine.Result, error) {
	rows, err := FaultMatrixSummary(cfg)
	if err != nil {
		return nil, err
	}
	res := engine.NewResult("faultmatrix", "Multi-sensor inventory under injected faults (subcutaneous swine, 8-antenna CIB)",
		engine.Col("scale", ""), engine.Col("recovery", ""), engine.Col("inventoried", ""), engine.Col("tags read", ""),
		engine.Col("avg rounds", ""), engine.Col("avg cmds", ""), engine.Col("reACK/rec", ""), engine.Col("faults t/c/b", ""), engine.Col("capture", ""))
	for _, row := range rows {
		rec := "off"
		if row.Recovery {
			rec = "on"
		}
		res.AddRow(
			engine.Number("%g", row.Scale),
			engine.Str(rec),
			engine.Counts(row.Inventoried, row.Trials),
			engine.Tuple("%d/%d (%.1f%%)", float64(row.TagsRead), float64(row.TagsTotal), 100*row.SuccessRate()),
			engine.Number("%.1f", float64(row.Rounds)/float64(row.Trials)),
			engine.Number("%.0f", float64(row.Commands)/float64(row.Trials)),
			engine.Counts(row.ACKRetries, row.Recovered),
			engine.Counts(row.Truncated, row.Corrupted, row.Brownouts),
			engine.Tuple("%d/%d (%d att)", float64(row.CaptureOK), float64(row.Trials), float64(row.CaptureAttempts)),
		)
	}
	res.AddNote("scale multiplies every rate of the default fault config (0 = fault-free baseline)")
	res.AddNote("paired ablation: recovery on/off variants share placements, PLL phases and fault schedules")
	res.AddNote("faults t/c/b = command truncations / corrupted uplinks / observed brownouts")
	res.AddNote("capture = reader-side decode-with-retry sub-measurement (budget 2 with recovery, 0 without)")
	return res, nil
}
