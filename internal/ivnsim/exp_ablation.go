package ivnsim

import (
	"fmt"
	"math"

	"ivn/internal/baseline"
	"ivn/internal/core"
	"ivn/internal/em"
	"ivn/internal/engine"
	"ivn/internal/gen2"
	"ivn/internal/link"
	"ivn/internal/radio"
	"ivn/internal/reader"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/stats"
	"ivn/internal/tag"
)

// Ablation experiments for the design choices DESIGN.md calls out.

func init() {
	register(Experiment{
		ID:    "ablation-coherent",
		Title: "Oracle coherent beamforming vs CIB vs blind baseline, air vs tissue",
		Paper: "footnote 5: coherent beamforming beats the baseline only in air; through other media the difference is negligible — and it needs channel feedback CIB does not",
		Run:   runAblationCoherent,
	})
	register(Experiment{
		ID:    "ablation-equalpower",
		Title: "CIB under a fixed total power budget (1/√N per-antenna scaling)",
		Paper: "§3.4: equal-budget CIB still yields an N× peak power gain",
		Run:   runAblationEqualPower,
	})
	register(Experiment{
		ID:    "ablation-twostage",
		Title: "Two-stage CIB: discovery (peak) vs steady (conduction-angle) plans",
		Paper: "§3.7: with attenuation known, optimizing time-above-threshold transfers more energy",
		Run:   runAblationTwoStage,
	})
	register(Experiment{
		ID:    "ablation-flatness",
		Title: "Downlink decode success vs RMS frequency offset (Eq. 9 cliff)",
		Paper: "RMS offsets beyond ≈199 Hz corrupt an 800 µs query's envelope",
		Run:   runAblationFlatness,
	})
	register(Experiment{
		ID:    "ablation-averaging",
		Title: "Uplink decode success vs coherent averaging periods",
		Paper: "§5b: 1 s coherent averaging is what makes deep-tissue uplinks decodable",
		Run:   runAblationAveraging,
	})
	register(Experiment{
		ID:    "ablation-outofband",
		Title: "In-band vs out-of-band reader under CIB self-jamming",
		Paper: "§4: the in-band receiver saturates; the out-of-band SAW-filtered receiver does not",
		Run:   runAblationOutOfBand,
	})
}

func runAblationCoherent(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-coherent", "Median peak power gain over a single antenna (10 antennas)",
		engine.Col("medium", ""), engine.Col("CIB (blind)", ""), engine.Col("oracle MRT", ""), engine.Col("blind array", ""))
	sweep := engine.Sweep[scenario.Scenario, GainSample]{
		Trials: cfg.trials(80, 20),
		Plan: func(scenario.Scenario) (uint64, string) {
			// Every medium reuses the same streams: RunGainTrialsCtx's
			// seeding, kept for byte-identical tables.
			return cfg.Seed, "gain-trial"
		},
		NewScratch: newGainKit,
		Measure: func(sc scenario.Scenario, _, scratch any, _ int, r *rng.Rand) (GainSample, error) {
			return scratch.(*gainKit).measure(sc, 10, nil, r)
		},
		Row: func(sc scenario.Scenario, samples []GainSample) ([]engine.Cell, error) {
			cib, err := gainStats(samples, func(g GainSample) float64 { return g.CIB / g.Single })
			if err != nil {
				return nil, err
			}
			mrt, err := gainStats(samples, func(g GainSample) float64 { return g.MRT / g.Single })
			if err != nil {
				return nil, err
			}
			blind, err := gainStats(samples, func(g GainSample) float64 { return g.Blind / g.Single })
			if err != nil {
				return nil, err
			}
			return []engine.Cell{
				engine.Str(sc.Name()),
				engine.Number("%.1f", cib.Median),
				engine.Number("%.1f", mrt.Median),
				engine.Number("%.1f", blind.Median),
			}, nil
		},
	}
	err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, []scenario.Scenario{
		scenario.NewAir(3),
		scenario.NewTank(0.5, em.Water, 0.10),
		scenario.NewTank(0.5, em.Muscle, 0.05),
	})
	if err != nil {
		return nil, err
	}
	res.AddNote("oracle MRT needs per-antenna channel feedback — unobtainable from an unpowered implant")
	res.AddNote("CIB reaches a large fraction of the oracle gain with zero channel knowledge")
	return res, nil
}

// equalPowerSample is one equal-budget trial: gains under the fixed total
// budget and under the N-chain budget, against the same placement.
// Exported fields: journaled runs serialize samples to JSONL.
type equalPowerSample struct {
	Eq, Full float64
}

func runAblationEqualPower(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-equalpower", "CIB peak power gain with total power fixed to one chain's budget",
		engine.Col("antennas", ""), engine.Col("median gain (equal budget)", ""), engine.Col("median gain (N× budget)", ""))
	sc := scenario.NewTank(0.5, em.Water, 0.10)
	sweep := engine.Sweep[int, equalPowerSample]{
		Trials: cfg.trials(80, 20),
		Plan: func(n int) (uint64, string) {
			return cfg.Seed, fmt.Sprintf("eqp-%d", n)
		},
		NewScratch: newGainKit,
		// Draw order: placement draws, then the link's "cib" split + PLL
		// locks.
		Measure: func(n int, _, scratch any, _ int, r *rng.Rand) (equalPowerSample, error) {
			var s equalPowerSample
			k := scratch.(*gainKit)
			lk, err := k.realize(sc, n, nil, r)
			if err != nil {
				return s, err
			}
			pe, err := baseline.PeakReceivedPowerRefined(lk.Beamformer.EqualPowerCarriers(), lk.Downlink(), link.ScanDuration, link.ScanCoarse, link.ScanSamples)
			if err != nil {
				return s, err
			}
			ps, err := k.singlePeak(lk)
			if err != nil {
				return s, err
			}
			s.Eq = pe / ps
			s.Full = lk.PeakPower() / ps
			return s, nil
		},
		Row: func(n int, samples []equalPowerSample) ([]engine.Cell, error) {
			eq := make([]float64, len(samples))
			full := make([]float64, len(samples))
			for i, s := range samples {
				eq[i] = s.Eq
				full[i] = s.Full
			}
			se, err := stats.Summarize(eq)
			if err != nil {
				return nil, err
			}
			sf, err := stats.Summarize(full)
			if err != nil {
				return nil, err
			}
			return []engine.Cell{
				engine.Int(n),
				engine.Number("%.1f", se.Median),
				engine.Number("%.1f", sf.Median),
			}, nil
		},
	}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, []int{2, 4, 8, 10}); err != nil {
		return nil, err
	}
	res.AddNote("equal-budget gain tracks ≈N (paper §3.4); the N× budget adds another factor of N")
	return res, nil
}

func runAblationTwoStage(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-twostage", "Discovery (peak-optimized) vs steady (dwell-optimized) plans, N=5",
		engine.Col("plan", ""), engine.Col("offsets", "Hz"), engine.Col("E[peak]/N", ""), engine.Col("E[dwell above 0.45N]", "ms"))
	r := rng.New(cfg.Seed)
	ocfg := core.DefaultOptimizerConfig()
	if cfg.Quick {
		ocfg.Trials, ocfg.SamplesPerTrial, ocfg.Restarts, ocfg.StepsPerRestart = 12, 1024, 2, 16
	}
	const n, rho = 5, 0.45
	discovery, err := core.Optimize(n, ocfg, r.Split("disc"))
	if err != nil {
		return nil, err
	}
	steady, err := core.OptimizeConductionAngle(n, rho, ocfg, r.Split("steady"))
	if err != nil {
		return nil, err
	}
	evalPeak := func(offs []float64) float64 {
		return core.ExpectedPeak(offs, 60, 4096, rng.New(cfg.Seed+101))
	}
	evalDwell := func(offs []float64) float64 {
		return core.ExpectedDwellTime(offs, rho*n, 60, 8192, rng.New(cfg.Seed+102))
	}
	for _, row := range []struct {
		name string
		plan core.Plan
	}{{"discovery", discovery}, {"steady", steady}} {
		res.AddRow(
			engine.Str(row.name),
			engine.List(row.plan.Offsets),
			engine.Number("%.3f", evalPeak(row.plan.Offsets)/n),
			engine.Number("%.2f", evalDwell(row.plan.Offsets)*1e3),
		)
	}
	res.AddNote("the steady plan holds the envelope above the (now known) threshold for longer contiguous bursts, trading peak height for charge time (§3.7)")
	return res, nil
}

// flatnessSample is one flatness trial: whether the query decoded and the
// worst high-level envelope fluctuation observed. Exported fields:
// journaled runs serialize samples to JSONL.
type flatnessSample struct {
	Decoded bool
	Fluct   float64
}

func runAblationFlatness(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-flatness", "Query decode success vs plan RMS offset (tag envelope detector)",
		engine.Col("RMS Δf", "Hz"), engine.Col("decode success", ""), engine.Col("envelope fluctuation α", ""))
	trials := cfg.trials(40, 10)
	pie := gen2.DefaultPIE(1e6)
	q := &gen2.Query{Q: 4}
	bits := q.AppendBits(nil)
	baseEnv, err := pie.EncodeFrame(bits, true)
	if err != nil {
		return nil, err
	}
	// Extend with CW so the decoder sees the frame end.
	env := append(append([]float64(nil), baseEnv...), ones(2000)...)
	// Candidate plans with growing RMS: scaled versions of the paper set.
	sweep := engine.Sweep[float64, flatnessSample]{
		Trials: trials,
		Plan: func(scale float64) (uint64, string) {
			return cfg.Seed, fmt.Sprintf("flat-%v", scale)
		},
		NewScratch: newPeakSeries,
		Measure: func(scale float64, _, scratch any, _ int, r *rng.Rand) (flatnessSample, error) {
			var s flatnessSample
			offsets := make([]float64, 10)
			for i, f := range core.PaperOffsets() {
				offsets[i] = f * scale
			}
			betas := make([]float64, len(offsets))
			for i := range betas {
				if i > 0 {
					betas[i] = r.Phase()
				}
			}
			// Align the envelope peak with the command start (the beamformer
			// times commands near peaks); sample the beat envelope across
			// the frame, one point per PIE sample, into the series buffer
			// peakIndex is done with (the frame is shorter than peakGrid).
			buf := scratch.(*[peakGrid]float64)
			_, peakT := peakIndex(offsets, betas, buf)
			combined := core.EnvelopeSeries(offsets, betas, peakT, 1/pie.SampleRate, len(env), buf[:0])
			var lo, hi float64 = math.Inf(1), 0
			for k, b := range combined {
				combined[k] = env[k] * b
				if env[k] > 0.5 { // measure fluctuation on the high level only
					lo = math.Min(lo, b)
					hi = math.Max(hi, b)
				}
			}
			if hi > 0 {
				s.Fluct = (hi - lo) / hi
			}
			got, _, err := pie.DecodeFrame(combined)
			s.Decoded = err == nil && got.Equal(bits)
			return s, nil
		},
		Row: func(scale float64, samples []flatnessSample) ([]engine.Cell, error) {
			offsets := make([]float64, 10)
			for i, f := range core.PaperOffsets() {
				offsets[i] = f * scale
			}
			ok := 0
			var worstFluct float64
			for _, s := range samples {
				if s.Decoded {
					ok++
				}
				worstFluct = math.Max(worstFluct, s.Fluct)
			}
			return []engine.Cell{
				engine.Number("%.0f", core.RMSOffset(offsets)),
				engine.Counts(ok, trials),
				engine.Number("%.2f", worstFluct),
			}, nil
		},
	}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, []float64{0.5, 1, 2, 4, 8, 16}); err != nil {
		return nil, err
	}
	res.AddNote("the Eq. 9 limit for this 1.06 ms query is %.0f Hz; success collapses beyond it", mustLimitFor(pie, bits))
	return res, nil
}

func mustLimitFor(pie gen2.PIEParams, bits gen2.Bits) float64 {
	l, err := core.FlatnessLimit(core.DefaultFlatnessAlpha, pie.FrameDuration(bits, true))
	if err != nil {
		panic(err)
	}
	return l
}

// peakGrid is the number of points peakIndex samples one 1 s envelope
// period at.
const peakGrid = 4096

// newPeakSeries makes the per-worker scratch of the sweeps that call
// peakIndex: one series buffer of peakGrid points.
func newPeakSeries() any { return new([peakGrid]float64) }

// peakIndex samples the envelope of one 1 s period into buf and returns
// its maximum and the first time at which it occurs.
func peakIndex(offsets, betas []float64, buf *[peakGrid]float64) (float64, float64) {
	series := core.EnvelopeSeries(offsets, betas, 0, 1.0/peakGrid, peakGrid, buf[:])
	best, bestK := 0.0, 0
	for k, y := range series {
		if y > best {
			best, bestK = y, k
		}
	}
	return best, float64(bestK) / peakGrid
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func runAblationAveraging(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-averaging", "Gastric uplink decode success vs coherent averaging periods",
		engine.Col("averaging periods K", ""), engine.Col("decoded", ""))
	trials := cfg.trials(20, 8)
	ks := []int{1, 2, 4, 8, 16, 32, 64}
	decoded, err := pairedUplink(cfg, "avg", trials, len(ks), func(j int, rd *reader.Reader) string {
		rd.AveragingPeriods = ks[j]
		return fmt.Sprintf("ul-%d", ks[j])
	})
	if err != nil {
		return nil, err
	}
	for j, k := range ks {
		res.AddRow(engine.Int(k), engine.Counts(decoded[j], trials))
	}
	res.AddNote("identical placements across rows; only the averaging depth changes")
	return res, nil
}

// pairedUplink runs the trials of a paired uplink ablation in one engine
// call on label: each trial realizes one gastric standard-tag session
// and decodes its RN16 once per row. row(j, rd) sets up row j's reader
// and returns its decode label; it runs on each worker, so it must write
// no shared state. It returns each row's decode count.
func pairedUplink(cfg Config, label string, trials, rows int, row func(j int, rd *reader.Reader) string) ([]int, error) {
	sc := scenario.NewSwine(scenario.Gastric)
	model := tag.StandardTag()
	scratches := engine.NewScratches(func() any {
		k := &pairedKit{readers: make([]*reader.Reader, rows), labels: make([]string, rows)}
		for j := range k.readers {
			k.readers[j] = reader.New()
			// Weaken the reader transmit power so the uplink SNR — not
			// power-up — is the binding constraint the rows expose.
			k.readers[j].TxAmplitude = 0.2
			k.labels[j] = row(j, k.readers[j])
		}
		return k
	})
	samples, err := engine.TrialsScratchCtx(cfg.Context(), cfg.Limits, cfg.Seed, label, trials, scratches, func(_ int, scratch any, r *rng.Rand) ([]bool, error) {
		return scratch.(*pairedKit).decodes(sc, model, r)
	})
	if err != nil {
		return nil, err
	}
	counts := make([]int, rows)
	for _, decoded := range samples {
		// A shard fragment leaves the trials it does not own nil.
		for j, ok := range decoded {
			if ok {
				counts[j]++
			}
		}
	}
	return counts, nil
}

func runAblationOutOfBand(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-outofband", "Reader architecture under CIB self-jamming (10 chains at 30 dBm)",
		engine.Col("reader", ""), engine.Col("saturated", ""), engine.Col("effective interference", "dBm"), engine.Col("decode possible", ""))
	r := rng.New(cfg.Seed)
	p, err := scenario.NewTank(0.5, em.Water, 0.10).Realize(10, r)
	if err != nil {
		return nil, err
	}
	// The paper's 10 chains, locked after the placement draws; nothing
	// draws after them.
	bf, err := core.New(core.DefaultConfig(), r.Split("cib"))
	if err != nil {
		return nil, err
	}
	model := tag.StandardTag()
	var lk link.Link
	for _, row := range []struct {
		name   string
		center float64 //ivn:unit Hz
	}{
		{"in-band (915 MHz)", 915e6},
		{"out-of-band (880 MHz)", 880e6},
	} {
		rd := reader.New()
		rd.TxFreq = row.center
		rd.RX = radio.NewReceiver(row.center)
		if err := link.RealizeInto(&lk, bf, rd, p, nil); err != nil {
			return nil, err
		}
		res.AddRow(
			engine.Str(row.name),
			engine.Bool(rd.RX.Saturated(lk.Jam())),
			engine.Number("%.1f", 10*math.Log10(rd.RX.EffectiveInterference(lk.Jam()))+30),
			engine.Bool(lk.DecodableRN16(model)),
		)
	}
	res.AddNote("CIB leak at the reader antenna: %.1f dBm", 10*math.Log10(lk.Jam()[0].Power)+30)
	return res, nil
}
