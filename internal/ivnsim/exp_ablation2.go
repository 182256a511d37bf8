package ivnsim

import (
	"fmt"
	"math"

	"ivn/internal/baseline"
	"ivn/internal/core"
	"ivn/internal/em"
	"ivn/internal/engine"
	"ivn/internal/link"
	"ivn/internal/reader"
	"ivn/internal/rng"
	"ivn/internal/safety"
	"ivn/internal/scenario"
	"ivn/internal/stats"
)

// Second ablation group: exposure safety, oscillator imperfections,
// center-frequency hopping, and multipath robustness.

func init() {
	register(Experiment{
		ID:    "ablation-safety",
		Title: "RF exposure: duty-cycled CIB vs a peak-equivalent continuous transmitter",
		Paper: "§7: CIB's intrinsic duty cycling makes it FCC compliant and safe for human exposure",
		Run:   runAblationSafety,
	})
	register(Experiment{
		ID:    "ablation-freqerror",
		Title: "CIB robustness to per-carrier frequency error",
		Paper: "§5: USRPs cannot stably generate small offsets, so the prototype soft-codes them; errors break the 1 s peak periodicity",
		Run:   runAblationFreqError,
	})
	register(Experiment{
		ID:    "ablation-hopping",
		Title: "Center-frequency hopping out of a deep frequency-selective fade",
		Paper: "§3.7: an extension may adaptively hop the center frequency to a different band",
		Run:   runAblationHopping,
	})
	register(Experiment{
		ID:    "ablation-phasenoise",
		Title: "Coherent averaging vs reader-link phase drift",
		Paper: "§5: the USRPs share a CDA-2900 reference; a free-running link would forfeit the 1 s averaging gain",
		Run:   runAblationPhaseNoise,
	})
	register(Experiment{
		ID:    "ablation-multipath",
		Title: "CIB gain vs multipath richness",
		Paper: "§3.7: CIB's design is inherently robust to phase changes caused by multipath",
		Run:   runAblationMultipath,
	})
}

func runAblationSafety(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-safety", "Surface exposure at 0.35 m, 10-chain CIB vs peak-equivalent CW",
		engine.Col("transmitter", ""), engine.Col("avg SAR", "W/kg"), engine.Col("peak SAR", "W/kg"), engine.Col("compliant (1.6 W/kg avg)", ""))
	r := rng.New(cfg.Seed)
	bcfg := core.DefaultConfig()
	bf, err := core.New(bcfg, r)
	if err != nil {
		return nil, err
	}
	// Duty-cycle profile of the actual plan.
	betas := make([]float64, bf.N())
	for i := range betas {
		if i > 0 {
			betas[i] = r.Phase()
		}
	}
	env := core.EnvelopeSeries(bf.Offsets, betas, 0, 1.0/8192, 8192, nil)
	dc, err := safety.AnalyzeEnvelope(env)
	if err != nil {
		return nil, err
	}
	g := math.Pow(10, 7.0/20)
	const dist = 0.35
	cib, err := safety.EvaluateSurface(bf.Carriers(), g, dist, em.Skin, math.Sqrt(dc.PAPR), 915e6)
	if err != nil {
		return nil, err
	}
	res.AddRow(engine.Str("10-chain CIB (duty-cycled)"),
		engine.Number("%.3f", cib.AverageSAR),
		engine.Number("%.3f", cib.PeakSAR),
		engine.Bool(cib.Compliant()))

	// A continuous transmitter matching CIB's deliverable peak must run
	// PAPR× hotter on average.
	cwAvg := cib.AverageSAR * dc.PAPR
	res.AddRow(engine.Str("CW matching CIB's peak"),
		engine.Number("%.3f", cwAvg),
		engine.Number("%.3f", cwAvg),
		engine.Bool(cwAvg <= safety.SARLimitWkg))

	eirp := safety.EIRPdBm(bf.Carriers(), 7)
	res.AddNote("CIB envelope PAPR %.1f, %.1f%% of time within 3 dB of peak", dc.PAPR, dc.FractionNearPeak*100)
	res.AddNote("per-chain EIRP %.1f dBm (FCC §15.247 limit %.0f dBm; compliant at 6 dBi antennas or 1 dB backoff)",
		eirp, safety.FCCMaxEIRPdBm)
	return res, nil
}

// freqErrorSample is one frequency-error trial: the 1 s envelope peak and
// its recurrence ratio 10 periods later. Exported fields: journaled runs
// serialize samples to JSONL.
type freqErrorSample struct {
	Peak, Recur float64
}

func runAblationFreqError(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-freqerror", "Peak gain and 10-period peak recurrence vs per-carrier frequency error (10 carriers)",
		engine.Col("error σ", "Hz"), engine.Col("E[peak]/N", ""), engine.Col("peak recurrence after 10 s", ""))
	base := core.PaperOffsets()
	n := len(base)
	sweep := engine.Sweep[float64, freqErrorSample]{
		Trials: cfg.trials(40, 10),
		Plan: func(sigma float64) (uint64, string) {
			return cfg.Seed, fmt.Sprintf("fe-%v", sigma)
		},
		NewScratch: newPeakSeries,
		Measure: func(sigma float64, _, scratch any, _ int, r *rng.Rand) (freqErrorSample, error) {
			var s freqErrorSample
			offsets := make([]float64, n)
			for i, f := range base {
				if i == 0 {
					offsets[i] = f
					continue
				}
				offsets[i] = f + sigma*r.NormFloat64()
			}
			betas := make([]float64, n)
			for i := range betas {
				if i > 0 {
					betas[i] = r.Phase()
				}
			}
			// Peak over the nominal 1 s period.
			peak, tPeak := peakIndex(offsets, betas, scratch.(*[peakGrid]float64))
			s.Peak = peak
			// The cyclic-operation guarantee: with exact integer offsets
			// the same peak recurs at t+10 s; frequency error dephases it.
			s.Recur = core.Envelope(offsets, betas, tPeak+10) / peak
			return s, nil
		},
		Row: func(sigma float64, samples []freqErrorSample) ([]engine.Cell, error) {
			// Stream folds in index order: float addition is not associative,
			// so the reduction must not depend on scheduling.
			var peaks, recurs stats.Stream
			for _, s := range samples {
				peaks.Add(s.Peak)
				recurs.Add(s.Recur)
			}
			return []engine.Cell{
				engine.Number("%.2f", sigma),
				engine.Number("%.3f", peaks.Mean()/float64(n)),
				engine.Number("%.3f", recurs.Mean()),
			}, nil
		},
	}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, []float64{0, 0.05, 0.2, 0.5, 2, 10}); err != nil {
		return nil, err
	}
	res.AddNote("the peak amplitude itself is insensitive to offset error (CIB stays blind-channel-safe)")
	res.AddNote("but errors above ~0.05 Hz break the every-T-seconds peak schedule (§3.6 cyclic constraint) — why the prototype soft-codes offsets digitally instead of trusting PLL steps")
	return res, nil
}

func runAblationHopping(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-hopping", "Delivered peak power in a deep 915 MHz fade, fixed center vs hopped",
		engine.Col("strategy", ""), engine.Col("center", "MHz"), engine.Col("peak at sensor", "dBm"))
	r := rng.New(cfg.Seed)
	// Construct a channel with a strong echo that nulls 915 MHz: delay τ
	// with e^{-j2πfτ} = −1 at 915 MHz (τ = k/915e6 + 1/(2·915e6)).
	tau := 100.5 / 915e6
	ch := em.NewChannel(em.Path{AirDistance: 1})
	ch.TxGain = math.Pow(10, 7.0/20)
	ch.Rays = []em.Ray{{ExtraDelay: tau, Gain: complex(0.9, 0)}}

	measure := func(center float64) (float64, error) {
		bcfg := core.DefaultConfig()
		bcfg.CenterFreq = center
		bf, err := core.New(bcfg, r.Split(fmt.Sprintf("bf-%v", center)))
		if err != nil {
			return 0, err
		}
		chans := make([]complex128, bf.N())
		for i := range chans {
			chans[i] = ch.Coefficient(center)
		}
		return baseline.PeakReceivedPowerRefined(bf.Carriers(), chans, link.ScanDuration, link.ScanCoarse, link.ScanSamples)
	}

	fixed, err := measure(915e6)
	if err != nil {
		return nil, err
	}
	res.AddRow(engine.Str("fixed"), engine.Number("%.1f", 915.0), engine.Number("%.1f", 10*math.Log10(fixed)+30))

	// Hop: probe candidate ISM centers and move to the best.
	bcfg := core.DefaultConfig()
	bf, err := core.New(bcfg, r.Split("hopper"))
	if err != nil {
		return nil, err
	}
	candidates := []float64{903e6, 915e6, 927e6}
	best, err := bf.HopCenter(candidates, func(c float64) float64 {
		p, err := measure(c)
		if err != nil {
			return 0
		}
		return p
	})
	if err != nil {
		return nil, err
	}
	hopped, err := measure(best)
	if err != nil {
		return nil, err
	}
	res.AddRow(engine.Str("hopped"), engine.Number("%.1f", best/1e6), engine.Number("%.1f", 10*math.Log10(hopped)+30))
	res.AddNote("hop gain: %.1f dB out of the engineered fade", 10*math.Log10(hopped/fixed))
	_ = cfg
	return res, nil
}

func runAblationPhaseNoise(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-phasenoise", "Effective coherent-averaging gain and gastric decode vs phase drift (K=32)",
		engine.Col("drift", "rad²/period"), engine.Col("averaging gain retained", ""), engine.Col("gastric decodes", ""))
	trials := cfg.trials(20, 8)
	drifts := []float64{0, 0.05, 0.2, 0.5, 2}
	decoded, err := pairedUplink(cfg, "pn", trials, len(drifts), func(j int, rd *reader.Reader) string {
		rd.PhaseDriftPerPeriod = drifts[j]
		return "ul"
	})
	if err != nil {
		return nil, err
	}
	for j, drift := range drifts {
		res.AddRow(
			engine.Number("%.2f", drift),
			engine.Number("%.3f", reader.CoherentAveragingGain(32, drift)),
			engine.Counts(decoded[j], trials),
		)
	}
	res.AddNote("drift 0 models the shared Octoclock reference; free-running oscillators forfeit most of the K=32 averaging gain")
	return res, nil
}

// multipathPoint is one multipath sweep point: a named profile and its
// position in the sweep (which seeds its trial streams).
type multipathPoint struct {
	index int
	name  string
	mp    em.MultipathProfile
}

func runAblationMultipath(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-multipath", "10-antenna CIB gain vs multipath richness (water tank)",
		engine.Col("environment", ""), engine.Col("median gain", ""), engine.Col("p10", ""), engine.Col("p90", ""))
	sweep := engine.Sweep[multipathPoint, GainSample]{
		Trials: cfg.trials(80, 20),
		Plan: func(p multipathPoint) (uint64, string) {
			return cfg.Seed + uint64(p.index*997), "gain-trial"
		},
		// The point's tank is built once and shared read-only across its
		// parallel trials.
		Prepare: func(p multipathPoint) (any, error) {
			sc := scenario.NewTank(0.5, em.Water, 0.10)
			sc.Multipath = p.mp
			return sc, nil
		},
		NewScratch: newGainKit,
		Measure: func(_ multipathPoint, sc, scratch any, _ int, r *rng.Rand) (GainSample, error) {
			return scratch.(*gainKit).measure(sc.(scenario.Scenario), 10, nil, r)
		},
		Row: func(p multipathPoint, samples []GainSample) ([]engine.Cell, error) {
			sum, err := gainStats(samples, func(g GainSample) float64 { return g.CIB / g.Single })
			if err != nil {
				return nil, err
			}
			return []engine.Cell{
				engine.Str(p.name),
				engine.Number("%.1f", sum.Median),
				engine.Number("%.1f", sum.P10),
				engine.Number("%.1f", sum.P90),
			}, nil
		},
	}
	points := []multipathPoint{
		{0, "no multipath", em.MultipathProfile{}},
		{1, "line of sight", em.LOSProfile},
		{2, "indoor", em.DefaultIndoorProfile},
		{3, "rich scattering", em.RichProfile},
	}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, points); err != nil {
		return nil, err
	}
	res.AddNote("the median CIB gain holds across environments; richer scattering widens the distribution without destroying the gain (§3.7 robustness)")
	return res, nil
}
