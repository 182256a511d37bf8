package ivnsim

import (
	"math"

	"ivn/internal/em"
	"ivn/internal/engine"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/stats"
)

// Power-gain experiments: Figs. 9-12, declared as engine sweeps.

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Peak power gain vs number of antennas (water tank)",
		Paper: "monotone growth, up to ≈85x at 10 antennas, below the N²=100 optimum",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10a",
		Title: "Power gain vs depth in water (10 antennas)",
		Paper: "flat ≈80x across 0-20 cm depth (absolute power still falls with depth)",
		Run:   runFig10a,
	})
	register(Experiment{
		ID:    "fig10b",
		Title: "Power gain vs tag orientation (10 antennas)",
		Paper: "flat across orientation",
		Run:   runFig10b,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Median power gain across media: CIB vs 10-antenna baseline",
		Paper: "CIB ≈80x in every medium; baseline ≈10x (pure power advantage)",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "CDF of CIB/baseline peak power ratio",
		Paper: ">99% of trials above 1x, median ≈8x, tail beyond 100x",
		Run:   runFig12,
	})
}

func gainStats(samples []GainSample, pick func(GainSample) float64) (stats.Summary, error) {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = pick(s)
	}
	return stats.Summarize(xs)
}

// summaryCells renders the p10/median/p90 error-bar triple of a summary.
func summaryCells(s stats.Summary) []engine.Cell {
	return []engine.Cell{
		engine.Number("%.1f", s.P10),
		engine.Number("%.1f", s.Median),
		engine.Number("%.1f", s.P90),
	}
}

func runFig9(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("fig9", "Peak power gain (vs single antenna) by antenna count",
		engine.Col("antennas", ""), engine.Col("p10", ""), engine.Col("median", ""), engine.Col("p90", ""))
	trials := cfg.trials(150, 30)
	sc := scenario.NewTank(0.5, em.Water, 0.10)
	sweep := engine.Sweep[int, GainSample]{
		Trials: trials,
		Plan: func(n int) (uint64, string) {
			return cfg.Seed + uint64(n), "gain-trial"
		},
		// Batched path: the tank scenario is trial-invariant, and the
		// per-worker gain kits absorb the per-trial allocation floor.
		Prepare:    func(int) (any, error) { return sc, nil },
		NewScratch: newGainKit,
		Measure: func(n int, sc, scratch any, _ int, r *rng.Rand) (GainSample, error) {
			return scratch.(*gainKit).measure(sc.(scenario.Scenario), n, nil, r)
		},
		Row: func(n int, samples []GainSample) ([]engine.Cell, error) {
			s, err := gainStats(samples, func(g GainSample) float64 { return g.CIB / g.Single })
			if err != nil {
				return nil, err
			}
			return append([]engine.Cell{engine.Int(n)}, summaryCells(s)...), nil
		},
	}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		return nil, err
	}
	res.AddNote("%d trials per point; gain = CIB envelope peak / single-antenna peak at the same location", trials)
	return res, nil
}

func runFig10a(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("fig10a", "Power gain vs depth in water, 10-antenna CIB",
		engine.Col("depth", "cm"), engine.Col("p10", ""), engine.Col("median", ""), engine.Col("p90", ""), engine.Col("abs peak", "dBm"))
	base := scenario.NewTank(0.5, em.Water, 0)
	sweep := engine.Sweep[float64, GainSample]{
		Trials: cfg.trials(60, 15),
		Plan: func(d float64) (uint64, string) {
			return cfg.Seed + uint64(d*1000), "gain-trial"
		},
		// The depth-adjusted tank is built once per point (not per trial)
		// and shared read-only across the point's parallel trials.
		Prepare:    func(d float64) (any, error) { return base.WithDepth(d), nil },
		NewScratch: newGainKit,
		Measure: func(_ float64, sc, scratch any, _ int, r *rng.Rand) (GainSample, error) {
			return scratch.(*gainKit).measure(sc.(scenario.Scenario), 10, nil, r)
		},
		Row: func(d float64, samples []GainSample) ([]engine.Cell, error) {
			s, err := gainStats(samples, func(g GainSample) float64 { return g.CIB / g.Single })
			if err != nil {
				return nil, err
			}
			abs, err := gainStats(samples, func(g GainSample) float64 { return g.CIB })
			if err != nil {
				return nil, err
			}
			row := []engine.Cell{engine.Number("%.0f", d*100)}
			row = append(row, summaryCells(s)...)
			return append(row, engine.Number("%.1f", 10*math.Log10(abs.Median)+30)), nil
		},
	}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, []float64{0, 0.05, 0.10, 0.15, 0.20}); err != nil {
		return nil, err
	}
	res.AddNote("gain is depth-independent while the absolute delivered power falls with depth (paper §6.1.1b)")
	return res, nil
}

func runFig10b(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("fig10b", "Power gain vs tag orientation, 10-antenna CIB",
		engine.Col("orientation", "rad"), engine.Col("p10", ""), engine.Col("median", ""), engine.Col("p90", ""))
	sweep := engine.Sweep[float64, GainSample]{
		Trials: cfg.trials(60, 15),
		Plan: func(th float64) (uint64, string) {
			return cfg.Seed + uint64(th*100), "gain-trial"
		},
		// The oriented tank is built once per point (not per trial) and
		// shared read-only across the point's parallel trials.
		Prepare: func(th float64) (any, error) {
			sc := scenario.NewTank(0.5, em.Water, 0.10)
			sc.FixedOrientation = th
			return sc, nil
		},
		NewScratch: newGainKit,
		Measure: func(_ float64, sc, scratch any, _ int, r *rng.Rand) (GainSample, error) {
			return scratch.(*gainKit).measure(sc.(scenario.Scenario), 10, nil, r)
		},
		Row: func(th float64, samples []GainSample) ([]engine.Cell, error) {
			s, err := gainStats(samples, func(g GainSample) float64 { return g.CIB / g.Single })
			if err != nil {
				return nil, err
			}
			return append([]engine.Cell{engine.Number("%.2f", th)}, summaryCells(s)...), nil
		},
	}
	orientations := []float64{0, math.Pi / 4, math.Pi / 2, 3 * math.Pi / 4, math.Pi, 1.25 * math.Pi, 1.5 * math.Pi}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, orientations); err != nil {
		return nil, err
	}
	res.AddNote("orientation scales every scheme's channel identically, so the gain ratio is flat")
	return res, nil
}

// mediumPoint is one fig11 sweep point: a medium scenario and its
// position in the sweep (which seeds its trial streams).
type mediumPoint struct {
	index int
	sc    scenario.Scenario
}

func runFig11(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("fig11", "Median power gain across media: 10-antenna CIB vs 10-antenna baseline",
		engine.Col("medium", ""), engine.Col("CIB p10", ""), engine.Col("CIB median", ""), engine.Col("CIB p90", ""), engine.Col("baseline median", ""))
	worstP := 0.0
	sweep := engine.Sweep[mediumPoint, GainSample]{
		Trials: cfg.trials(100, 20),
		Plan: func(p mediumPoint) (uint64, string) {
			return cfg.Seed + uint64(1000*(p.index+1)), "gain-trial"
		},
		Prepare:    func(p mediumPoint) (any, error) { return p.sc, nil },
		NewScratch: newGainKit,
		Measure: func(_ mediumPoint, sc, scratch any, _ int, r *rng.Rand) (GainSample, error) {
			return scratch.(*gainKit).measure(sc.(scenario.Scenario), 10, nil, r)
		},
		Row: func(p mediumPoint, samples []GainSample) ([]engine.Cell, error) {
			cib, err := gainStats(samples, func(g GainSample) float64 { return g.CIB / g.Single })
			if err != nil {
				return nil, err
			}
			blind, err := gainStats(samples, func(g GainSample) float64 { return g.Blind / g.Single })
			if err != nil {
				return nil, err
			}
			// Significance of the CIB-vs-baseline separation in this medium
			// (Welch's t on log-gains, which are closer to symmetric).
			logCIB := make([]float64, len(samples))
			logBlind := make([]float64, len(samples))
			for i, s := range samples {
				logCIB[i] = math.Log(s.CIB / s.Single)
				logBlind[i] = math.Log(s.Blind / s.Single)
			}
			tt, err := stats.WelchTTest(logCIB, logBlind)
			if err != nil {
				return nil, err
			}
			if tt.P > worstP {
				worstP = tt.P
			}
			row := []engine.Cell{engine.Str(p.sc.Name())}
			row = append(row, summaryCells(cib)...)
			return append(row, engine.Number("%.1f", blind.Median)), nil
		},
	}
	media := scenario.MediaSweep()
	points := make([]mediumPoint, len(media))
	for mi, sc := range media {
		points[mi] = mediumPoint{index: mi, sc: sc}
	}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, points); err != nil {
		return nil, err
	}
	res.AddNote("the baseline's ≈10x comes entirely from radiating 10x total power; CIB's extra ≈8x is the blind beamforming gain")
	res.AddNote("CIB-vs-baseline separation significant in every medium (worst Welch p = %.2g on log-gains)", worstP)
	return res, nil
}

func runFig12(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("fig12", "CDF of the CIB/baseline peak power ratio (10 antennas each)",
		engine.Col("power ratio", ""), engine.Col("CDF", ""))
	trials := cfg.trials(400, 60)
	sc := scenario.NewTank(0.5, em.Water, 0.10)
	samples, err := RunGainTrialsCtx(cfg.Context(), cfg.Limits, sc, 10, trials, cfg.Seed, cfg.Trace, "fig12")
	if err != nil {
		return nil, err
	}
	ratios := make([]float64, len(samples))
	for i, s := range samples {
		ratios[i] = s.CIB / s.Blind
	}
	cdf, err := stats.NewCDF(ratios)
	if err != nil {
		return nil, err
	}
	for _, x := range []float64{0.5, 1, 2, 4, 8, 16, 32, 64, 100, 300, 1000} {
		res.AddRow(engine.Number("%.1f", x), engine.Number("%.3f", cdf.At(x)))
	}
	med := cdf.Quantile(0.5)
	res.AddNote("fraction of trials where CIB beats the baseline: %.3f (paper: >0.99)", cdf.FractionAbove(1))
	res.AddNote("median ratio %.1fx (paper ≈8x); p99 %.0fx (paper reports >100x at some locations)",
		med, cdf.Quantile(0.99))
	return res, nil
}
