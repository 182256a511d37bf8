package ivnsim

import (
	"fmt"
	"math"
	"math/cmplx"

	"ivn/internal/engine"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/tag"
)

// In-vivo experiments: the §6.2 swine results and the Fig. 15 waveforms.

func init() {
	register(Experiment{
		ID:    "invivo",
		Title: "In-vivo communication success by placement and tag (swine model)",
		Paper: "gastric standard: 3/6; gastric miniature: 0; subcutaneous: all trials succeed",
		Run:   runInVivo,
	})
	register(Experiment{
		ID:    "fig15a",
		Title: "Decoded backscatter waveform: standard tag in the stomach",
		Paper: "time-domain response with preamble correlation > 0.8 and decoded bits",
		Run: func(cfg Config) (*engine.Result, error) {
			return runFig15(cfg, "fig15a", scenario.NewSwine(scenario.Gastric), tag.StandardTag())
		},
	})
	register(Experiment{
		ID:    "fig15b",
		Title: "Decoded backscatter waveform: miniature tag subcutaneous",
		Paper: "time-domain response with preamble correlation > 0.8 and decoded bits",
		Run: func(cfg Config) (*engine.Result, error) {
			return runFig15(cfg, "fig15b", scenario.NewSwine(scenario.Subcutaneous), tag.MiniatureTag())
		},
	})
}

// invivoCase is one swine sweep point: a placement/tag pairing and its
// position in the sweep (which labels its trial streams).
type invivoCase struct {
	index int
	sc    *scenario.Swine
	model tag.Model
}

func runInVivo(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("invivo", "Swine communication sessions (8-antenna CIB, out-of-band reader)",
		engine.Col("placement", ""), engine.Col("tag", ""), engine.Col("powered", ""), engine.Col("decoded", ""), engine.Col("sessions", ""))
	trials := cfg.trials(6, 4)
	sweep := engine.Sweep[invivoCase, CommTrial]{
		Trials: trials,
		Plan: func(c invivoCase) (uint64, string) {
			return cfg.Seed, fmt.Sprintf("invivo-%d", c.index)
		},
		NewScratch: newCommKit,
		Measure: func(c invivoCase, _, scratch any, i int, r *rng.Rand) (CommTrial, error) {
			opts := CommOptions{Waveform: true}
			if cfg.Trace != nil {
				tr, commit := cfg.Trace.Span(fmt.Sprintf("invivo-%d/%04d", c.index, i))
				defer commit() // defers run at Measure return, after the trial
				opts.Trace = tr
			}
			return scratch.(*commKit).trial(c.sc, 8, c.model, opts, r)
		},
		Row: func(c invivoCase, sessions []CommTrial) ([]engine.Cell, error) {
			powered, decoded := 0, 0
			for _, tr := range sessions {
				if tr.Powered {
					powered++
				}
				if tr.Powered && tr.Decoded {
					decoded++
				}
			}
			return []engine.Cell{
				engine.Str(c.sc.Placement.String()),
				engine.Str(c.model.Name),
				engine.Counts(powered, trials),
				engine.Counts(decoded, trials),
				engine.Int(trials),
			}, nil
		},
	}
	cases := []invivoCase{
		{0, scenario.NewSwine(scenario.Gastric), tag.StandardTag()},
		{1, scenario.NewSwine(scenario.Gastric), tag.MiniatureTag()},
		{2, scenario.NewSwine(scenario.Subcutaneous), tag.StandardTag()},
		{3, scenario.NewSwine(scenario.Subcutaneous), tag.MiniatureTag()},
	}
	if err := sweep.RunIntoCtx(cfg.Context(), cfg.Limits, res, cases); err != nil {
		return nil, err
	}
	res.AddNote("success criterion: FM0 preamble correlation > 0.8 after coherent averaging (paper §6.2)")
	res.AddNote("each session re-places the tag with fresh position, orientation and breathing state")
	return res, nil
}

func runFig15(cfg Config, id string, sc *scenario.Swine, model tag.Model) (*engine.Result, error) {
	res := engine.NewResult(id,
		fmt.Sprintf("Backscatter waveform and decoded bits: %s tag, %s placement", model.Name, sc.Placement),
		engine.Col("half-bit index", ""), engine.Col("mean level", "µV"))
	parent := rng.New(cfg.Seed)
	// Find a successful session (the paper likewise shows a sample output
	// from a successful trial). The attempts are a sequential search — each
	// stops as soon as one succeeds — so this stays off the scheduler, on
	// one comm kit.
	var k commKit
	maxAttempts := 40
	for attempt := 0; attempt < maxAttempts; attempt++ {
		r := parent.SplitIndexed("fig15", attempt)
		tr, err := k.trial(sc, 8, model, CommOptions{Waveform: true}, r)
		if err != nil {
			return nil, err
		}
		if !(tr.Powered && tr.Decoded) {
			continue
		}
		// The kit holds the session just found: its link, whose reader
		// carries the placement's breathing drift, its tag and the RN16
		// that tag sent, and the decode. r stands where the session's
		// decode left it.
		lk := k.link
		rd := lk.Reader
		bs, err := k.tag.BackscatterWaveform(k.reply, rd.SamplesPerHalfBit)
		if err != nil {
			return nil, err
		}
		gain := lk.RoundTrip(model)
		jam := lk.Jam()
		// Render the post-averaging received waveform the decoder saw:
		// backscatter levels through the link plus residual noise.
		sp := rd.SamplesPerHalfBit
		noise := rd.RX.NoiseFloor + rd.RX.EffectiveInterference(jam)
		sigma := mathSqrt(noise / 2 / float64(rd.AveragingPeriods))
		halfBits := len(bs) / sp
		dispNoise := make([]float64, halfBits*sp)
		r.Split("display-noise").NormFloat64s(dispNoise)
		for hb := 0; hb < halfBits; hb++ {
			var mean float64
			for i := 0; i < sp; i++ {
				mean += bs[hb*sp+i]*absC(gain) + sigma*dispNoise[hb*sp+i]
			}
			mean /= float64(sp)
			res.AddRow(engine.Int(hb), engine.Number("%.4f", mean*1e6))
		}
		res.AddNote("decoded RN16 bits: %s", k.dec.Bits)
		res.AddNote("preamble correlation %.3f (threshold 0.8); post-averaging SNR %.1f dB", k.dec.Correlation, k.dec.SNRdB)
		res.AddNote("session found on attempt %d; CIB peak at sensor %.2e W", attempt+1, tr.PeakPower)
		return res, nil
	}
	return nil, fmt.Errorf("ivnsim: no successful %s session in %d attempts", id, maxAttempts)
}

func absC(z complex128) float64 { return cmplx.Abs(z) }

func mathSqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
