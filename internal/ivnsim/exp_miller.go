package ivnsim

import (
	"fmt"
	"math"
	"slices"

	"ivn/internal/engine"
	"ivn/internal/gen2"
	"ivn/internal/rng"
)

func init() {
	register(Experiment{
		ID:    "ablation-miller",
		Title: "Uplink encoding robustness: FM0 vs Miller-2/4/8 payload BER vs SNR",
		Paper: "Gen2's M field trades rate for robustness; each Miller bit spreads over M subcarrier cycles",
		Run:   runAblationMiller,
	})
}

// runAblationMiller measures raw payload bit-error rate for each uplink
// encoding at matched per-sample SNR and alignment. A Miller-M bit spans
// M subcarrier cycles (M× the on-air time of an FM0 bit at the same link
// frequency), so its demodulator integrates M× more samples per decision:
// the classic rate-for-robustness trade, isolated from preamble detection.
func runAblationMiller(cfg Config) (*engine.Result, error) {
	res := engine.NewResult("ablation-miller", "Payload bit-error rate by encoding (aligned capture, known timing)",
		engine.Col("per-sample SNR", "dB"), engine.Col("FM0", ""), engine.Col("Miller-2", ""), engine.Col("Miller-4", ""), engine.Col("Miller-8", ""))
	trials := cfg.trials(60, 15)
	const sp = 8 // FM0 samples per half-bit; Miller uses 2·sp per cycle
	const nbits = 16

	type enc struct {
		name   string
		miller int
	}
	encodings := []enc{{"fm0", 0}, {"m2", 2}, {"m4", 4}, {"m8", 8}}

	// One scratch per trial worker, shared by every (encoding, SNR) point:
	// the payload, the clean waveform and its noise, which becomes the
	// noisy capture in place.
	scratches := engine.NewScratches(func() any { return new(millerScratch) })
	measureBER := func(e enc, snrDB float64) (float64, error) {
		// Per-sample noise sigma for unit-amplitude levels.
		sigma := powNeg20(snrDB)
		var encode func(dst []float64, payload gen2.Bits) ([]float64, error)
		var decode func([]float64) (gen2.Bits, error)
		if e.miller == 0 {
			encode = gen2.FM0Encoder{SamplesPerHalfBit: sp}.AppendEncode
			pre := len(gen2.FM0PreambleHalfBits) * sp
			dec := gen2.FM0Decoder{SamplesPerHalfBit: sp}
			decode = func(w []float64) (gen2.Bits, error) {
				return dec.DecodePayload(w[pre:], nbits)
			}
		} else {
			encode = gen2.MillerEncoder{M: e.miller, SamplesPerCycle: 2 * sp}.AppendEncode
			off := gen2.MillerPayloadOffset(e.miller, 2*sp)
			dec := gen2.MillerDecoder{M: e.miller, SamplesPerCycle: 2 * sp}
			decode = func(w []float64) (gen2.Bits, error) {
				return dec.DecodePayload(w[off:], nbits)
			}
		}
		// Trials are independent; per-trial error counts summed in index
		// order keep the BER table identical at any GOMAXPROCS.
		label := fmt.Sprintf("ber-%s-%v", e.name, snrDB)
		trialErrs, err := engine.TrialsScratchCtx(cfg.Context(), cfg.Limits, cfg.Seed, label, trials, scratches, func(_ int, scratch any, r *rng.Rand) (int, error) {
			sc := scratch.(*millerScratch)
			sc.payload = sc.payload[:0]
			for range nbits {
				sc.payload = append(sc.payload, byte(r.Intn(2)))
			}
			wave, err := encode(sc.wave[:0], sc.payload)
			if err != nil {
				return 0, err
			}
			sc.wave = wave
			sc.noise = slices.Grow(sc.noise[:0], len(wave))[:len(wave)]
			noisy := sc.noise
			r.NormFloat64s(noisy)
			for i, v := range wave {
				noisy[i] = v + sigma*noisy[i]
			}
			got, err := decode(noisy)
			if err != nil {
				return 0, err
			}
			bitErrs := 0
			for i, b := range sc.payload {
				if got[i] != b {
					bitErrs++
				}
			}
			return bitErrs, nil
		})
		if err != nil {
			return 0, err
		}
		errors, total := 0, trials*nbits
		for _, e := range trialErrs {
			errors += e
		}
		return float64(errors) / float64(total), nil
	}

	for _, snrDB := range []float64{-12, -9, -6, -3, 0, 3} {
		row := []engine.Cell{engine.Number("%.0f", snrDB)}
		for _, e := range encodings {
			ber, err := measureBER(e, snrDB)
			if err != nil {
				return nil, err
			}
			row = append(row, engine.Number("%.3f", ber))
		}
		res.AddRow(row...)
	}
	res.AddNote("per-sample SNR = 20·log10(1/σ) on ±1 levels; a Miller-M demodulator integrates M× more samples per bit")
	res.AddNote("the crossover SNR improves ≈3 dB per doubling of M, at M× the on-air time per bit")
	return res, nil
}

// millerScratch is one ablation-miller trial worker's reusable storage.
type millerScratch struct {
	payload     gen2.Bits
	wave, noise []float64
}

// powNeg20 converts an SNR in dB on unit-amplitude levels to a noise σ:
// σ = 10^(−snr/20).
func powNeg20(snrDB float64) float64 {
	return math.Pow(10, -snrDB/20)
}
