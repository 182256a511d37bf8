package gen2

import (
	"fmt"
	"slices"

	"ivn/internal/dsp"
)

// Miller-modulated subcarrier (M=2/4/8) is Gen2's alternative uplink
// encoding: slower but more robust than FM0 because each bit spreads over
// M subcarrier cycles. IVN's prototype uses FM0, but a Query can request
// Miller (M field), so the simulator supports it for completeness.
//
// Baseband Miller rules: the phase inverts in the middle of a data-1
// symbol, and at the boundary between two consecutive data-0 symbols;
// otherwise it continues. The baseband is then multiplied by a square
// subcarrier with M cycles per symbol.

// MillerEncoder encodes payload bits as a Miller-modulated ±1 waveform.
type MillerEncoder struct {
	// M is the subcarrier cycles per symbol: 2, 4 or 8.
	M int
	// SamplesPerCycle sets time resolution; one subcarrier cycle spans two
	// samples at minimum.
	SamplesPerCycle int
}

// millerPreambleSymbols is the TRext=0 Miller preamble payload ("010111")
// that follows four zero symbols, per the Gen2 spec.
var millerPreambleSymbols = Bits{0, 1, 0, 1, 1, 1}

// AppendEncode appends the ±1 waveform of (4 zero symbols + preamble
// "010111" + payload + dummy data-1) to dst and returns the extended
// slice; pass nil for a fresh one. It errors on an invalid M, sample count
// or bit, returning dst unchanged.
func (e MillerEncoder) AppendEncode(dst []float64, payload Bits) ([]float64, error) {
	switch e.M {
	case 2, 4, 8:
	default:
		return dst, fmt.Errorf("gen2: Miller M=%d not in {2,4,8}", e.M)
	}
	if e.SamplesPerCycle < 2 {
		return dst, fmt.Errorf("gen2: SamplesPerCycle %d < 2", e.SamplesPerCycle)
	}
	if err := payload.Validate(); err != nil {
		return dst, err
	}
	spc := e.SamplesPerCycle
	perSym := e.M * spc
	nSym := 4 + len(millerPreambleSymbols) + len(payload) + 1
	out := slices.Grow(dst, nSym*perSym)
	phase := 1.0
	prev := byte(1) // so a leading 0 does not invert
	emit := func(sym byte) {
		if sym == 0 && prev == 0 {
			phase = -phase // boundary inversion between consecutive zeros
		}
		half := perSym / 2
		for i := 0; i < perSym; i++ {
			if sym == 1 && i == half {
				phase = -phase // mid-symbol inversion for data-1
			}
			// Square subcarrier: M cycles per symbol.
			cyclePos := i % spc
			sub := 1.0
			if cyclePos >= spc/2 {
				sub = -1
			}
			out = append(out, phase*sub)
		}
		prev = sym
	}
	for range 4 {
		emit(0)
	}
	for _, sym := range millerPreambleSymbols {
		emit(sym)
	}
	for _, sym := range payload {
		emit(sym)
	}
	emit(1)
	return out, nil
}

// MillerDecoder recovers payload bits from a Miller waveform produced by
// MillerEncoder with the same parameters.
type MillerDecoder struct {
	M               int
	SamplesPerCycle int
}

// DecodePayload decodes nbits payload bits from samples beginning at the
// first payload symbol (after the 4 zero symbols and 6 preamble symbols).
// It demodulates by removing the subcarrier, then classifies each symbol
// by whether its two halves agree (data-0 continues phase) or disagree
// (data-1 inverts mid-symbol).
func (d MillerDecoder) DecodePayload(samples []float64, nbits int) (Bits, error) {
	switch d.M {
	case 2, 4, 8:
	default:
		return nil, fmt.Errorf("gen2: Miller M=%d not in {2,4,8}", d.M)
	}
	if d.SamplesPerCycle < 2 {
		return nil, fmt.Errorf("gen2: SamplesPerCycle %d < 2", d.SamplesPerCycle)
	}
	spc := d.SamplesPerCycle
	perSym := d.M * spc
	need := nbits * perSym
	if len(samples) < need {
		return nil, fmt.Errorf("%w: need %d samples, have %d", ErrShortFrame, need, len(samples))
	}
	out := make(Bits, nbits)
	for i := 0; i < nbits; i++ {
		seg := samples[i*perSym : (i+1)*perSym]
		// Multiply by the subcarrier to recover the baseband phase.
		var h1, h2 float64
		half := perSym / 2
		for k, v := range seg {
			sub := 1.0
			if k%spc >= spc/2 {
				sub = -1
			}
			// A converted product cannot fuse into the sum (arm64 may
			// round x*y+z once), so every architecture decodes alike.
			if k < half {
				h1 += float64(v * sub)
			} else {
				h2 += float64(v * sub)
			}
		}
		if h1*h2 < 0 {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	return out, nil
}

// MillerPayloadOffset returns the sample index where payload symbols start
// in a waveform produced by MillerEncoder with matching parameters.
func MillerPayloadOffset(m, samplesPerCycle int) int {
	return (4 + len(millerPreambleSymbols)) * m * samplesPerCycle
}

// MillerPrefixTemplate returns the payload-independent frame prefix (four
// zero symbols plus the "010111" preamble) as a ±1 waveform, for
// correlation-based frame alignment.
func MillerPrefixTemplate(m, samplesPerCycle int) ([]float64, error) {
	enc := MillerEncoder{M: m, SamplesPerCycle: samplesPerCycle}
	full, err := enc.AppendEncode(nil, nil)
	if err != nil {
		return nil, err
	}
	return full[:MillerPayloadOffset(m, samplesPerCycle)], nil
}

// DecodeFrame locates the Miller prefix in samples by normalized
// correlation, requires it to clear the threshold (0 → 0.8), and decodes
// nbits of payload after it — the Miller counterpart of
// FM0Decoder.DecodeFrame.
func (d MillerDecoder) DecodeFrame(samples []float64, nbits int, threshold float64) (*FrameResult, error) {
	tmpl, err := MillerPrefixTemplate(d.M, d.SamplesPerCycle)
	if err != nil {
		return nil, err
	}
	if threshold == 0 {
		threshold = 0.8
	}
	best, lag := dsp.MaxCorrelation(samples, tmpl)
	if lag < 0 {
		return nil, fmt.Errorf("%w: capture shorter than Miller prefix", ErrShortFrame)
	}
	if best < threshold {
		return nil, &thresholdError{sync: "Miller prefix", correlation: best, threshold: threshold}
	}
	payload, err := d.DecodePayload(samples[lag+len(tmpl):], nbits)
	if err != nil {
		return nil, err
	}
	return &FrameResult{Payload: payload, Correlation: best, Offset: lag}, nil
}
