package gen2

import (
	"fmt"
	"slices"
	"sync"

	"ivn/internal/dsp"
)

// FM0 (bi-phase space) is the Gen2 uplink encoding IVN's tags use. The
// level inverts at every symbol boundary; a data-0 adds a mid-symbol
// inversion, a data-1 does not. The TRext=0 preamble is the six-symbol
// sequence 1,0,1,0,v,1 whose half-bit level pattern is "110100100011" —
// exactly the 12-bit preamble the paper correlates against to declare an
// in-vivo communication successful (§6.2).

// FM0PreambleHalfBits is the preamble's half-bit level pattern, starting
// high. Index i is the level (1 = high, 0 = low) of half-bit i.
var FM0PreambleHalfBits = Bits{1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1}

// FM0PreambleString is the preamble as the paper prints it.
const FM0PreambleString = "110100100011"

// FM0Encoder turns payload bits into a ±1 baseband level waveform.
type FM0Encoder struct {
	// SamplesPerHalfBit sets the time resolution; one FM0 symbol spans two
	// half-bits.
	SamplesPerHalfBit int
	// TRext prepends the extended pilot (12 leading data-0 symbols).
	TRext bool
}

// pilotSymbols is the TRext pilot length in FM0 symbols.
const pilotSymbols = 12

// AppendEncode appends the ±1 levels of preamble + payload + terminating
// dummy data-1 to dst and returns the extended slice; pass nil for a
// fresh one. It errors on invalid bits or a non-positive sample count,
// returning dst unchanged.
func (e FM0Encoder) AppendEncode(dst []float64, payload Bits) ([]float64, error) {
	if e.SamplesPerHalfBit < 1 {
		return dst, fmt.Errorf("gen2: SamplesPerHalfBit %d < 1", e.SamplesPerHalfBit)
	}
	if err := payload.Validate(); err != nil {
		return dst, err
	}
	sp := e.SamplesPerHalfBit
	nHalf := len(FM0PreambleHalfBits) + (len(payload)+1)*2
	if e.TRext {
		nHalf += pilotSymbols * 2
	}
	out := slices.Grow(dst, nHalf*sp)
	writeHalf := func(level float64) {
		for i := 0; i < sp; i++ {
			out = append(out, level)
		}
	}
	level := 1.0
	if e.TRext {
		// Pilot: 12 data-0 symbols, each inverting at its boundary and at
		// mid-symbol, ending high so the preamble starts at its reference
		// level.
		for s := 0; s < pilotSymbols; s++ {
			level = -level
			writeHalf(level)
			level = -level
			writeHalf(level)
		}
	}
	for _, hb := range FM0PreambleHalfBits {
		if hb == 1 {
			writeHalf(1)
			level = 1
		} else {
			writeHalf(-1)
			level = -1
		}
	}
	emit := func(bit byte) {
		// Boundary inversion.
		level = -level
		writeHalf(level)
		if bit == 0 {
			// Mid-symbol inversion.
			level = -level
		}
		writeHalf(level)
	}
	for _, b := range payload {
		emit(b)
	}
	emit(1) // terminating dummy data-1
	return out, nil
}

// FM0PreambleTemplate returns the ±1 preamble waveform at the given
// resolution, for matched filtering / correlation detection.
func FM0PreambleTemplate(samplesPerHalfBit int) []float64 {
	out := make([]float64, 0, len(FM0PreambleHalfBits)*samplesPerHalfBit)
	for _, hb := range FM0PreambleHalfBits {
		l := -1.0
		if hb == 1 {
			l = 1
		}
		for i := 0; i < samplesPerHalfBit; i++ {
			out = append(out, l)
		}
	}
	return out
}

// preambleTemplateCache memoizes the prepared decode templates per
// resolution: every trial of an experiment decodes against the same
// preamble, so the template pair is built once per SamplesPerHalfBit and
// shared read-only across all (possibly parallel) decoders. Values
// stored here must never be mutated — they alias into every concurrent
// correlation.
var preambleTemplateCache sync.Map // int → [2][]float64

// preambleTemplates returns the cached (template, inverted-template)
// pair for a resolution, building and memoizing it on first use. The
// returned slices are shared and read-only.
func preambleTemplates(samplesPerHalfBit int) (tmpl, inv []float64) {
	if v, ok := preambleTemplateCache.Load(samplesPerHalfBit); ok {
		pair := v.([2][]float64)
		return pair[0], pair[1]
	}
	tmpl = FM0PreambleTemplate(samplesPerHalfBit)
	inv = make([]float64, len(tmpl))
	for i, v := range tmpl {
		inv[i] = -v
	}
	// Concurrent first users may race to build; LoadOrStore keeps one
	// winner so every caller aliases the same immutable pair.
	v, _ := preambleTemplateCache.LoadOrStore(samplesPerHalfBit, [2][]float64{tmpl, inv})
	pair := v.([2][]float64)
	return pair[0], pair[1]
}

// FM0Decoder recovers payload bits from a (possibly noisy) level waveform.
type FM0Decoder struct {
	SamplesPerHalfBit int
	// CorrelationThreshold is the minimum normalized preamble correlation
	// to accept a frame; the paper uses 0.8.
	CorrelationThreshold float64
}

// DecodePayload decodes nbits payload bits from samples, which must begin
// exactly at the first payload half-bit (i.e. immediately after the
// preamble). A data bit is 1 when its two halves agree in sign and 0 when
// they disagree.
func (d FM0Decoder) DecodePayload(samples []float64, nbits int) (Bits, error) {
	sp := d.SamplesPerHalfBit
	if sp < 1 {
		return nil, fmt.Errorf("gen2: SamplesPerHalfBit %d < 1", sp)
	}
	need := nbits * 2 * sp
	if len(samples) < need {
		return nil, fmt.Errorf("%w: need %d samples for %d bits, have %d", ErrShortFrame, need, nbits, len(samples))
	}
	out := make(Bits, nbits)
	for i := 0; i < nbits; i++ {
		h1 := mean(samples[(2*i)*sp : (2*i+1)*sp])
		h2 := mean(samples[(2*i+1)*sp : (2*i+2)*sp])
		if h1*h2 > 0 {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	return out, nil
}

// FrameResult is a decoded uplink frame with its detection metadata.
type FrameResult struct {
	// Payload is the recovered bit string.
	Payload Bits
	// Correlation is the normalized preamble correlation at the accepted
	// alignment.
	Correlation float64
	// Offset is the sample index where the preamble begins.
	Offset int
}

// DecodeFrame locates the preamble in samples by normalized correlation,
// requires it to clear the threshold, and decodes nbits of payload that
// follow it. The input should be a real envelope with its DC bias removed
// (the backscatter modulation rides on top of the carrier envelope).
//
// The detector is polarity-invariant: the sign of a backscatter link is
// arbitrary (it depends on the unknown channel phase), so both template
// polarities are tried and the stronger alignment wins. The payload
// decision itself (half-bit agreement) is inherently sign-free.
func (d FM0Decoder) DecodeFrame(samples []float64, nbits int) (*FrameResult, error) {
	sp := d.SamplesPerHalfBit
	if sp < 1 {
		return nil, fmt.Errorf("gen2: SamplesPerHalfBit %d < 1", sp)
	}
	th := d.CorrelationThreshold
	if th == 0 {
		th = 0.8
	}
	tmpl, inv := preambleTemplates(sp)
	best, lag := dsp.MaxCorrelation(samples, tmpl)
	if lag < 0 {
		return nil, fmt.Errorf("%w: capture shorter than preamble", ErrShortFrame)
	}
	// Inverted polarity: correlate against the negated template.
	bestInv, lagInv := dsp.MaxCorrelation(samples, inv)
	if bestInv > best {
		best, lag = bestInv, lagInv
	}
	if best < th {
		return nil, &thresholdError{sync: "preamble", correlation: best, threshold: th}
	}
	payloadStart := lag + len(tmpl)
	payload, err := d.DecodePayload(samples[payloadStart:], nbits)
	if err != nil {
		return nil, err
	}
	return &FrameResult{Payload: payload, Correlation: best, Offset: lag}, nil
}

// thresholdError reports a capture whose sync correlation falls below
// the decoder's threshold. Most such captures are counted and dropped,
// so its text is formatted only when someone reads it.
type thresholdError struct {
	sync                   string // the template: "preamble" or "Miller prefix"
	correlation, threshold float64
}

func (e *thresholdError) Error() string {
	return fmt.Sprintf("gen2: %s correlation %.3f below threshold %.3f", e.sync, e.correlation, e.threshold)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
