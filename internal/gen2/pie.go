package gen2

import (
	"fmt"
	"math"
)

// PIE (pulse-interval encoding) is the Gen2 downlink line code: every
// symbol is a high interval followed by a low pulse of width PW; a data-0
// spans one Tari, a data-1 spans 1.5–2 Tari. A frame starts with a
// delimiter (fixed low), a data-0 reference, and an RTcal symbol whose
// length is data-0 + data-1; a Query preamble additionally carries TRcal,
// which sets the tag's backscatter link frequency.
//
// A battery-free tag decodes PIE with an envelope detector, which is why
// CIB must bound its beamforming envelope ripple (Eq. 7): spurious dips in
// the "high" level look like extra low pulses and corrupt the symbol
// timing. That failure mode emerges naturally from this decoder, and the
// flatness-constraint ablation exercises it.

// PIEParams fixes the downlink timing and modulation.
type PIEParams struct {
	// Tari is the data-0 length in seconds (Gen2 allows 6.25–25 µs).
	Tari float64 //ivn:unit s
	// Data1Len is the data-1 length; must be 1.5–2 × Tari.
	Data1Len float64 //ivn:unit s
	// PW is the low-pulse width; Gen2 allows 0.265·Tari–0.525·Tari.
	PW float64 //ivn:unit s
	// Delimiter is the frame-start low interval (12.5 µs ± 5%).
	Delimiter float64 //ivn:unit s
	// TRcal sets the tag backscatter timing; must be 1.1–3 × RTcal.
	TRcal float64 //ivn:unit s
	// SampleRate is the envelope sample rate in Hz.
	SampleRate float64 //ivn:unit Hz
	// ModulationDepth is the fraction of amplitude removed during a low
	// pulse, in (0, 1]; Gen2 requires 0.8–1.0 for reader transmissions.
	ModulationDepth float64
}

// DefaultPIE returns the timing IVN's prototype uses: 12.5 µs Tari,
// 2×Tari data-1, half-Tari PW, 90% modulation depth.
//
//ivn:unit sampleRate Hz
func DefaultPIE(sampleRate float64) PIEParams {
	tari := 12.5e-6
	return PIEParams{
		Tari:            tari,
		Data1Len:        2 * tari,
		PW:              tari / 2,
		Delimiter:       12.5e-6,
		TRcal:           2.5 * (tari + 2*tari),
		SampleRate:      sampleRate,
		ModulationDepth: 0.9,
	}
}

// RTcal is data-0 + data-1, the reader→tag calibration interval.
//
//ivn:unit return s
func (p PIEParams) RTcal() float64 { return p.Tari + p.Data1Len }

// Validate checks the Gen2 timing constraints.
func (p PIEParams) Validate() error {
	if p.SampleRate <= 0 {
		return fmt.Errorf("gen2: PIE sample rate %v <= 0", p.SampleRate)
	}
	if p.Tari < 6.25e-6 || p.Tari > 25e-6 {
		return fmt.Errorf("gen2: Tari %v s outside [6.25µs, 25µs]", p.Tari)
	}
	if p.Data1Len < 1.5*p.Tari || p.Data1Len > 2*p.Tari {
		return fmt.Errorf("gen2: data-1 length %v outside [1.5, 2]×Tari", p.Data1Len)
	}
	if p.PW < 0.265*p.Tari || p.PW > 0.525*p.Tari {
		return fmt.Errorf("gen2: PW %v outside [0.265, 0.525]×Tari", p.PW)
	}
	if p.TRcal < 1.1*p.RTcal() || p.TRcal > 3*p.RTcal() {
		return fmt.Errorf("gen2: TRcal %v outside [1.1, 3]×RTcal", p.TRcal)
	}
	if p.ModulationDepth <= 0 || p.ModulationDepth > 1 {
		return fmt.Errorf("gen2: modulation depth %v outside (0, 1]", p.ModulationDepth)
	}
	if p.Delimiter <= 0 {
		return fmt.Errorf("gen2: delimiter %v <= 0", p.Delimiter)
	}
	return nil
}

//ivn:unit d s
func (p PIEParams) samples(d float64) int {
	return int(math.Round(d * p.SampleRate))
}

// appendLevel extends env with n samples of level v.
func appendLevel(env []float64, n int, v float64) []float64 {
	for i := 0; i < n; i++ {
		env = append(env, v)
	}
	return env
}

// EncodeFrame renders a command frame as an amplitude envelope in [lo, 1]:
// delimiter + data-0 + RTcal (+ TRcal when preamble) + PIE(bits). The
// envelope multiplies the transmitter's carrier; lo = 1 − ModulationDepth.
// Set preamble=true for Query (which begins an inventory round); other
// commands use the frame-sync (no TRcal).
func (p PIEParams) EncodeFrame(bits Bits, preamble bool) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := bits.Validate(); err != nil {
		return nil, err
	}
	lo := 1 - p.ModulationDepth
	pw := p.samples(p.PW)
	// Size the envelope up front: FrameDuration is the exact on-air time,
	// so rate·duration bounds the sample count (± rounding per segment).
	env := make([]float64, 0, p.samples(p.FrameDuration(bits, preamble))+8)
	// Delimiter: low.
	env = appendLevel(env, p.samples(p.Delimiter), lo)
	// Data-0 reference symbol.
	env = appendLevel(env, p.samples(p.Tari)-pw, 1)
	env = appendLevel(env, pw, lo)
	// RTcal symbol.
	env = appendLevel(env, p.samples(p.RTcal())-pw, 1)
	env = appendLevel(env, pw, lo)
	if preamble {
		env = appendLevel(env, p.samples(p.TRcal)-pw, 1)
		env = appendLevel(env, pw, lo)
	}
	for _, b := range bits {
		dur := p.Tari
		if b == 1 {
			dur = p.Data1Len
		}
		env = appendLevel(env, p.samples(dur)-pw, 1)
		env = appendLevel(env, pw, lo)
	}
	return env, nil
}

// FrameDuration returns the on-air time of a frame in seconds — the Δt of
// the paper's flatness constraint (Eq. 9): "For a typical RFID reader's
// query, Δt ≈ 800µs."
//
//ivn:unit return s
func (p PIEParams) FrameDuration(bits Bits, preamble bool) float64 {
	d := p.Delimiter + p.Tari + p.RTcal()
	if preamble {
		d += p.TRcal
	}
	for _, b := range bits {
		if b == 1 {
			d += p.Data1Len
		} else {
			d += p.Tari
		}
	}
	return d
}

// PIEInfo carries the timing a decoder recovered from the frame preamble.
type PIEInfo struct {
	// Tari, RTcal, TRcal are the measured intervals in seconds; TRcal is
	// zero for frame-sync (non-Query) frames.
	Tari, RTcal, TRcal float64 //ivn:unit s
	// Threshold is the amplitude decision level used (half the amplitude
	// difference, as the paper describes the tag's energy detector).
	Threshold float64
}

// DecodeFrame recovers command bits from an amplitude envelope, emulating
// a tag's envelope detector. It binarizes at half the amplitude swing,
// locates the delimiter, measures the reference symbols, and then
// classifies data symbols against the RTcal/2 pivot. Decoding ends at the
// first high interval longer than RTcal (the reader's post-frame CW).
func (p PIEParams) DecodeFrame(env []float64) (Bits, PIEInfo, error) {
	if p.SampleRate <= 0 {
		return nil, PIEInfo{}, fmt.Errorf("gen2: PIE sample rate %v <= 0", p.SampleRate)
	}
	if len(env) == 0 {
		return nil, PIEInfo{}, fmt.Errorf("%w: empty envelope", ErrShortFrame)
	}
	lo, hi := env[0], env[0]
	for _, v := range env {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo < 1e-9 {
		return nil, PIEInfo{}, fmt.Errorf("gen2: no modulation in envelope")
	}
	// "The sensor's energy detector uses half the amplitude difference as
	// the decoding threshold" (paper §3.6). The division by 2 compiles to
	// a product; the conversion keeps it, and the symbol durations below,
	// from fusing into a sum on arm64.
	th := lo + float64((hi-lo)/2)

	// Run-length encode the binarized envelope.
	type run struct {
		high bool
		n    int
	}
	var runs []run
	for _, v := range env {
		h := v > th
		if len(runs) > 0 && runs[len(runs)-1].high == h {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, run{high: h, n: 1})
		}
	}
	dt := 1 / p.SampleRate
	// Find the delimiter: first low run of at least 8 µs.
	start := -1
	for i, r := range runs {
		if !r.high && float64(r.n)*dt >= 8e-6 {
			start = i
			break
		}
	}
	if start < 0 {
		return nil, PIEInfo{}, fmt.Errorf("gen2: no delimiter found")
	}
	// Symbols after the delimiter: (high, low) pairs; symbol length is the
	// sum of both runs.
	var symbols []float64
	i := start + 1
	for i+1 < len(runs) {
		if !runs[i].high {
			return nil, PIEInfo{}, fmt.Errorf("gen2: malformed symbol sequence at run %d", i)
		}
		highDur := float64(float64(runs[i].n) * dt)
		lowDur := float64(float64(runs[i+1].n) * dt)
		symbols = append(symbols, highDur+lowDur)
		i += 2
	}
	// A trailing lone high run is the post-frame CW; it terminates decoding
	// naturally because it has no low pulse.
	if len(symbols) < 2 {
		return nil, PIEInfo{}, fmt.Errorf("%w: only %d PIE symbols", ErrShortFrame, len(symbols))
	}
	info := PIEInfo{Tari: symbols[0], RTcal: symbols[1], Threshold: th}
	if info.RTcal < info.Tari*1.2 {
		return nil, PIEInfo{}, fmt.Errorf("gen2: implausible RTcal %v vs Tari %v", info.RTcal, info.Tari)
	}
	pivot := info.RTcal / 2
	dataStart := 2
	// TRcal present when the next symbol exceeds RTcal (Query preamble).
	if len(symbols) > 2 && symbols[2] > info.RTcal*1.05 {
		info.TRcal = symbols[2]
		dataStart = 3
	}
	var bits Bits
	for _, s := range symbols[dataStart:] {
		if s > info.RTcal*1.05 {
			// Longer than RTcal mid-frame: treat as end of signaling.
			break
		}
		if s > pivot {
			bits = append(bits, 1)
		} else {
			bits = append(bits, 0)
		}
	}
	if len(bits) == 0 {
		return nil, info, fmt.Errorf("%w: no data symbols", ErrShortFrame)
	}
	return bits, info, nil
}
