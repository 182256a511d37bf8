// Package reader implements IVN's out-of-band reader (paper §4, §5b): a
// transmit/receive pair at a carrier (880 MHz) different from the CIB
// beamformer's (915 MHz), time-synchronized with it.
//
// Backscatter modulation is frequency-agnostic: once CIB has powered the
// tag up, the tag's impedance switching modulates *every* illuminating
// carrier, including the reader's. The reader therefore decodes the tag
// on its own carrier, where a SAW pre-filter removes the CIB self-jamming
// that would otherwise saturate the receive chain. To survive deep-tissue
// attenuation it coherently averages captures across 1-second CIB
// envelope periods before FM0 correlation decoding, declaring success at
// preamble correlation > 0.8 (the paper's §6.2 criterion).
package reader

import (
	"fmt"
	"math"
	"math/cmplx"

	"ivn/internal/dsp"
	"ivn/internal/gen2"
	"ivn/internal/radio"
	"ivn/internal/rng"
)

// Reader is the out-of-band transmit/receive pair.
type Reader struct {
	// TxFreq is the reader's carrier (the prototype uses 880 MHz).
	TxFreq float64 //ivn:unit Hz
	// TxAmplitude is the emitted amplitude in √W.
	TxAmplitude float64 //ivn:unit sqrtW
	// RX is the receive chain (SAW filter, saturation, noise floor),
	// centered at TxFreq.
	RX *radio.Receiver
	// SamplesPerHalfBit is the FM0 resolution of uplink captures.
	SamplesPerHalfBit int
	// AveragingPeriods is the number of 1 s CIB envelope periods combined
	// coherently (K).
	AveragingPeriods int
	// CorrelationThreshold is the decode acceptance level (0 → 0.8).
	CorrelationThreshold float64
	// Miller selects the uplink decoding: 0 = FM0, else the Miller
	// subcarrier factor (2/4/8), matching the Query's M field.
	Miller int
	// PhaseDriftPerPeriod is the oscillator phase random-walk variance
	// accumulated per averaging period, rad². Zero models the prototype's
	// shared Octoclock reference (TX and RX phase-locked across seconds);
	// a free-running link drifts and erodes the coherent-averaging gain
	// (see CoherentAveragingGain).
	PhaseDriftPerPeriod float64
}

// CoherentAveragingGain returns E|1/K·Σₖ e^{jφₖ}|² for a phase random
// walk with per-period variance sigma2: the fraction of the ideal
// K-period coherent gain that survives oscillator drift. With sigma2 = 0
// it is 1 (full coherence); as drift grows the stacked replies decorrelate
// and the value approaches 1/K (non-coherent averaging).
func CoherentAveragingGain(k int, sigma2 float64) float64 {
	if k < 1 {
		return 0
	}
	if sigma2 <= 0 {
		return 1
	}
	// E[e^{j(φₖ−φₗ)}] = e^{−σ²|k−l|/2} for a Wiener phase.
	var acc float64
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			d := a - b
			if d < 0 {
				d = -d
			}
			acc += math.Exp(-sigma2 * float64(d) / 2)
		}
	}
	return acc / float64(k*k)
}

// Operating-point defaults, applied wherever the corresponding field is
// zero: a zero-value Reader decodes at the prototype's configuration
// (880 MHz, 1 W, 8 samples per half-bit, 32-period averaging, 0.8
// correlation threshold). Every decode path resolves through the same
// accessors, so FM0 and Miller can never disagree about what zero means.
const (
	DefaultTxFreq               = 880e6
	DefaultTxAmplitude          = 1.0
	DefaultSamplesPerHalfBit    = 8
	DefaultAveragingPeriods     = 32
	DefaultCorrelationThreshold = 0.8
)

// New builds a reader at the prototype's operating point: 880 MHz, 30 dBm
// (1 W) transmit, 8 samples per half-bit, 32-period averaging (the paper
// averages tag responses over 1-second CIB envelope periods, §5b; the
// capture length is a free parameter of the protocol).
func New() *Reader {
	return &Reader{
		TxFreq:               DefaultTxFreq,
		TxAmplitude:          DefaultTxAmplitude,
		RX:                   radio.NewReceiver(DefaultTxFreq),
		SamplesPerHalfBit:    DefaultSamplesPerHalfBit,
		AveragingPeriods:     DefaultAveragingPeriods,
		CorrelationThreshold: DefaultCorrelationThreshold,
	}
}

// txFreq resolves the carrier, defaulting the zero value.
func (r *Reader) txFreq() float64 {
	if r.TxFreq == 0 {
		return DefaultTxFreq
	}
	return r.TxFreq
}

// rx resolves the receive chain, building the default receiver (centered
// at the resolved carrier) when none is configured.
func (r *Reader) rx() *radio.Receiver {
	if r.RX == nil {
		return radio.NewReceiver(r.txFreq())
	}
	return r.RX
}

// samplesPerHalfBit resolves the FM0 half-bit resolution.
func (r *Reader) samplesPerHalfBit() int {
	if r.SamplesPerHalfBit == 0 {
		return DefaultSamplesPerHalfBit
	}
	return r.SamplesPerHalfBit
}

// averagingPeriods resolves the coherent-averaging depth K.
func (r *Reader) averagingPeriods() int {
	if r.AveragingPeriods == 0 {
		return DefaultAveragingPeriods
	}
	return r.AveragingPeriods
}

// correlationThreshold resolves the decode acceptance level.
func (r *Reader) correlationThreshold() float64 {
	if r.CorrelationThreshold == 0 {
		return DefaultCorrelationThreshold
	}
	return r.CorrelationThreshold
}

// Validate checks the configuration. Zero values are valid — they select
// the documented defaults — so only genuinely meaningless settings
// (negative counts, negative frequencies) are rejected.
func (r *Reader) Validate() error {
	if r.TxFreq < 0 {
		return fmt.Errorf("reader: TX frequency %v < 0", r.TxFreq)
	}
	if r.TxAmplitude < 0 {
		return fmt.Errorf("reader: TX amplitude %v < 0", r.TxAmplitude)
	}
	if r.SamplesPerHalfBit < 0 {
		return fmt.Errorf("reader: %d samples per half-bit", r.SamplesPerHalfBit)
	}
	if r.AveragingPeriods < 0 {
		return fmt.Errorf("reader: %d averaging periods", r.AveragingPeriods)
	}
	if r.CorrelationThreshold < 0 || r.CorrelationThreshold > 1 {
		return fmt.Errorf("reader: correlation threshold %v outside [0,1]", r.CorrelationThreshold)
	}
	return nil
}

// DecodeResult is a successful uplink decode.
type DecodeResult struct {
	// Bits is the recovered payload.
	Bits gen2.Bits
	// Correlation is the preamble correlation after averaging.
	Correlation float64
	// SNRdB is the post-averaging per-sample SNR estimate used.
	SNRdB float64 //ivn:unit dB
}

// noiseBlock is how many capture samples DecodeUplink draws noise for
// per NormFloat64s call.
const noiseBlock = 256

// DecodeUplink demodulates a backscatter reply. bs is the tag's
// modulation waveform (reflection amplitude factors at SamplesPerHalfBit
// resolution); linkGain is the round-trip complex gain reader→tag→reader
// at the reader's carrier, including the tag's incident amplitude; jamPowers
// lists interfering tones at the reader antenna. The reader synthesizes
// AveragingPeriods noisy captures, combines them coherently, removes the
// carrier DC, and runs the FM0 correlation decoder for nbits of payload.
func (r *Reader) DecodeUplink(bs []float64, linkGain complex128, jamPowers []radio.ToneAt, nbits int, rnd *rng.Rand) (*DecodeResult, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if len(bs) == 0 {
		return nil, fmt.Errorf("reader: empty backscatter waveform")
	}
	rx := r.rx()
	if rx.Saturated(jamPowers) {
		return nil, fmt.Errorf("reader: receiver saturated by %d jamming tones (%.1f dBm post-filter)",
			len(jamPowers), 10*math.Log10(rx.PostFilterPower(jamPowers))+30)
	}
	// Residual interference (after analog and digital filtering) raises
	// the effective noise floor.
	noise := rx.NoiseFloor + rx.EffectiveInterference(jamPowers)
	// Coherent averaging of K periods: signal stays, noise power drops K×.
	// Oscillator drift between periods decorrelates the stacked replies
	// and attenuates the combined signal amplitude.
	periods := r.averagingPeriods()
	k := float64(periods)
	drift := math.Sqrt(CoherentAveragingGain(periods, r.PhaseDriftPerPeriod))
	effLink := linkGain * complex(drift, 0)
	sigma := math.Sqrt(noise / 2 / k)
	// Derotate each averaged sample by the (estimated) link phase and take
	// the real part. A real reader estimates this from the carrier; we use
	// the true value, which the DC of the capture would supply.
	ph := cmplx.Phase(effLink)
	rot := cmplx.Exp(complex(0, -ph))
	levels := make([]float64, len(bs))
	// The averaged capture's complex circular Gaussian noise: sample i
	// takes normals 2i (real) and 2i+1 (imaginary), drawn noiseBlock
	// samples at a time into a stack array. NormFloat64s yields the same
	// stream whatever the block size.
	var normals [2 * noiseBlock]float64
	for lo := 0; lo < len(bs); lo += noiseBlock {
		blk := bs[lo:min(lo+noiseBlock, len(bs))]
		nv := normals[:2*len(blk)]
		rnd.NormFloat64s(nv)
		for i, v := range blk {
			avg := complex(v, 0)*effLink + complex(sigma*nv[2*i], sigma*nv[2*i+1])
			levels[lo+i] = real(avg * rot)
		}
	}
	// AC-couple: backscatter rides on a DC reflection level.
	mean := dsp.Mean(levels)
	for i := range levels {
		levels[i] -= mean
	}
	th := r.correlationThreshold()
	sphb := r.samplesPerHalfBit()
	var res *gen2.FrameResult
	var err error
	if r.Miller != 0 {
		// One subcarrier cycle per FM0 bit time (see tag.BackscatterWaveform).
		dec := gen2.MillerDecoder{M: r.Miller, SamplesPerCycle: 2 * sphb}
		res, err = dec.DecodeFrame(levels, nbits, th)
	} else {
		dec := gen2.FM0Decoder{SamplesPerHalfBit: sphb, CorrelationThreshold: th}
		res, err = dec.DecodeFrame(levels, nbits)
	}
	if err != nil {
		return nil, err
	}
	sig := cmplx.Abs(effLink)
	snr := math.Inf(1)
	if noise > 0 {
		snr = 10 * math.Log10(sig*sig*k/noise)
	}
	return &DecodeResult{Bits: res.Payload, Correlation: res.Correlation, SNRdB: snr}, nil
}

// ModulationAmplitude returns the AC half-swing a tag's backscatter
// imposes on an illuminating carrier: the modulator toggles the
// reflection amplitude between gain·(1−depth) and gain, so the
// information-bearing component has amplitude gain·depth/2.
func ModulationAmplitude(backscatterGain, depth float64) float64 {
	return backscatterGain * depth / 2
}

// DecodableRN16 is the fast link-budget predicate the range sweeps use:
// it reports whether an RN16 decode is expected to succeed given the
// round-trip link gain (reader TX → tag → reader RX, excluding the tag's
// modulation), the tag's modulation amplitude, jamming, and averaging —
// without synthesizing waveforms. The threshold is the post-averaging
// per-sample amplitude SNR at which the 12-half-bit FM0 preamble
// correlation clears 0.8 (amplitude ratio ≈1.33, i.e. ≈2.5 dB power),
// plus margin; it is validated against DecodeUplink in the tests.
func (r *Reader) DecodableRN16(linkGain complex128, modulationAmp float64, jamPowers []radio.ToneAt) bool {
	snr, _ := r.EventBudget(linkGain, modulationAmp, jamPowers)
	if snr <= 0 {
		return false
	}
	const minSNRdB = 4.5 // ρ=0.8 point (≈2.5 dB) plus 2 dB margin
	return 10*math.Log10(snr) >= minSNRdB
}

// EventBudget reduces a tag's link budget to the two scalars the
// event-level channel (ivn/internal/session.EventChannel) needs: the
// post-averaging per-sample power SNR (linear — the same operand
// DecodableRN16 thresholds and DecodeUplink reports as SNRdB) and the
// received backscatter signal power (relative units; only ratios between
// tags matter, for the capture-effect dominance test). A saturated
// receiver returns (0, 0): nothing decodes. A noiseless receiver with
// signal returns snr = +Inf.
func (r *Reader) EventBudget(linkGain complex128, modulationAmp float64, jamPowers []radio.ToneAt) (snr, rssi float64) {
	rx := r.rx()
	if rx.Saturated(jamPowers) {
		return 0, 0
	}
	noise := rx.NoiseFloor + rx.EffectiveInterference(jamPowers)
	periods := r.averagingPeriods()
	a := cmplx.Abs(linkGain) * modulationAmp *
		math.Sqrt(CoherentAveragingGain(periods, r.PhaseDriftPerPeriod))
	if a == 0 {
		return 0, 0
	}
	return a * a * float64(periods) / noise, a * a
}

// RoundTripGain composes the reader's link: its own transmit amplitude,
// the downlink channel to the tag at the reader carrier, and the uplink
// channel back. The tag's backscatter gain and modulation depth live in
// the modulation waveform (Tag.BackscatterWaveform), not here.
func RoundTripGain(txAmplitude float64, down, up complex128) complex128 {
	return complex(txAmplitude, 0) * down * up
}
