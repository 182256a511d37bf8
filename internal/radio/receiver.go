package radio

import (
	"fmt"
	"math"
)

// SAWFilter is a behavioral band-pass pre-selector: near-zero loss inside
// the passband, a fixed high rejection outside it, with a raised-cosine
// transition. IVN's out-of-band reader uses one to keep the CIB
// transmitters (915 MHz) from saturating its 880 MHz receive chain
// (paper §4, §5b).
type SAWFilter struct {
	// Center is the passband center in Hz.
	Center float64 //ivn:unit Hz
	// HalfWidth is the passband half-width in Hz.
	HalfWidth float64 //ivn:unit Hz
	// TransitionWidth is the skirt width in Hz.
	TransitionWidth float64 //ivn:unit Hz
	// RejectionDB is the stopband rejection (positive dB).
	RejectionDB float64 //ivn:unit dB
	// InsertionLossDB is the passband loss (positive dB).
	InsertionLossDB float64 //ivn:unit dB
}

// DefaultSAW returns a high-rejection front-end filter: ±10 MHz passband,
// 5 MHz skirts, 45 dB rejection, 2 dB insertion loss.
//
//ivn:unit center Hz
func DefaultSAW(center float64) SAWFilter {
	return SAWFilter{
		Center:          center,
		HalfWidth:       10e6,
		TransitionWidth: 5e6,
		RejectionDB:     45,
		InsertionLossDB: 2,
	}
}

// AttenuationDB returns the filter's power attenuation at freq (positive
// dB, including insertion loss).
//
//ivn:unit freq Hz
//ivn:unit return dB
func (f SAWFilter) AttenuationDB(freq float64) float64 {
	off := math.Abs(freq - f.Center)
	switch {
	case off <= f.HalfWidth:
		return f.InsertionLossDB
	case off >= f.HalfWidth+f.TransitionWidth:
		return f.InsertionLossDB + f.RejectionDB
	default:
		// Raised-cosine skirt.
		frac := (off - f.HalfWidth) / f.TransitionWidth
		return f.InsertionLossDB + f.RejectionDB*(1-math.Cos(math.Pi*frac))/2
	}
}

// Apply scales a tone's power (watts) at freq through the filter.
//
//ivn:unit powerWatts W
//ivn:unit freq Hz
//ivn:unit return W
func (f SAWFilter) Apply(powerWatts, freq float64) float64 {
	return powerWatts * math.Pow(10, -f.AttenuationDB(freq)/10)
}

// ToneAt is a received tone: power after the antenna, before the filter.
type ToneAt struct {
	Freq  float64 //ivn:unit Hz
	Power float64 //ivn:unit W
}

// Receiver is a direct-conversion receive chain: SAW pre-filter → LNA with
// a saturation ceiling → baseband. Saturation is the self-jamming failure
// the out-of-band design exists to avoid: when the total post-filter power
// exceeds the LNA's limit, the chain clips and the backscatter sidebands
// are unrecoverable.
type Receiver struct {
	// Center is the LO frequency in Hz.
	Center float64 //ivn:unit Hz
	// Filter is the front-end pre-selector.
	Filter SAWFilter
	// SaturationPower is the LNA input compression limit in watts.
	SaturationPower float64 //ivn:unit W
	// NoiseFloor is the integrated thermal noise power in watts over the
	// receive bandwidth.
	NoiseFloor float64 //ivn:unit W
	// BasebandHalfWidth is the digital channel filter's half-width in Hz.
	// An interfering *tone* outside it — like the CIB carriers 35 MHz
	// away — is removed digitally after the ADC; the SAW filter's job is
	// only to keep it from saturating the analog chain first.
	BasebandHalfWidth float64 //ivn:unit Hz
	// DigitalRejectionDB is the post-ADC rejection applied to tones
	// outside the baseband channel (positive dB).
	DigitalRejectionDB float64 //ivn:unit dB
}

// NewReceiver builds a receiver with a default SAW at the LO, a −20 dBm
// saturation limit, a −90 dBm noise floor, a ±1 MHz digital channel and
// 60 dB digital stopband rejection.
//
//ivn:unit center Hz
func NewReceiver(center float64) *Receiver {
	return &Receiver{
		Center:             center,
		Filter:             DefaultSAW(center),
		SaturationPower:    1e-5,  // −20 dBm
		NoiseFloor:         1e-12, // −90 dBm
		BasebandHalfWidth:  1e6,
		DigitalRejectionDB: 60,
	}
}

// EffectiveInterference returns the interference power that actually
// lands inside the demodulation bandwidth: post-SAW power, further
// reduced by digital rejection for tones outside the baseband channel.
//
//ivn:unit return W
func (r *Receiver) EffectiveInterference(tones []ToneAt) float64 {
	var p float64
	for _, t := range tones {
		v := r.Filter.Apply(t.Power, t.Freq)
		if math.Abs(t.Freq-r.Center) > r.BasebandHalfWidth {
			v *= math.Pow(10, -r.DigitalRejectionDB/10)
		}
		p += v
	}
	return p
}

// PostFilterPower returns the total power reaching the LNA from tones.
//
//ivn:unit return W
func (r *Receiver) PostFilterPower(tones []ToneAt) float64 {
	var p float64
	for _, t := range tones {
		p += r.Filter.Apply(t.Power, t.Freq)
	}
	return p
}

// Saturated reports whether tones drive the LNA past its limit.
func (r *Receiver) Saturated(tones []ToneAt) bool {
	return r.PostFilterPower(tones) > r.SaturationPower
}

// ReceivedBaseband synthesizes the complex baseband a receiver centered at
// f0 observes from a set of carriers, each multiplied by its own channel
// coefficient: y[k] = Σᵢ Aᵢ·hᵢ·e^{j(2π(fᵢ−f0)·k/fs + θᵢ)}. This is the
// signal at the *sensor* (or reader) — the superposition whose envelope
// CIB shapes. chans must have one coefficient per carrier.
//
//ivn:unit f0 Hz
//ivn:unit fs Hz
//ivn:allow unreached entry of the sample-level downlink chain that TestWaveformLevelDownlink validates the flatness abstraction with
func ReceivedBaseband(carriers []Carrier, chans []complex128, f0, fs float64, n int) ([]complex128, error) {
	if len(carriers) != len(chans) {
		return nil, fmt.Errorf("radio: %d carriers but %d channels", len(carriers), len(chans))
	}
	if fs <= 0 || n < 0 {
		return nil, fmt.Errorf("radio: bad capture spec fs=%v n=%d", fs, n)
	}
	out := make([]complex128, n)
	for i, c := range carriers {
		h := chans[i]
		if h == 0 || c.Amplitude == 0 {
			continue
		}
		// Phasor recurrence: one complex multiply per sample, with the
		// magnitude re-normalized every 1024 samples so rounding in the
		// rotation cannot make a long capture's amplitude drift.
		step := 2 * math.Pi * (c.Freq - f0) / fs
		ss, cs := math.Sincos(step)
		rot := complex(cs, ss)
		s0, c0 := math.Sincos(c.Phase)
		cur := complex(c.Amplitude*c0, c.Amplitude*s0) * h
		mag := math.Hypot(real(cur), imag(cur))
		for k := 0; k < n; k++ {
			out[k] += cur
			cur *= rot
			if k&1023 == 1023 {
				m := math.Hypot(real(cur), imag(cur))
				if m != 0 {
					cur *= complex(mag/m, 0)
				}
			}
		}
	}
	return out, nil
}
