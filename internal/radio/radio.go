// Package radio models the software-defined-radio front ends of IVN's
// prototype: per-antenna oscillators with unknown initial phase (the βᵢ of
// the CIB formulation), power amplifiers with compression, antennas, a
// shared reference clock with synchronization jitter, and a receiver front
// end with a SAW pre-filter, LNA saturation (self-jamming) and thermal
// noise.
//
// The paper's hardware (USRP N210 + SBX + HMC453 PA + MT-242025 antennas +
// CDA-2900 Octoclock) is replaced by behavioral models that preserve what
// the algorithms can observe: carrier frequency, random phase at lock,
// amplitude compression, synchronized command timing, and receiver
// saturation.
package radio

import (
	"fmt"
	"math"
	"strconv"

	"ivn/internal/rng"
)

// Carrier is one antenna's emission: a single tone at the antenna port.
// Amplitude is in √watts so that Amplitude² is radiated power (antenna
// gain is applied by the propagation layer).
type Carrier struct {
	// Freq is the absolute carrier frequency in Hz.
	Freq float64 //ivn:unit Hz
	// Phase is the initial phase θᵢ in radians — unknown to any receiver,
	// randomized at every PLL lock.
	Phase float64 //ivn:unit rad
	// Amplitude is the emitted amplitude in √W.
	Amplitude float64 //ivn:unit sqrtW
}

// Oscillator is a PLL-derived carrier source. Different devices lock with
// independent, uniformly random initial phases; this is precisely the
// blindness CIB is designed around (paper §3.3: "Because the frequencies
// are generated by different oscillators (PLLs), the transmitted signals
// have a random initial phase offset θᵢ").
type Oscillator struct {
	// Freq is the synthesized frequency in Hz.
	Freq float64 //ivn:unit Hz

	phase  float64 //ivn:unit rad
	locked bool
}

// Lock (re)locks the PLL, drawing a fresh uniform initial phase.
func (o *Oscillator) Lock(r *rng.Rand) {
	o.phase = r.Phase()
	o.locked = true
}

// Phase returns the initial phase; calling it before Lock is a programming
// error surfaced as a panic because a phase of deterministic zero would
// silently break every blindness assumption downstream.
//
//ivn:unit return rad
func (o *Oscillator) Phase() float64 {
	if !o.locked {
		panic("radio: Oscillator.Phase before Lock")
	}
	return o.phase
}

// PowerAmp is a Rapp-model power amplifier: linear gain with smooth
// saturation near the output 1 dB compression point, matching the
// prototype's HMC453 (P1dB = 30 dBm).
type PowerAmp struct {
	// GainDB is the small-signal power gain.
	GainDB float64 //ivn:unit dB
	// P1dBm is the output 1 dB compression point in dBm.
	P1dBm float64 //ivn:unit dBm
	// Smoothness is the Rapp knee parameter p (default 2).
	Smoothness float64
}

// DefaultPA matches the prototype's amplifier: 20 dB gain, 30 dBm P1dB.
func DefaultPA() PowerAmp { return PowerAmp{GainDB: 20, P1dBm: 30, Smoothness: 2} }

// saturationAmplitude returns the Rapp V_sat (√W) for the configured P1dB.
//
//ivn:unit return sqrtW
func (p PowerAmp) saturationAmplitude() float64 {
	// At the 1 dB compression point the output is 1 dB below linear.
	// For the Rapp model with knee p: Pout/Plin = (1+(A/Vsat)^{2p})^{-1/p}.
	// Solve for Vsat with the output amplitude at P1dB.
	p1Watts := math.Pow(10, (p.P1dBm-30)/10)
	aOut := math.Sqrt(p1Watts)
	pp := p.Smoothness
	if pp <= 0 {
		pp = 2
	}
	// 1 dB compression: (1+x^{2p})^{1/(2p)} = 10^{1/20}·... derive:
	// aLin/aOut = 10^{1/20} ⇒ x^{2p} = 10^{2p/20}·... Simpler: at P1dB the
	// compression factor c = aOut/aLin = 10^{-1/20}. With Rapp,
	// c = (1+(aLin/Vsat)^{2p})^{-1/(2p)}. Let y = (aLin/Vsat)^{2p}:
	// y = c^{-2p} − 1, and aLin = aOut/c.
	c := math.Pow(10, -1.0/20)
	y := math.Pow(c, -2*pp) - 1
	aLin := aOut / c
	return aLin / math.Pow(y, 1/(2*pp))
}

// Amplify maps an input amplitude (√W) to the output amplitude through the
// Rapp nonlinearity.
//
//ivn:unit in sqrtW
//ivn:unit return sqrtW
func (p PowerAmp) Amplify(in float64) float64 {
	if in <= 0 {
		return 0
	}
	g := math.Pow(10, p.GainDB/20)
	vsat := p.saturationAmplitude()
	pp := p.Smoothness
	if pp <= 0 {
		pp = 2
	}
	lin := g * in
	return lin / math.Pow(1+math.Pow(lin/vsat, 2*pp), 1/(2*pp))
}

// MaxOutputAmplitude returns the hard ceiling the Rapp model approaches.
//
//ivn:unit return sqrtW
func (p PowerAmp) MaxOutputAmplitude() float64 { return p.saturationAmplitude() }

// DriveFor returns the input amplitude that produces the requested output
// amplitude, found by bisection through the Rapp nonlinearity. It errors
// when the request exceeds the amplifier's saturation ceiling.
//
//ivn:unit outputAmp sqrtW
//ivn:unit return sqrtW
func (p PowerAmp) DriveFor(outputAmp float64) (float64, error) {
	if outputAmp <= 0 {
		return 0, fmt.Errorf("radio: output amplitude %v <= 0", outputAmp)
	}
	if outputAmp >= p.MaxOutputAmplitude() {
		return 0, fmt.Errorf("radio: output %v √W exceeds saturation %v √W", outputAmp, p.MaxOutputAmplitude())
	}
	g := math.Pow(10, p.GainDB/20)
	lo, hi := 0.0, 10*outputAmp/g+1
	for p.Amplify(hi) < outputAmp {
		hi *= 2
		if hi > 1e12 {
			return 0, fmt.Errorf("radio: cannot reach output %v √W", outputAmp)
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if p.Amplify(mid) < outputAmp {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// defaultDrive is DefaultPA's operating drive, searched once when the
// package initialises. The prototype runs every chain there, so trial
// loops read it instead of repeating the bisection; it comes from the
// same search as any other amplifier's operating drive, so it is that
// search's exact result.
//
//ivn:unit sqrtW
var defaultDrive = DefaultPA().operatingDrive()

// OperatingDrive returns the drive that puts the amplifier exactly at its
// rated operating point (output = P1dB) — how the prototype runs its
// HMC453 chains at 30 dBm.
//
//ivn:unit return sqrtW
func (p PowerAmp) OperatingDrive() float64 {
	if p == DefaultPA() {
		return defaultDrive
	}
	return p.operatingDrive()
}

//ivn:unit return sqrtW
func (p PowerAmp) operatingDrive() float64 {
	out := math.Sqrt(math.Pow(10, (p.P1dBm-30)/10))
	d, err := p.DriveFor(out)
	if err != nil {
		// P1dB is below saturation by construction; unreachable.
		panic(fmt.Sprintf("radio: %v", err))
	}
	return d
}

// Antenna is a gain element; orientation effects live in the propagation
// layer's channel model.
type Antenna struct {
	// GainDBi is the boresight gain over isotropic. The prototype's
	// MT-242025 panels are 7 dBi.
	GainDBi float64 //ivn:unit dBi
}

// TxChain is one transmit path: oscillator → drive → PA → antenna port.
type TxChain struct {
	Osc *Oscillator
	PA  PowerAmp
	Ant Antenna
	// DriveAmplitude is the baseband drive into the PA in √W.
	DriveAmplitude float64 //ivn:unit sqrtW
}

// Carrier returns the chain's emitted tone. The antenna's gain is NOT
// folded in (propagation applies it) — Carrier describes the port.
func (c *TxChain) Carrier() Carrier {
	return Carrier{
		Freq:      c.Osc.Freq,
		Phase:     c.Osc.Phase(),
		Amplitude: c.PA.Amplify(c.DriveAmplitude),
	}
}

// Array is a set of transmit chains. A shared reference clock aligns
// command *timing* across the chains (the "coherent" half of
// coherently-incoherent beamforming) but does nothing for carrier phase:
// each PLL still locks at a random phase (the "incoherent" half).
type Array struct {
	Chains []*TxChain
}

// NewUniformArray builds n chains at the given frequencies with identical
// PA/antenna/drive settings. len(freqs) must equal n. The chains, their
// oscillators and the pointer slice come from three block allocations —
// arrays are rebuilt once per trial on the Fig9/Fig13 hot paths, so the
// per-chain object count matters.
//
//ivn:unit freqs Hz
//ivn:unit drive sqrtW
func NewUniformArray(freqs []float64, drive float64, pa PowerAmp, ant Antenna) (*Array, error) {
	if len(freqs) == 0 {
		return nil, fmt.Errorf("radio: empty frequency list")
	}
	if drive <= 0 {
		return nil, fmt.Errorf("radio: drive amplitude %v <= 0", drive)
	}
	for _, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("radio: carrier frequency %v <= 0", f)
		}
	}
	a := &Array{Chains: make([]*TxChain, len(freqs))}
	chains := make([]TxChain, len(freqs))
	oscs := make([]Oscillator, len(freqs))
	for i, f := range freqs {
		oscs[i] = Oscillator{Freq: f}
		chains[i] = TxChain{
			Osc:            &oscs[i],
			PA:             pa,
			Ant:            ant,
			DriveAmplitude: drive,
		}
		a.Chains[i] = &chains[i]
	}
	return a, nil
}

// Lock locks every chain's PLL with independent random phases. The split
// labels are built in a stack buffer — byte-identical to the historical
// fmt.Sprintf("pll-%d", i) labels, so the phase streams are unchanged —
// and the child generators live on the stack, keeping Lock allocation-free.
func (a *Array) Lock(r *rng.Rand) {
	var buf [16]byte
	var child rng.Rand
	for i, c := range a.Chains {
		label := strconv.AppendInt(append(buf[:0], "pll-"...), int64(i), 10)
		r.SplitBytesInto(&child, label)
		c.Osc.Lock(&child)
	}
}

// Carriers returns the emitted tone set.
func (a *Array) Carriers() []Carrier {
	return a.AppendCarriers(nil)
}

// AppendCarriers appends the emitted tone set to dst and returns it,
// letting per-trial callers reuse one carrier buffer across trials.
func (a *Array) AppendCarriers(dst []Carrier) []Carrier {
	for _, c := range a.Chains {
		dst = append(dst, c.Carrier())
	}
	return dst
}

// CarrierFault perturbs a chain's emission for one observation epoch —
// the injection seam for antenna dropout (amplitude → 0) and PLL re-lock
// (phase jump) faults. Implementations must be pure functions of the
// chain index and their own state so that identical fault schedules
// reproduce across runs (see ivn/internal/fault). A nil CarrierFault is
// the healthy array.
type CarrierFault interface {
	// PerturbCarrier returns chain i's emitted tone after the fault.
	PerturbCarrier(chain int, c Carrier) Carrier
}

// PerturbedCarriers returns the tone set after applying a carrier fault;
// a nil fault returns Carriers() unchanged. The chains themselves are
// never mutated — a fault is an observation-epoch overlay, and the next
// epoch sees the healthy emissions again unless the fault re-fires.
func (a *Array) PerturbedCarriers(f CarrierFault) []Carrier {
	out := a.Carriers()
	if f == nil {
		return out
	}
	for i := range out {
		out[i] = f.PerturbCarrier(i, out[i])
	}
	return out
}
