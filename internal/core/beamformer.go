package core

import (
	"fmt"
	"math"

	"ivn/internal/gen2"
	"ivn/internal/radio"
	"ivn/internal/rng"
)

// Beamformer is the CIB transmitter: an antenna array whose chains emit
// the same synchronized Gen2 command on offset carriers fᵢ = f₀ + Δfᵢ.
type Beamformer struct {
	// CenterFreq is f₀ (the prototype uses 915 MHz).
	CenterFreq float64 //ivn:unit Hz
	// Offsets is the Δf plan; Offsets[0] must be 0.
	Offsets []float64 //ivn:unit Hz
	// Array is the transmit hardware (one chain per offset).
	Array *radio.Array
	// PIE is the downlink line coding shared by all chains.
	PIE gen2.PIEParams

	// bits is serialization scratch for the air-time paths; reusing it
	// makes CommandAirTime allocation-free but not concurrency-safe on a
	// shared Beamformer (each trial owns its own, so this never bites).
	bits gen2.Bits
}

// Config assembles a Beamformer.
type Config struct {
	// CenterFreq is f₀ in Hz; zero means 915 MHz.
	CenterFreq float64 //ivn:unit Hz
	// Offsets is the Δf plan; nil means PaperOffsets truncated/validated
	// to Antennas entries.
	Offsets []float64 //ivn:unit Hz
	// Antennas is the chain count; zero means len(Offsets).
	Antennas int
	// DriveAmplitude is the per-chain PA drive in √W; zero means a drive
	// that saturates the default PA near its 30 dBm P1dB (1 W out).
	DriveAmplitude float64 //ivn:unit sqrtW
	// PA and Ant configure each chain; zero values mean the prototype's
	// 30 dBm-P1dB amplifier and 7 dBi antennas.
	PA  radio.PowerAmp
	Ant radio.Antenna
	// SampleRate is the envelope synthesis rate for PIE; zero means 8 MHz.
	SampleRate float64 //ivn:unit Hz
}

// DefaultConfig mirrors the paper's prototype: 915 MHz center, the
// published 10-offset plan, 30 dBm chains, 7 dBi antennas.
func DefaultConfig() Config {
	return Config{
		CenterFreq: 915e6,
		Offsets:    PaperOffsets(),
		PA:         radio.DefaultPA(),
		Ant:        radio.Antenna{GainDBi: 7},
		SampleRate: 8e6,
	}
}

// New builds a Beamformer from cfg and locks its oscillators from r.
func New(cfg Config, r *rng.Rand) (*Beamformer, error) {
	if cfg.CenterFreq == 0 {
		cfg.CenterFreq = 915e6
	}
	if cfg.CenterFreq <= 0 {
		return nil, fmt.Errorf("core: center frequency %v <= 0", cfg.CenterFreq)
	}
	if cfg.Offsets == nil {
		cfg.Offsets = PaperOffsets()
	}
	if cfg.Antennas == 0 {
		cfg.Antennas = len(cfg.Offsets)
	}
	if cfg.Antennas < 1 || cfg.Antennas > len(cfg.Offsets) {
		return nil, fmt.Errorf("core: %d antennas with %d offsets", cfg.Antennas, len(cfg.Offsets))
	}
	offsets := append([]float64(nil), cfg.Offsets[:cfg.Antennas]...)
	if err := ValidateOffsets(offsets); err != nil {
		return nil, err
	}
	if cfg.PA == (radio.PowerAmp{}) {
		cfg.PA = radio.DefaultPA()
	}
	if cfg.DriveAmplitude == 0 {
		// Drive each chain to its rated 30 dBm (1 W) operating point.
		cfg.DriveAmplitude = cfg.PA.OperatingDrive()
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 8e6
	}
	freqs := make([]float64, len(offsets))
	for i, df := range offsets {
		freqs[i] = cfg.CenterFreq + df
	}
	arr, err := radio.NewUniformArray(freqs, cfg.DriveAmplitude, cfg.PA, cfg.Ant)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("core: nil RNG")
	}
	arr.Lock(r)
	return &Beamformer{
		CenterFreq: cfg.CenterFreq,
		Offsets:    offsets,
		Array:      arr,
		PIE:        gen2.DefaultPIE(cfg.SampleRate),
	}, nil
}

// N returns the antenna count.
func (b *Beamformer) N() int { return len(b.Offsets) }

// Relock re-randomizes every PLL phase — a new "trial" in the paper's
// experimental sense.
func (b *Beamformer) Relock(r *rng.Rand) { b.Array.Lock(r) }

// Carriers returns the emitted tone set for CW (power-delivery) intervals.
func (b *Beamformer) Carriers() []radio.Carrier { return b.Array.Carriers() }

// AppendCarriers appends the emitted tone set to dst and returns it.
func (b *Beamformer) AppendCarriers(dst []radio.Carrier) []radio.Carrier {
	return b.Array.AppendCarriers(dst)
}

// EqualPowerCarriers returns the tone set with per-chain amplitude scaled
// by 1/√N so total radiated power matches a single chain — the paper's
// note that CIB still yields an N× peak-power gain under a fixed power
// budget (§3.4).
func (b *Beamformer) EqualPowerCarriers() []radio.Carrier {
	cs := b.Array.Carriers()
	scale := 1 / math.Sqrt(float64(len(cs)))
	for i := range cs {
		cs[i].Amplitude *= scale
	}
	return cs
}

// Transmission is one synchronized downlink command: the carriers plus the
// shared PIE amplitude envelope they all modulate. At any receiver the
// observed envelope is the product of the beamforming envelope (set by the
// carrier offsets and channel phases) and this command envelope — the
// tag sees the same command edges from every antenna because the
// transmissions are time-synchronized (§3.2).
type Transmission struct {
	Carriers []radio.Carrier
	// Envelope is the PIE amplitude sequence at SampleRate.
	Envelope []float64
	// SampleRate is the envelope sample rate in Hz.
	SampleRate float64 //ivn:unit Hz
	// Duration is the command's on-air time in seconds.
	Duration float64 //ivn:unit s
	// Command is the serialized frame for reference.
	Command gen2.Bits
}

// TransmitCommand builds the synchronized transmission for cmd, verifying
// that the frequency plan keeps the envelope flat enough over the
// command's actual duration (Eq. 9 with Δt = this command's length, which
// covers the §3.7 multi-sensor case of longer Select+Query compounds).
//
//ivn:allow unreached entry of the sample-level downlink chain that TestWaveformLevelDownlink validates the flatness abstraction with
func (b *Beamformer) TransmitCommand(cmd gen2.Command, preamble bool) (*Transmission, error) {
	bits := cmd.AppendBits(nil)
	dur := b.PIE.FrameDuration(bits, preamble)
	ok, err := SatisfiesFlatness(b.Offsets, DefaultFlatnessAlpha, dur)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: offset plan RMS %.1f Hz violates flatness for a %.0f µs command",
			RMSOffset(b.Offsets), dur*1e6)
	}
	env, err := b.PIE.EncodeFrame(bits, preamble)
	if err != nil {
		return nil, err
	}
	return &Transmission{
		Carriers:   b.Carriers(),
		Envelope:   env,
		SampleRate: b.PIE.SampleRate,
		Duration:   dur,
		Command:    bits,
	}, nil
}

// CommandAirTime returns cmd's on-air duration after running exactly the
// validation gauntlet of TransmitCommand — flatness over the command's
// duration, then the PIE and bit checks EncodeFrame would apply — without
// synthesizing the amplitude envelope. The envelope is dead weight for
// consumers that only advance time and evaluate decodability analytically
// (the session/link exchange path); skipping it removes the dominant
// per-trial byte cost of the Fig13 experiments. Serialization scratch is
// reused across calls, so this allocates nothing in steady state.
//
//ivn:unit return s
func (b *Beamformer) CommandAirTime(cmd gen2.Command, preamble bool) (float64, error) {
	b.bits = cmd.AppendBits(b.bits[:0])
	dur := b.PIE.FrameDuration(b.bits, preamble)
	ok, err := SatisfiesFlatness(b.Offsets, DefaultFlatnessAlpha, dur)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("core: offset plan RMS %.1f Hz violates flatness for a %.0f µs command",
			RMSOffset(b.Offsets), dur*1e6)
	}
	if err := b.PIE.Validate(); err != nil {
		return 0, err
	}
	if err := b.bits.Validate(); err != nil {
		return 0, err
	}
	return dur, nil
}

// SelectQueryAirTime is CommandAirTime for the §3.7 Select+Query compound
// (a Select addressing one sensor's EPC prefix, then a Query): the
// flatness constraint is checked against the combined duration and then
// each command is vetted individually.
func (b *Beamformer) SelectQueryAirTime(sel *gen2.Select, q *gen2.Query) (selDur, qDur float64, err error) {
	b.bits = sel.AppendBits(b.bits[:0])
	total := b.PIE.FrameDuration(b.bits, false)
	b.bits = q.AppendBits(b.bits[:0])
	total += b.PIE.FrameDuration(b.bits, true)
	ok, err := SatisfiesFlatness(b.Offsets, DefaultFlatnessAlpha, total)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, 0, fmt.Errorf("core: offset plan violates flatness over the %.0f µs Select+Query compound", total*1e6)
	}
	if selDur, err = b.CommandAirTime(sel, false); err != nil {
		return 0, 0, err
	}
	if qDur, err = b.CommandAirTime(q, true); err != nil {
		return 0, 0, err
	}
	return selDur, qDur, nil
}

// HopCenter implements the §3.7 frequency-hopping extension: given a probe
// function reporting delivered peak power at a candidate center frequency,
// it moves the beamformer to the best band. Returns the chosen center.
//
//ivn:unit candidates Hz
//ivn:unit return Hz
func (b *Beamformer) HopCenter(candidates []float64, probe func(center float64) float64) (float64, error) {
	if len(candidates) == 0 {
		return 0, fmt.Errorf("core: no candidate centers")
	}
	best, bestP := candidates[0], probe(candidates[0])
	for _, c := range candidates[1:] {
		if p := probe(c); p > bestP {
			best, bestP = c, p
		}
	}
	b.CenterFreq = best
	for i, chain := range b.Array.Chains {
		chain.Osc.Freq = best + b.Offsets[i]
	}
	return best, nil
}
