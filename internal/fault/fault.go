// Package fault is the deterministic fault-injection layer of the IVN
// simulator: it perturbs the stack at well-defined seams so the recovery
// machinery (retry budgets, Q-adaptation, re-query with backoff) can be
// exercised and regression-checked against degraded-channel conditions —
// the regime the paper's in-vivo evaluation (§6) actually lives in.
//
// Every decision an Injector makes is a pure function of its seed and the
// decision coordinates (command index, tag index, chain index, round).
// That gives two properties the experiment harness depends on:
//
//  1. Identical seeds produce byte-identical fault schedules, at any
//     GOMAXPROCS, regardless of how the consuming code interleaves its
//     queries — there is no internal stream to perturb.
//  2. Two protocol variants (e.g. recovery on vs off) driven by the same
//     injector see the same underlying fault process, so ablations are
//     paired rather than merely identically distributed.
//
// Consumers never import this package's types directly on their hot
// paths: each seam is a one-method interface declared by the consuming
// package (session.ChannelFault, reader.DecodeFault, radio.CarrierFault,
// tag.PowerFault) with nil meaning fault-free, so the unfaulted path
// costs a nil check and nothing else.
package fault

import (
	"math"

	"ivn/internal/gen2"
	"ivn/internal/radio"
	"ivn/internal/reader"
	"ivn/internal/session"
	"ivn/internal/tag"
)

// Compile-time checks that the injector satisfies every consuming seam.
var (
	_ session.ChannelFault = (*Injector)(nil)
	_ reader.DecodeFault   = (*Injector)(nil)
	_ radio.CarrierFault   = carrierEpoch{}
	_ tag.PowerFault       = tagDrift{}
)

// Config sets the intensity of each fault process. All rates are
// probabilities in [0,1]; a zero value disables that fault entirely.
type Config struct {
	// CommandTruncation is the per-command probability a reader command
	// is truncated in flight — no tag receives it (downlink PIE envelope
	// broken mid-frame).
	CommandTruncation float64
	// UplinkCorruption is the per-reply probability a singulated tag's
	// backscatter is corrupted at the reader: bit flips, occasionally a
	// truncated capture.
	UplinkCorruption float64
	// Brownout is the per-window, per-tag probability the tag's rail
	// collapses (the CIB envelope peak drifts off the sensor mid-round).
	// A browned-out tag is silent and loses all volatile protocol state.
	Brownout float64
	// BrownoutWindow is the brownout granularity in reader commands: each
	// tag is dark or lit for whole windows of this many commands
	// (0 → DefaultBrownoutWindow).
	BrownoutWindow int
	// PeakDrift is the per-round, per-tag probability that the envelope
	// peak sits off the sensor for the entire round (subject motion
	// between rounds), leaving only PeakDriftResidual of the power.
	PeakDrift float64
	// PLLRelock is the per-round, per-chain probability the chain's PLL
	// re-locks, jumping to a fresh uniform phase mid-experiment.
	PLLRelock float64
	// AntennaDropout is the per-round, per-chain probability the chain
	// emits nothing for the round (cable/PA fault).
	AntennaDropout float64
}

// DefaultBrownoutWindow is the brownout granularity when
// Config.BrownoutWindow is zero.
const DefaultBrownoutWindow = 8

// PeakDriftResidual is the fraction of envelope peak power that still
// reaches a sensor during a peak-drift round.
const PeakDriftResidual = 0.1

// DefaultConfig is the unit-intensity fault matrix entry: rates
// calibrated so that, against a six-tag population, the no-recovery
// ablation shows clear degradation while the recovery stack holds the
// fault-free success rate (see the ivnsim faultmatrix experiment).
func DefaultConfig() Config {
	return Config{
		CommandTruncation: 0.02,
		UplinkCorruption:  0.12,
		Brownout:          0.03,
		BrownoutWindow:    DefaultBrownoutWindow,
		PeakDrift:         0.03,
		PLLRelock:         0.05,
		AntennaDropout:    0.03,
	}
}

// Scale returns a copy of c with every rate multiplied by k and clamped
// to [0,1]. Window lengths are structural, not intensities, and are
// preserved. Scale(0) is the fault-free configuration.
func (c Config) Scale(k float64) Config {
	s := func(p float64) float64 {
		p *= k
		if p < 0 {
			return 0
		}
		if p > 1 {
			return 1
		}
		return p
	}
	c.CommandTruncation = s(c.CommandTruncation)
	c.UplinkCorruption = s(c.UplinkCorruption)
	c.Brownout = s(c.Brownout)
	c.PeakDrift = s(c.PeakDrift)
	c.PLLRelock = s(c.PLLRelock)
	c.AntennaDropout = s(c.AntennaDropout)
	return c
}

// DefaultScales is the committed fault matrix: the intensity multiples of
// DefaultConfig the faultmatrix experiment sweeps. Scale 0 doubles as the
// fault-free baseline row.
func DefaultScales() []float64 { return []float64{0, 0.5, 1, 2} }

// Decision domains keep the per-seam hash streams disjoint.
const (
	domTruncate uint64 = iota + 1
	domBrownout
	domCorrupt
	domCorruptBurst
	domCorruptPos
	domCorruptTail
	domRelock
	domRelockPhase
	domDropout
	domDrift
	domCapture
)

// Injector realizes one fault schedule. It is stateless beyond its
// configuration, safe for concurrent use, and every method is a pure
// function of (seed, coordinates).
type Injector struct {
	cfg  Config
	base uint64
}

// NewInjector builds an injector for the given configuration and seed.
// Equal (cfg, seed) pairs produce identical schedules.
func NewInjector(cfg Config, seed uint64) *Injector {
	return &Injector{cfg: cfg, base: splitmix(seed ^ 0x5bf0_3635_0c38_f7c1)}
}

// splitmix is one SplitMix64 diffusion round (same construction the rng
// package uses to expand seeds).
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// draw returns a uniform [0,1) variate for one decision coordinate.
func (inj *Injector) draw(domain, a, b uint64) float64 {
	h := splitmix(inj.base ^ domain)
	h = splitmix(h ^ a)
	h = splitmix(h ^ b)
	return float64(h>>11) / (1 << 53)
}

// CommandTruncated implements session.ChannelFault: whether reader command
// cmd is truncated in flight.
func (inj *Injector) CommandTruncated(cmd int) bool {
	p := inj.cfg.CommandTruncation
	return p > 0 && inj.draw(domTruncate, uint64(cmd), 0) < p
}

// TagPowered implements session.ChannelFault: whether tag tagIndex has its
// rail up when command cmd arrives. Brownouts last whole windows of
// BrownoutWindow commands.
func (inj *Injector) TagPowered(cmd, tagIndex int) bool {
	p := inj.cfg.Brownout
	if p <= 0 {
		return true
	}
	w := inj.cfg.BrownoutWindow
	if w <= 0 {
		w = DefaultBrownoutWindow
	}
	window := cmd / w
	return inj.draw(domBrownout, uint64(window), uint64(tagIndex)) >= p
}

// CorruptUplink implements session.ChannelFault: with probability
// UplinkCorruption it returns a corrupted copy of a reply's payload bits
// (1–3 bit flips; one capture in four also loses its tail) and true.
// The input slice is never mutated.
func (inj *Injector) CorruptUplink(cmd int, bits gen2.Bits) (gen2.Bits, bool) {
	p := inj.cfg.UplinkCorruption
	if p <= 0 || len(bits) == 0 {
		return bits, false
	}
	if inj.draw(domCorrupt, uint64(cmd), 0) >= p {
		return bits, false
	}
	out := append(gen2.Bits(nil), bits...)
	flips := 1 + int(inj.draw(domCorruptBurst, uint64(cmd), 0)*3)
	for k := 0; k < flips; k++ {
		pos := int(inj.draw(domCorruptPos, uint64(cmd), uint64(k)) * float64(len(out)))
		if pos >= len(out) {
			pos = len(out) - 1
		}
		out[pos] ^= 1
	}
	if inj.draw(domCorruptTail, uint64(cmd), 0) < 0.25 {
		out = out[:len(out)*3/4]
	}
	return out, true
}

// CaptureCorrupted implements reader.DecodeFault: whether decode attempt
// `attempt` of exchange `exchange` observes an unusable capture (a CIB
// PLL re-locked mid-capture, breaking the coherent averaging).
func (inj *Injector) CaptureCorrupted(exchange, attempt int) bool {
	p := inj.cfg.UplinkCorruption
	return p > 0 && inj.draw(domCapture, uint64(exchange), uint64(attempt)) < p
}

// carrierEpoch applies the per-round carrier faults of one inventory
// round; it implements radio.CarrierFault.
type carrierEpoch struct {
	inj   *Injector
	round int
}

// PerturbCarrier applies antenna dropout (amplitude → 0) and PLL re-lock
// (fresh uniform phase) to chain i's emission for this epoch's round.
func (e carrierEpoch) PerturbCarrier(chain int, c radio.Carrier) radio.Carrier {
	cfg := e.inj.cfg
	if cfg.AntennaDropout > 0 &&
		e.inj.draw(domDropout, uint64(e.round), uint64(chain)) < cfg.AntennaDropout {
		c.Amplitude = 0
		return c
	}
	if cfg.PLLRelock > 0 &&
		e.inj.draw(domRelock, uint64(e.round), uint64(chain)) < cfg.PLLRelock {
		c.Phase = 2 * math.Pi * e.inj.draw(domRelockPhase, uint64(e.round), uint64(chain))
	}
	return c
}

// CarrierFault returns the radio.CarrierFault view of round `round`.
func (inj *Injector) CarrierFault(round int) radio.CarrierFault {
	return carrierEpoch{inj: inj, round: round}
}

// tagDrift applies per-round envelope-peak drift for one tag; it
// implements tag.PowerFault.
type tagDrift struct {
	inj      *Injector
	tagIndex int
}

// PeakScale returns the multiplicative power scale tag tagIndex harvests
// at during round `event`: 1 normally, PeakDriftResidual during a drift.
func (d tagDrift) PeakScale(event int) float64 {
	p := d.inj.cfg.PeakDrift
	if p <= 0 {
		return 1
	}
	if d.inj.draw(domDrift, uint64(event), uint64(d.tagIndex)) < p {
		return PeakDriftResidual
	}
	return 1
}

// PowerFault returns the tag.PowerFault view of tag tagIndex.
func (inj *Injector) PowerFault(tagIndex int) tag.PowerFault {
	return tagDrift{inj: inj, tagIndex: tagIndex}
}
