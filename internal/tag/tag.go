// Package tag models IVN's battery-free backscatter sensors: the antenna
// and matching network that turn incident RF power into harvester drive
// voltage, the threshold-limited rectifier, the Gen2 protocol logic, and
// the backscatter modulator.
//
// Two presets mirror the paper's devices (§5c): the standard Avery
// Dennison AD-238u8 (1.4 cm × 7 cm) and the miniature Xerafy Dash-On XS
// (1.2 cm × 0.3 cm × 0.22 cm). The miniature tag's much smaller effective
// aperture (paper Eq. 3) is captured as a ≈20 dB harvesting deficit,
// calibrated so the standard tag's single-antenna free-space range lands
// at the paper's ≈5.2 m and the miniature tag's at ≈0.5 m.
package tag

import (
	"fmt"
	"math"

	"ivn/internal/circuit"
	"ivn/internal/gen2"
	"ivn/internal/rng"
)

// AntennaResistance is the assumed radiation resistance at the harvester
// input, ohms.
const AntennaResistance = 50.0

// Model is the RF/analog personality of a tag type.
type Model struct {
	// Name identifies the model in output.
	Name string
	// Dims is the physical size in meters (documentation; the electrical
	// consequences are captured by GainDBi and MatchingBoost).
	Dims [3]float64
	// GainDBi is the antenna gain. Miniature antennas are both lower-gain
	// and less efficient; the efficiency deficit is folded in here.
	GainDBi float64
	// MatchingBoost is the passive voltage magnification of the matching
	// network (L-match Q). Electrically small antennas are harder to
	// match, so the miniature tag gets a lower boost.
	MatchingBoost float64
	// Stages and ThresholdVoltage define the charge-pump harvester.
	Stages int
	// ThresholdVoltage is the per-diode threshold (200–400 mV for
	// standard IC processes, §2.1.1).
	ThresholdVoltage float64
	// OperatingVoltage is the DC rail the logic needs.
	OperatingVoltage float64
	// BackscatterDepth is the amplitude modulation depth of the
	// reflection coefficient switch, in (0,1].
	BackscatterDepth float64
	// BackscatterGain is the fraction of incident amplitude re-radiated
	// in the absorbing state (structural + antenna-mode scattering).
	BackscatterGain float64
}

// StandardTag models the Avery Dennison AD-238u8: a full-size label
// antenna, calibrated to a ≈5.2 m single-antenna free-space range against
// IVN's 30 dBm / 7 dBi transmit chain.
func StandardTag() Model {
	return Model{
		Name:             "standard (AD-238u8)",
		Dims:             [3]float64{0.07, 0.014, 0.0002},
		GainDBi:          2.15,
		MatchingBoost:    5,
		Stages:           4,
		ThresholdVoltage: 0.3,
		OperatingVoltage: 1.6,
		BackscatterDepth: 0.8,
		BackscatterGain:  0.33,
	}
}

// MiniatureTag models the Xerafy Dash-On XS: a millimeter-scale antenna
// with ≈20 dB less harvesting ability (aperture + matching), calibrated to
// a ≈0.5 m single-antenna free-space range.
func MiniatureTag() Model {
	return Model{
		Name:             "miniature (Dash-On XS)",
		Dims:             [3]float64{0.012, 0.003, 0.0022},
		GainDBi:          -10.5,
		MatchingBoost:    2,
		Stages:           4,
		ThresholdVoltage: 0.3,
		OperatingVoltage: 1.6,
		BackscatterDepth: 0.8,
		BackscatterGain:  0.33,
	}
}

// Validate checks the model's parameters.
func (m Model) Validate() error {
	if m.MatchingBoost <= 0 {
		return fmt.Errorf("tag: matching boost %v <= 0", m.MatchingBoost)
	}
	if m.Stages < 1 {
		return fmt.Errorf("tag: %d stages", m.Stages)
	}
	if m.ThresholdVoltage < 0 {
		return fmt.Errorf("tag: negative threshold")
	}
	if m.OperatingVoltage <= 0 {
		return fmt.Errorf("tag: operating voltage %v <= 0", m.OperatingVoltage)
	}
	if m.BackscatterDepth <= 0 || m.BackscatterDepth > 1 {
		return fmt.Errorf("tag: backscatter depth %v outside (0,1]", m.BackscatterDepth)
	}
	if m.BackscatterGain <= 0 || m.BackscatterGain > 1 {
		return fmt.Errorf("tag: backscatter gain %v outside (0,1]", m.BackscatterGain)
	}
	return nil
}

// AntennaAmplitudeGain returns √(10^{dBi/10}).
func (m Model) AntennaAmplitudeGain() float64 { return math.Pow(10, m.GainDBi/20) }

// InputVoltage converts received RF power at the antenna port (watts,
// already including antenna gain) into the peak RF voltage presented to
// the rectifier: V = Q·√(2·P·R).
func (m Model) InputVoltage(rxPowerWatts float64) float64 {
	if rxPowerWatts <= 0 {
		return 0
	}
	return m.MatchingBoost * math.Sqrt(2*rxPowerWatts*AntennaResistance)
}

// Rectifier builds the model's harvester.
func (m Model) Rectifier() *circuit.Rectifier {
	r, err := circuit.NewRectifier(m.Stages, m.ThresholdVoltage)
	if err != nil {
		// Parameters validated by Validate; this is unreachable for the
		// presets but keeps the zero-value failure loud.
		panic(fmt.Sprintf("tag: %v", err))
	}
	return r
}

// DCVoltageAtPeak returns the harvester's steady-state output when the
// envelope peak RF power at the port is peakWatts (paper Eq. 1 applied at
// the peak — CIB's whole premise is that the peak, not the average, must
// clear the threshold).
func (m Model) DCVoltageAtPeak(peakWatts float64) float64 {
	return m.Rectifier().SteadyStateVoltage(m.InputVoltage(peakWatts))
}

// PowersUp reports whether an envelope peak power of peakWatts (at the
// antenna port, isotropic) lets the tag reach its operating rail. The
// antenna gain is applied here.
func (m Model) PowersUp(peakWattsIsotropic float64) bool {
	g := m.AntennaAmplitudeGain()
	return m.DCVoltageAtPeak(peakWattsIsotropic*g*g) >= m.OperatingVoltage
}

// MinPeakPower returns the minimum isotropic-port envelope peak power
// (watts) that powers the tag up — the sensitivity the range experiments
// sweep against.
func (m Model) MinPeakPower() float64 {
	// Invert V_DC = N·(Q·√(2PR)·g − V_th) = V_op.
	vs := m.ThresholdVoltage + m.OperatingVoltage/float64(m.Stages)
	v := vs / m.MatchingBoost
	p := v * v / (2 * AntennaResistance)
	g := m.AntennaAmplitudeGain()
	return p / (g * g)
}

// SensitivityDBm returns MinPeakPower in dBm.
func (m Model) SensitivityDBm() float64 {
	return 10*math.Log10(m.MinPeakPower()) + 30
}

// PowerFault scales the envelope peak power a tag harvests at a given
// observation event — the injection seam for CIB peak drift (the envelope
// maximum wandering off the sensor with subject motion). Implementations
// must be pure functions of the event index and their own state (see
// ivn/internal/fault). A nil PowerFault harvests the full peak.
type PowerFault interface {
	// PeakScale returns the multiplicative power factor in [0,1] for
	// observation event `event` (experiments use the round index).
	PeakScale(event int) float64
}

// Tag is a live sensor instance: a model plus protocol state and power
// bookkeeping.
type Tag struct {
	Model Model
	Logic *gen2.TagLogic
	// Fault optionally derates the harvested peak per observation event;
	// nil means the tag always sees the full envelope peak.
	Fault PowerFault

	powered bool
}

// New builds a tag with the given model and EPC.
func New(m Model, epc []byte, r *rng.Rand) (*Tag, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	logic, err := gen2.NewTagLogic(epc, r)
	if err != nil {
		return nil, err
	}
	return &Tag{Model: m, Logic: logic}, nil
}

// Powered reports whether the tag currently has its rail up.
func (t *Tag) Powered() bool { return t.powered }

// UpdatePower applies the current envelope peak power (isotropic port
// watts). Losing power resets the protocol state, as a real passive tag's
// volatile state dies with its rail.
func (t *Tag) UpdatePower(peakWattsIsotropic float64) {
	up := t.Model.PowersUp(peakWattsIsotropic)
	if t.powered && !up {
		t.Logic.PowerReset()
	}
	t.powered = up
}

// UpdatePowerAt applies the envelope peak power for observation event
// `event`, derated through the tag's PowerFault when one is installed.
// With a nil Fault it is exactly UpdatePower.
func (t *Tag) UpdatePowerAt(event int, peakWattsIsotropic float64) {
	if t.Fault != nil {
		peakWattsIsotropic *= t.Fault.PeakScale(event)
	}
	t.UpdatePower(peakWattsIsotropic)
}

// HandleCommand runs the protocol when powered; an unpowered tag is
// silent.
func (t *Tag) HandleCommand(c gen2.Command) gen2.Reply {
	if !t.powered {
		return gen2.Reply{Kind: gen2.ReplyNone}
	}
	return t.Logic.HandleCommand(c)
}

// BackscatterWaveform renders a reply as the amplitude-modulation factor
// the tag imposes on the illuminating carrier: line-coded levels mapped
// into [1−depth, 1]·gain. The encoding follows the round's Query M field
// (FM0 by default, Miller 2/4/8 otherwise). The reader sees this waveform
// scaled by the incident amplitude at the tag and the uplink channel.
func (t *Tag) BackscatterWaveform(reply gen2.Reply, samplesPerHalfBit int) ([]float64, error) {
	if reply.Kind == gen2.ReplyNone {
		return nil, fmt.Errorf("tag: no reply to modulate")
	}
	var levels []float64
	var err error
	if m := t.Logic.Miller(); m != 0 {
		// The subcarrier runs at the backscatter link frequency: one cycle
		// spans one FM0 bit time (2 half-bits), so a Miller-M bit lasts M×
		// longer on air — the rate-for-robustness trade of the M field.
		enc := gen2.MillerEncoder{M: m, SamplesPerCycle: 2 * samplesPerHalfBit}
		levels, err = enc.AppendEncode(nil, reply.Bits)
	} else {
		enc := gen2.FM0Encoder{SamplesPerHalfBit: samplesPerHalfBit}
		levels, err = enc.AppendEncode(nil, reply.Bits)
	}
	if err != nil {
		return nil, err
	}
	depth := t.Model.BackscatterDepth
	g := t.Model.BackscatterGain
	for i, l := range levels {
		// l ∈ {−1, +1} → reflection amplitude ∈ {1−depth, 1}·g.
		levels[i] = g * (1 - depth*(1-l)/2)
	}
	return levels, nil
}

// DemodulateDownlink runs the tag-side envelope detector over a received
// voltage envelope and decodes the PIE frame into a command. The tag must
// be powered. envelope is in volts at the detector; pie supplies the
// timing expectations.
//
//ivn:allow unreached exit of the sample-level downlink chain that TestWaveformLevelDownlink validates the flatness abstraction with
func (t *Tag) DemodulateDownlink(envelope []float64, pie gen2.PIEParams) (gen2.Command, error) {
	if !t.powered {
		return nil, fmt.Errorf("tag: unpowered")
	}
	bits, _, err := pie.DecodeFrame(envelope)
	if err != nil {
		return nil, err
	}
	return gen2.DecodeCommand(bits)
}
