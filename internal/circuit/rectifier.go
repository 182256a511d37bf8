package circuit

import "fmt"

// Rectifier is an N-stage charge-pump energy harvester (Dickson/Greinacher
// topology): each stage is the two-diode, two-capacitor voltage doubler of
// the paper's Fig. 1, and stages multiply the previous stage's output.
type Rectifier struct {
	// Stages is N in Eq. 1.
	Stages int
	// Vth is the per-diode threshold voltage.
	Vth float64
}

// NewRectifier returns an N-stage rectifier with the given diode
// threshold.
func NewRectifier(stages int, vth float64) (*Rectifier, error) {
	if stages < 1 {
		return nil, fmt.Errorf("circuit: rectifier needs >= 1 stage, got %d", stages)
	}
	if vth < 0 {
		return nil, fmt.Errorf("circuit: negative threshold %v", vth)
	}
	return &Rectifier{Stages: stages, Vth: vth}, nil
}

// SteadyStateVoltage returns the paper's Eq. 1: the asymptotic DC output
// for a sustained RF amplitude vs,
//
//	V_DC = N·(V_s − V_th), floored at zero.
//
// The doubling inside each stage and the inter-stage transfer losses are
// absorbed into the effective per-stage term exactly as the paper does.
func (r *Rectifier) SteadyStateVoltage(vs float64) float64 {
	v := vs - r.Vth
	if v <= 0 {
		return 0
	}
	return float64(r.Stages) * v
}
