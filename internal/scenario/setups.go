package scenario

import (
	"fmt"
	"math"

	"ivn/internal/em"
	"ivn/internal/rng"
)

// Tank is the Fig. 7 setup: the beamformer in air facing a container of
// fluid (or a slab of tissue) with the sensor at a given depth inside.
type Tank struct {
	Geometry
	// AirDistance is beamformer→container distance in meters (0.5 m in
	// the Fig. 9 experiments, 0.9 m in the Fig. 13 depth experiments).
	AirDistance float64
	// Medium fills the container.
	Medium em.Medium
	// Depth is the sensor depth inside the medium, meters.
	Depth float64
}

// NewTank builds the standard water-tank scenario.
func NewTank(airDistance float64, medium em.Medium, depth float64) *Tank {
	return &Tank{
		Geometry:    DefaultGeometry(),
		AirDistance: airDistance,
		Medium:      medium,
		Depth:       depth,
	}
}

// Name implements Scenario.
func (t *Tank) Name() string {
	return fmt.Sprintf("tank(%s, air=%.2gm, depth=%.2gcm)", t.Medium.Name, t.AirDistance, t.Depth*100)
}

// Realize implements Scenario.
func (t *Tank) Realize(nAntennas int, r *rng.Rand) (*Placement, error) {
	p := &Placement{}
	if err := t.RealizeInto(p, nAntennas, r); err != nil {
		return nil, err
	}
	return p, nil
}

// RealizeInto implements PlacementReuser: the one-layer tissue stack is
// built in the placement's retained scratch, so repeated realizations
// allocate nothing.
func (t *Tank) RealizeInto(p *Placement, nAntennas int, r *rng.Rand) error {
	base := em.Path{AirDistance: t.AirDistance}
	if t.Depth > 0 && t.Medium.Name != em.Air.Name {
		p.layers = append(p.layers[:0], em.Layer{Medium: t.Medium, Thickness: t.Depth})
		base.Layers = p.layers
	} else {
		base.AirDistance += t.Depth
	}
	return t.Geometry.realizeInto(p, base, nAntennas, r)
}

// WithDepth returns a copy at a different depth (for sweeps).
func (t *Tank) WithDepth(d float64) *Tank {
	c := *t
	c.Depth = d
	return &c
}

// Air is the Fig. 8 line-of-sight setup: sensor at a range in open air.
type Air struct {
	Geometry
	// Range is the beamformer→tag distance in meters.
	Range float64
}

// NewAir builds the line-of-sight scenario. Matching the paper's Fig. 8
// protocol (tag boxed and oriented toward the array), the tag orientation
// is pinned co-polarized; set FixedOrientation = -1 for random draws.
func NewAir(rangeMeters float64) *Air {
	g := DefaultGeometry()
	g.FixedOrientation = 0
	g.Multipath = em.LOSProfile
	return &Air{Geometry: g, Range: rangeMeters}
}

// Name implements Scenario.
func (a *Air) Name() string { return fmt.Sprintf("air(%.2gm)", a.Range) }

// Realize implements Scenario.
func (a *Air) Realize(nAntennas int, r *rng.Rand) (*Placement, error) {
	return a.Geometry.realize(em.Path{AirDistance: a.Range}, nAntennas, r)
}

// RealizeInto implements PlacementReuser.
func (a *Air) RealizeInto(p *Placement, nAntennas int, r *rng.Rand) error {
	return a.Geometry.realizeInto(p, em.Path{AirDistance: a.Range}, nAntennas, r)
}

// SwinePlacement selects where in the animal the sensor sits (Fig. 14).
type SwinePlacement int

// Placements from the in-vivo protocol (§6.2).
const (
	// Gastric: through skin, fat, muscle and the stomach wall into the
	// stomach ("placed in the stomach through a 3 cm incision").
	Gastric SwinePlacement = iota
	// Subcutaneous: under the skin.
	Subcutaneous
)

// String names the placement.
func (p SwinePlacement) String() string {
	if p == Gastric {
		return "gastric"
	}
	return "subcutaneous"
}

// Swine is the in-vivo scenario: a layered porcine torso with breathing
// motion and per-trial repositioning ("In each experiment, we remove the
// RFID and place it back, changing its location and orientation").
type Swine struct {
	Geometry
	// Placement selects the tissue stack.
	Placement SwinePlacement
	// AirDistanceMin/Max bound the antenna standoff ("30-80 cm lateral").
	AirDistanceMin, AirDistanceMax float64
	// BreathingDepthJitter is the ± tissue-depth variation from
	// respiration between sessions, meters.
	BreathingDepthJitter float64
	// BreathingPeriod and BreathingDisplacement model within-session
	// motion: the sensor oscillates by ±BreathingDisplacement along the
	// path every BreathingPeriod seconds, dephasing the reader's
	// coherently averaged captures.
	BreathingPeriod, BreathingDisplacement float64
}

// NewSwine builds the in-vivo scenario for a placement.
func NewSwine(p SwinePlacement) *Swine {
	return &Swine{
		Geometry:              DefaultGeometry(),
		Placement:             p,
		AirDistanceMin:        0.3,
		AirDistanceMax:        0.8,
		BreathingDepthJitter:  0.005,
		BreathingPeriod:       4.0,
		BreathingDisplacement: 0.002,
	}
}

// Name implements Scenario.
func (s *Swine) Name() string { return fmt.Sprintf("swine(%s)", s.Placement) }

// Stack returns the placement's nominal tissue stack.
func (s *Swine) Stack() []em.Layer {
	return s.AppendStack(nil)
}

// AppendStack appends the placement's nominal tissue stack to dst.
func (s *Swine) AppendStack(dst []em.Layer) []em.Layer {
	if s.Placement == Subcutaneous {
		return append(dst,
			em.Layer{Medium: em.Skin, Thickness: 0.003},
			em.Layer{Medium: em.Fat, Thickness: 0.005},
		)
	}
	// Lateral path into an 85 kg Yorkshire swine's stomach: roughly 12 cm
	// of tissue (the antennas sit "30-80 cm lateral... in line with the
	// coronal plane", §6.2).
	return append(dst,
		em.Layer{Medium: em.Skin, Thickness: 0.003},
		em.Layer{Medium: em.Fat, Thickness: 0.025},
		em.Layer{Medium: em.Muscle, Thickness: 0.045},
		em.Layer{Medium: em.StomachWall, Thickness: 0.005},
		em.Layer{Medium: em.GastricFluid, Thickness: 0.040},
	)
}

// Realize implements Scenario.
func (s *Swine) Realize(nAntennas int, r *rng.Rand) (*Placement, error) {
	p := &Placement{}
	if err := s.RealizeInto(p, nAntennas, r); err != nil {
		return nil, err
	}
	return p, nil
}

// RealizeInto implements PlacementReuser: the tissue stack is built and
// depth-adjusted in the placement's retained scratch.
func (s *Swine) RealizeInto(p *Placement, nAntennas int, r *rng.Rand) error {
	air := r.UniformRange(s.AirDistanceMin, s.AirDistanceMax)
	p.layers = s.AppendStack(p.layers[:0])
	base := em.Path{AirDistance: air, Layers: p.layers}
	// Breathing and repositioning perturb the total depth.
	jitter := r.UniformRange(-s.BreathingDepthJitter, s.BreathingDepthJitter)
	p.layers = em.SetDepth(p.layers, maxf(0.002, base.Depth()+jitter))
	base.Layers = p.layers
	if err := s.Geometry.realizeInto(p, base, nAntennas, r); err != nil {
		return err
	}
	// Within-session breathing: the round-trip path length swings by
	// ±2·displacement through tissue with phase constant β, so the link
	// phase walks between averaging periods. Per-period variance ≈ half
	// the squared per-second phase excursion.
	if s.BreathingPeriod > 0 && s.BreathingDisplacement > 0 {
		beta := em.Muscle.Beta(s.ReaderFreq)
		amp := 2 * beta * s.BreathingDisplacement // round-trip phase swing
		perSecond := amp * 2 * math.Pi / s.BreathingPeriod
		p.UplinkPhaseDriftPerPeriod = perSecond * perSecond / 2
	}
	return nil
}

// MediaSweep returns the Fig. 11 scenario list: the receive antenna in
// air, water, simulated gastric fluid, simulated intestinal fluid, and
// three animal tissues, at the Fig. 7 operating point (0.5 m standoff).
// Depth is chosen per medium so the sensor sits inside the sample: 10 cm
// into fluids, 10 cm into the 20 cm-thick tissue slabs.
func MediaSweep() []Scenario {
	media := []em.Medium{
		em.Air, em.Water, em.GastricFluid, em.IntestinalFluid,
		em.Steak, em.Bacon, em.ChickenBreast,
	}
	out := make([]Scenario, len(media))
	for i, m := range media {
		out[i] = NewTank(0.5, m, 0.10)
	}
	return out
}
