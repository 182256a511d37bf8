package core

import (
	"fmt"
	"math"

	"ivn/internal/rng"
)

// The §3.7 two-stage runtime: "The first stage involves a discovery
// process where it optimizes for peak power; then, once it has determined
// the overall attenuation, it can switch to a steady stage where it
// maximizes the conduction angle."
//
// TwoStage is that state machine. In discovery it runs a peak-optimized
// plan (maximum chance of waking an unknown sensor). The first successful
// response reveals the link margin — the delivered peak versus what the
// sensor needs — which fixes the envelope threshold fraction ρ, and the
// controller re-optimizes for contiguous dwell above it.

// Stage identifies the controller state.
type Stage int

// Controller stages.
const (
	// StageDiscovery maximizes the expected envelope peak.
	StageDiscovery Stage = iota
	// StageSteady maximizes dwell time above the known threshold.
	StageSteady
)

// String names the stage.
func (s Stage) String() string {
	if s == StageDiscovery {
		return "discovery"
	}
	return "steady"
}

// TwoStage drives the discovery→steady plan transition.
type TwoStage struct {
	n   int
	cfg OptimizerConfig

	stage     Stage
	discovery Plan
	steady    Plan
	rho       float64
}

// NewTwoStage builds the controller and optimizes its discovery plan.
func NewTwoStage(n int, cfg OptimizerConfig, r *rng.Rand) (*TwoStage, error) {
	plan, err := Optimize(n, cfg, r)
	if err != nil {
		return nil, err
	}
	return &TwoStage{n: n, cfg: cfg, discovery: plan}, nil
}

// Stage returns the current state.
func (ts *TwoStage) Stage() Stage { return ts.stage }

// CurrentPlan returns the plan the beamformer should transmit with now.
func (ts *TwoStage) CurrentPlan() Plan {
	if ts.stage == StageSteady {
		return ts.steady
	}
	return ts.discovery
}

// Rho returns the threshold fraction the steady stage was optimized for
// (zero while still in discovery).
func (ts *TwoStage) Rho() float64 { return ts.rho }

// ObserveResponse records a successful power-up: the discovery plan
// delivered peakPower (watts, at the sensor) while the sensor needs at
// least sensorMinPower to operate. The implied envelope threshold is
//
//	ρ = (Y_peak/N)·√(P_min/P_peak)
//
// with Y_peak the plan's expected peak. The controller optimizes a
// dwell-maximizing plan for that ρ and switches to the steady stage.
// A margin too small to leave room for dwell optimization (ρ > 0.95)
// keeps the controller in discovery — the peak plan is already the only
// plan that wakes the sensor at all.
func (ts *TwoStage) ObserveResponse(peakPower, sensorMinPower float64, r *rng.Rand) error {
	if peakPower <= 0 || sensorMinPower <= 0 {
		return fmt.Errorf("core: non-positive powers %v, %v", peakPower, sensorMinPower)
	}
	if sensorMinPower > peakPower {
		return fmt.Errorf("core: sensor minimum %v exceeds delivered peak %v — no response was possible", sensorMinPower, peakPower)
	}
	yPeakFrac := ts.discovery.Score / float64(ts.n)
	rho := yPeakFrac * math.Sqrt(sensorMinPower/peakPower)
	if rho > 0.95 {
		// Margin too thin; stay in discovery.
		ts.stage = StageDiscovery
		ts.rho = 0
		return nil
	}
	if rho < 0.05 {
		rho = 0.05 // enormous margin; keep the threshold meaningful
	}
	steady, err := OptimizeConductionAngle(ts.n, rho, ts.cfg, r)
	if err != nil {
		return err
	}
	ts.steady = steady
	ts.rho = rho
	ts.stage = StageSteady
	return nil
}
