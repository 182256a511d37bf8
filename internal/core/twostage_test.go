package core

import (
	"testing"

	"ivn/internal/rng"
)

func TestTwoStageLifecycle(t *testing.T) {
	r := rng.New(1)
	ts, err := NewTwoStage(5, fastCfg(), r)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Stage() != StageDiscovery {
		t.Fatalf("initial stage = %s", ts.Stage())
	}
	if ts.Rho() != 0 {
		t.Fatal("rho set before any response")
	}
	disc := ts.CurrentPlan()
	if err := ValidateOffsets(disc.Offsets); err != nil {
		t.Fatal(err)
	}

	// A response with a healthy 10 dB margin switches to steady.
	if err := ts.ObserveResponse(1e-3, 1e-4, r); err != nil {
		t.Fatal(err)
	}
	if ts.Stage() != StageSteady {
		t.Fatalf("stage after response = %s", ts.Stage())
	}
	if ts.Rho() <= 0 || ts.Rho() > 0.95 {
		t.Fatalf("rho = %v", ts.Rho())
	}
	steady := ts.CurrentPlan()
	if err := ValidateOffsets(steady.Offsets); err != nil {
		t.Fatal(err)
	}
	if steady.RMS > steady.Limit {
		t.Fatal("steady plan violates flatness")
	}

	// The steady plan must dwell at least as long as discovery at its ρ.
	level := ts.Rho() * 5
	dSteady := ExpectedDwellTime(steady.Offsets, level, 30, 4096, rng.New(9))
	dDisc := ExpectedDwellTime(disc.Offsets, level, 30, 4096, rng.New(9))
	if dSteady < dDisc*0.9 {
		t.Fatalf("steady dwell %v worse than discovery %v", dSteady, dDisc)
	}
}

func TestTwoStageThinMarginStaysInDiscovery(t *testing.T) {
	r := rng.New(2)
	ts, err := NewTwoStage(4, fastCfg(), r)
	if err != nil {
		t.Fatal(err)
	}
	// Sensor barely responded: margin ≈ 1 ⇒ ρ ≈ Y_peak/N close to 1.
	if err := ts.ObserveResponse(1e-4, 0.99e-4, r); err != nil {
		t.Fatal(err)
	}
	if ts.Stage() != StageDiscovery {
		t.Fatalf("thin margin switched to %s", ts.Stage())
	}
}

func TestTwoStageHugeMarginClampsRho(t *testing.T) {
	r := rng.New(3)
	ts, err := NewTwoStage(4, fastCfg(), r)
	if err != nil {
		t.Fatal(err)
	}
	// 60 dB margin would push ρ → 0; it must clamp.
	if err := ts.ObserveResponse(1, 1e-6, r); err != nil {
		t.Fatal(err)
	}
	if ts.Stage() != StageSteady {
		t.Fatalf("stage = %s", ts.Stage())
	}
	if ts.Rho() < 0.05-1e-12 {
		t.Fatalf("rho = %v below clamp", ts.Rho())
	}
}

func TestTwoStageObserveValidation(t *testing.T) {
	r := rng.New(4)
	ts, err := NewTwoStage(4, fastCfg(), r)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.ObserveResponse(0, 1, r); err == nil {
		t.Fatal("zero peak accepted")
	}
	if err := ts.ObserveResponse(1, 0, r); err == nil {
		t.Fatal("zero minimum accepted")
	}
	if err := ts.ObserveResponse(1e-6, 1e-3, r); err == nil {
		t.Fatal("impossible response accepted")
	}
	if ts.Stage() != StageDiscovery {
		t.Fatal("failed observations changed stage")
	}
}

func TestStageStrings(t *testing.T) {
	if StageDiscovery.String() != "discovery" || StageSteady.String() != "steady" {
		t.Fatal("stage names wrong")
	}
}
