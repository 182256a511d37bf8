package ivnsim

import (
	"reflect"
	"testing"

	"ivn/internal/fault"
)

// TestFaultMatrixAcceptance pins the issue's headline claim at the
// committed artifact seed: the recovery stack restores inventory success
// to ≥95% of the fault-free baseline at every fault intensity, while the
// no-recovery ablation shows measurable degradation once faults are at
// unit intensity.
func TestFaultMatrixAcceptance(t *testing.T) {
	rows, err := FaultMatrixSummary(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	scales := fault.DefaultScales()
	if len(rows) != 2*len(scales) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(scales))
	}
	// Rows come in (recovery on, recovery off) pairs per scale.
	byScale := map[float64][2]FaultMatrixRow{}
	for i := 0; i < len(rows); i += 2 {
		on, off := rows[i], rows[i+1]
		if !on.Recovery || off.Recovery || on.Scale != off.Scale {
			t.Fatalf("row pair %d malformed: %+v / %+v", i/2, on, off)
		}
		byScale[on.Scale] = [2]FaultMatrixRow{on, off}
	}

	baseline := byScale[0][0].SuccessRate()
	if baseline != 1 {
		t.Fatalf("fault-free baseline success %.3f, want 1", baseline)
	}
	if off := byScale[0][1].SuccessRate(); off != baseline {
		t.Fatalf("fault-free ablation success %.3f, want %.3f", off, baseline)
	}

	degraded := false
	for _, scale := range scales {
		pair := byScale[scale]
		on, off := pair[0], pair[1]
		// Acceptance: recovery holds ≥95% of the fault-free baseline.
		if got := on.SuccessRate(); got < 0.95*baseline {
			t.Errorf("scale %g: recovery success %.3f < 0.95×baseline %.3f", scale, got, baseline)
		}
		if scale >= 1 {
			// Acceptance: the ablation measurably degrades — strictly
			// below its paired recovery row and below the baseline.
			if off.SuccessRate() >= on.SuccessRate() {
				t.Errorf("scale %g: ablation %.3f not below recovery %.3f", scale, off.SuccessRate(), on.SuccessRate())
			}
			if off.SuccessRate() < baseline {
				degraded = true
			}
			if on.Recovered == 0 {
				t.Errorf("scale %g: recovery row never recovered a corrupted exchange", scale)
			}
			if off.ACKRetries != 0 || off.Recovered != 0 {
				t.Errorf("scale %g: ablation row used the recovery stack: %d/%d", scale, off.ACKRetries, off.Recovered)
			}
		}
		// Capture sub-measurement sanity: one attempt minimum per trial,
		// and only the recovery variant may spend extra attempts.
		if on.CaptureAttempts < on.Trials || off.CaptureAttempts < off.Trials {
			t.Errorf("scale %g: capture attempts below one per trial: %d/%d", scale, on.CaptureAttempts, off.CaptureAttempts)
		}
		if off.CaptureAttempts != off.Trials {
			t.Errorf("scale %g: ablation spent retry attempts: %d over %d trials", scale, off.CaptureAttempts, off.Trials)
		}
		if on.CaptureOK < off.CaptureOK {
			t.Errorf("scale %g: retry budget decoded fewer captures: %d vs %d", scale, on.CaptureOK, off.CaptureOK)
		}
	}
	if !degraded {
		t.Error("no-recovery ablation never fell below the fault-free baseline")
	}
}

// TestFaultMatrixDeterministic: identical configs reproduce identical
// summaries run to run (the trials fan out across goroutines, so this
// also guards the per-index rng splitting).
func TestFaultMatrixDeterministic(t *testing.T) {
	cfg := Config{Seed: 77, Quick: true}
	a, err := FaultMatrixSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultMatrixSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("summaries differ across runs:\n%+v\n%+v", a, b)
	}
	tab1, err := mustRun(t, "faultmatrix", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab2, err := mustRun(t, "faultmatrix", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab1, tab2) {
		t.Fatal("faultmatrix table rows differ across runs")
	}
}
