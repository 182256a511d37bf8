package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIdealDiodeCurve(t *testing.T) {
	d := IdealDiode{}
	if d.Current(-1) != 0 {
		t.Fatal("ideal diode conducts in reverse")
	}
	if d.Current(0.1) <= 0 {
		t.Fatal("ideal diode blocks forward current")
	}
	if d.Threshold() != 0 {
		t.Fatal("ideal diode has nonzero threshold")
	}
}

func TestThresholdDiodeCurve(t *testing.T) {
	d := ThresholdDiode{Vth: 0.3}
	if d.Current(0.29) != 0 {
		t.Fatal("threshold diode conducts below Vth")
	}
	if d.Current(0.31) <= 0 {
		t.Fatal("threshold diode blocks above Vth")
	}
	if d.Current(-5) != 0 {
		t.Fatal("threshold diode conducts in reverse")
	}
	if d.Threshold() != 0.3 {
		t.Fatal("wrong threshold")
	}
}

func TestShockleyDiodeMonotone(t *testing.T) {
	d := ShockleyDiode{Is: 1e-8, N: 1.2}
	prev := d.Current(-0.2)
	for v := -0.19; v <= 0.6; v += 0.01 {
		cur := d.Current(v)
		if cur < prev {
			t.Fatalf("Shockley I-V not monotone at v=%v", v)
		}
		prev = cur
	}
	// Turn-on voltage in the usual Schottky range.
	th := d.Threshold()
	if th < 0.1 || th > 0.6 {
		t.Fatalf("Shockley threshold = %v V, want 0.1–0.6", th)
	}
	// Overflow clamp: absurd voltage must not return Inf.
	if math.IsInf(d.Current(1e6), 1) {
		t.Fatal("Shockley current overflows")
	}
}

func TestIVCurveFig2Shape(t *testing.T) {
	// Reproduces Fig. 2: the realistic diode's knee is displaced to Vth.
	volts, ideal, err := IVCurve(IdealDiode{}, -0.2, 0.6, 81)
	if err != nil {
		t.Fatal(err)
	}
	_, real_, err := IVCurve(ThresholdDiode{Vth: 0.3}, -0.2, 0.6, 81)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range volts {
		switch {
		case v <= 0:
			if ideal[i] != 0 || real_[i] != 0 {
				t.Fatalf("reverse current at v=%v", v)
			}
		case v > 0 && v <= 0.3:
			if ideal[i] <= 0 {
				t.Fatalf("ideal diode off at v=%v", v)
			}
			if real_[i] != 0 {
				t.Fatalf("realistic diode on below threshold at v=%v", v)
			}
		case v > 0.31:
			if real_[i] <= 0 {
				t.Fatalf("realistic diode off above threshold at v=%v", v)
			}
		}
	}
}

func TestIVCurveErrors(t *testing.T) {
	if _, _, err := IVCurve(IdealDiode{}, 0, 1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, _, err := IVCurve(IdealDiode{}, 1, 0, 10); err == nil {
		t.Fatal("inverted sweep accepted")
	}
}

func TestConductionAngleRegimes(t *testing.T) {
	// Fig. 4's three regimes.
	const vth = 0.3
	large := ConductionAngle(3.0, vth)  // close to TX in air
	small := ConductionAngle(0.45, vth) // shallow tissue
	zero := ConductionAngle(0.2, vth)   // deep tissue
	if !(large > small && small > 0) {
		t.Fatalf("conduction angles not ordered: %v, %v", large, small)
	}
	if zero != 0 {
		t.Fatalf("below-threshold conduction angle = %v, want 0", zero)
	}
	if large > 0.5 {
		t.Fatalf("conduction angle %v exceeds half-cycle limit", large)
	}
	// Thresholdless diode conducts the whole positive half-cycle.
	if got := ConductionAngle(1, 0); got != 0.5 {
		t.Fatalf("zero-threshold conduction angle = %v, want 0.5", got)
	}
	if got := ConductionAngle(0, 0.3); got != 0 {
		t.Fatalf("zero-amplitude conduction angle = %v, want 0", got)
	}
}

func TestSteadyStateVoltageEq1(t *testing.T) {
	r, err := NewRectifier(4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 1: V_DC = N·(V_s − V_th).
	if got := r.SteadyStateVoltage(0.5); math.Abs(got-4*0.2) > 1e-12 {
		t.Fatalf("V_DC = %v, want 0.8", got)
	}
	if got := r.SteadyStateVoltage(0.3); got != 0 {
		t.Fatalf("V_DC at threshold = %v, want 0", got)
	}
	if got := r.SteadyStateVoltage(0.1); got != 0 {
		t.Fatalf("V_DC below threshold = %v, want 0", got)
	}
}

func TestNewRectifierValidation(t *testing.T) {
	if _, err := NewRectifier(0, 0.3); err == nil {
		t.Fatal("0 stages accepted")
	}
	if _, err := NewRectifier(2, -0.1); err == nil {
		t.Fatal("negative threshold accepted")
	}
}

func TestQuickSteadyStateMonotone(t *testing.T) {
	r, _ := NewRectifier(3, 0.3)
	f := func(a, b uint8) bool {
		va, vb := float64(a)/100, float64(b)/100
		if va > vb {
			va, vb = vb, va
		}
		return r.SteadyStateVoltage(va) <= r.SteadyStateVoltage(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConductionAngleBounded(t *testing.T) {
	f := func(vsRaw, vthRaw uint8) bool {
		vs := float64(vsRaw) / 50
		vth := float64(vthRaw) / 200
		w := ConductionAngle(vs, vth)
		return w >= 0 && w <= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
