package safety

import (
	"math"
	"strings"
	"testing"

	"ivn/internal/core"
	"ivn/internal/em"
	"ivn/internal/radio"
	"ivn/internal/rng"
)

func prototypeCarriers(t *testing.T, n int) []radio.Carrier {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Antennas = n
	bf, err := core.New(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return bf.Carriers()
}

func TestPrototypeEIRPWithinFCC(t *testing.T) {
	// 30 dBm chains + 7 dBi antennas = 37 dBm EIRP per chain — 1 dB over
	// the Part 15.247 limit, which is what the experimental-license USRP
	// rig ran at. At the FCC operating point (6 dBi or 1 dB backoff) it
	// complies.
	cs := prototypeCarriers(t, 10)
	eirp := EIRPdBm(cs, 7)
	if math.Abs(eirp-37) > 0.5 {
		t.Fatalf("prototype EIRP = %.1f dBm, want ≈37", eirp)
	}
	if EIRPdBm(cs, 7) <= FCCMaxEIRPdBm {
		t.Fatal("37 dBm EIRP within the FCC limit")
	}
	if EIRPdBm(cs, 6) > FCCMaxEIRPdBm+1e-9 {
		t.Fatal("36 dBm EIRP over the FCC limit")
	}
	if !math.IsInf(EIRPdBm(nil, 7), -1) {
		t.Fatal("empty carrier set EIRP should be -Inf")
	}
}

func TestEIRPIndependentOfAntennaCount(t *testing.T) {
	// Per-chain evaluation: adding frequency-distinct chains must not
	// change the per-transmitter EIRP.
	e1 := EIRPdBm(prototypeCarriers(t, 1), 7)
	e10 := EIRPdBm(prototypeCarriers(t, 10), 7)
	if math.Abs(e1-e10) > 1e-9 {
		t.Fatalf("EIRP changed with chain count: %v vs %v", e1, e10)
	}
}

func TestEvaluateSurfaceBasics(t *testing.T) {
	cs := prototypeCarriers(t, 10)
	exp, err := EvaluateSurface(cs, math.Pow(10, 7.0/20), 0.5, em.Skin, 10, 915e6)
	if err != nil {
		t.Fatal(err)
	}
	if exp.AverageSAR <= 0 || exp.PeakSAR <= 0 {
		t.Fatalf("non-positive SAR: %+v", exp)
	}
	// Peak scales by peakFactor².
	if math.Abs(exp.PeakSAR/exp.AverageSAR-100) > 1e-9 {
		t.Fatalf("peak/avg SAR = %v, want 100", exp.PeakSAR/exp.AverageSAR)
	}
	if !strings.Contains(exp.String(), "W/kg") {
		t.Fatalf("unhelpful exposure string %q", exp.String())
	}
}

func TestAverageSARCompliantAtOperatingDistance(t *testing.T) {
	// The §7 claim: duty-cycled CIB at meter-scale distances keeps the
	// *time-averaged* SAR inside the 1.6 W/kg localized limit even though
	// instantaneous peaks are far higher.
	cs := prototypeCarriers(t, 10)
	g := math.Pow(10, 7.0/20)
	exp, err := EvaluateSurface(cs, g, 1.0, em.Skin, 10, 915e6)
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Compliant() {
		t.Fatalf("average SAR %.3g W/kg exceeds the limit at 1 m", exp.AverageSAR)
	}
	if exp.PeakSAR < exp.AverageSAR {
		t.Fatal("peak below average")
	}
}

func TestSARFallsWithDistanceAndRisesWithConductivity(t *testing.T) {
	cs := prototypeCarriers(t, 10)
	g := math.Pow(10, 7.0/20)
	near, err := EvaluateSurface(cs, g, 0.3, em.Skin, 1, 915e6)
	if err != nil {
		t.Fatal(err)
	}
	far, err := EvaluateSurface(cs, g, 3.0, em.Skin, 1, 915e6)
	if err != nil {
		t.Fatal(err)
	}
	if far.AverageSAR >= near.AverageSAR {
		t.Fatal("SAR did not fall with distance")
	}
	// 10× distance → 100× less.
	if r := near.AverageSAR / far.AverageSAR; math.Abs(r-100) > 1 {
		t.Fatalf("inverse-square violated: ratio %v", r)
	}
	fat, err := EvaluateSurface(cs, g, 0.3, em.Fat, 1, 915e6)
	if err != nil {
		t.Fatal(err)
	}
	if fat.AverageSAR >= near.AverageSAR {
		t.Fatal("low-conductivity fat should absorb less than skin")
	}
}

func TestEvaluateSurfaceValidation(t *testing.T) {
	cs := prototypeCarriers(t, 2)
	if _, err := EvaluateSurface(nil, 1, 1, em.Skin, 1, 915e6); err == nil {
		t.Fatal("empty carriers accepted")
	}
	if _, err := EvaluateSurface(cs, 1, 0, em.Skin, 1, 915e6); err == nil {
		t.Fatal("zero distance accepted")
	}
	if _, err := EvaluateSurface(cs, 1, 1, em.Skin, 0.5, 915e6); err == nil {
		t.Fatal("peak factor < 1 accepted")
	}
}

func TestAnalyzeEnvelopeCIBDutyCycle(t *testing.T) {
	// A CIB envelope concentrates energy: PAPR well above 1 and a small
	// fraction of time near the peak — the duty-cycling behind the safety
	// argument.
	offsets := core.PaperOffsets()
	betas := make([]float64, len(offsets))
	r := rng.New(3)
	for i := range betas {
		if i > 0 {
			betas[i] = r.Phase()
		}
	}
	env := core.EnvelopeSeries(offsets, betas, 0, 1.0/8192, 8192, nil)
	dc, err := AnalyzeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if dc.PAPR < 3 {
		t.Fatalf("CIB PAPR = %v, expected well above 1", dc.PAPR)
	}
	if dc.FractionNearPeak > 0.2 {
		t.Fatalf("%.0f%% of time near peak; CIB should be duty-cycled", dc.FractionNearPeak*100)
	}
	// A CW envelope has PAPR 1 and is always "near peak".
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 2
	}
	cw, err := AnalyzeEnvelope(flat)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cw.PAPR-1) > 1e-12 || cw.FractionNearPeak != 1 {
		t.Fatalf("CW profile wrong: %+v", cw)
	}
}

func TestAnalyzeEnvelopeValidation(t *testing.T) {
	if _, err := AnalyzeEnvelope(nil); err == nil {
		t.Fatal("empty envelope accepted")
	}
	if _, err := AnalyzeEnvelope(make([]float64, 4)); err == nil {
		t.Fatal("all-zero envelope accepted")
	}
}

func TestSafetyStoryEndToEnd(t *testing.T) {
	// The quantified §7 narrative: to match the peak CIB delivers with a
	// single continuous transmitter, the CW power (and hence the average
	// SAR) would have to rise by the PAPR — pushing it over the limit in
	// situations where duty-cycled CIB stays inside it.
	offsets := core.PaperOffsets()
	betas := make([]float64, len(offsets))
	env := core.EnvelopeSeries(offsets, betas, 0, 1.0/8192, 8192, nil)
	dc, err := AnalyzeEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	cs := prototypeCarriers(t, 10)
	g := math.Pow(10, 7.0/20)
	const d = 0.35
	cib, err := EvaluateSurface(cs, g, d, em.Skin, math.Sqrt(dc.PAPR), 915e6)
	if err != nil {
		t.Fatal(err)
	}
	// Scale the CW transmitter to deliver the same surface peak.
	cwAvgSAR := cib.AverageSAR * dc.PAPR
	if !cib.Compliant() {
		t.Fatalf("CIB average SAR %.3g non-compliant at %.2f m", cib.AverageSAR, d)
	}
	if cwAvgSAR <= SARLimitWkg {
		t.Fatalf("CW equivalent (%.3g W/kg) unexpectedly compliant; pick a nearer distance", cwAvgSAR)
	}
}
