package ivnsim

import (
	"testing"

	"ivn/internal/em"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/tag"
)

// TestKitsReusedMatchFresh runs one gain kit and one comm kit through a
// trial sequence that changes the antenna count (4→10→4) and the
// carriers (a 700/708 MHz tank beside the default 915/880 MHz one), with
// waveform decode on, and compares every sample with MeasureGains and
// RunCommTrial — fresh kits — on the same streams. It is the in-package
// check that kit state (the relocked or rebuilt beamformer, the reader
// and its receiver, the retained buffers, the tag's rng) never leaks
// from one trial into the next.
func TestKitsReusedMatchFresh(t *testing.T) {
	tank := scenario.NewTank(0.5, em.Water, 0.10)
	tank700 := scenario.NewTank(0.5, em.Water, 0.10)
	tank700.Geometry.CIBFreq = 700e6
	// The reader listens 8 MHz from the CIB carrier, inside its SAW
	// passband, so a receiver left at the previous trial's 880 MHz would
	// change the decode.
	tank700.Geometry.ReaderFreq = 708e6
	steps := []struct {
		sc scenario.Scenario
		n  int
	}{
		{tank, 4}, {tank, 4}, {tank, 10}, {tank700, 10}, {tank700, 10},
		{tank, 10}, {tank700, 4}, {tank, 4}, {tank, 4},
	}
	model := tag.StandardTag()
	opts := CommOptions{Waveform: true}
	var gk gainKit
	var ck commKit
	parent := rng.New(5)
	decoded := 0
	for i, st := range steps {
		rFresh, rKit := parent.SplitIndexed("gain", i), parent.SplitIndexed("gain", i)
		want, err := MeasureGains(st.sc, st.n, rFresh)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gk.measure(st.sc, st.n, nil, rKit)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("gain trial %d (n=%d): reused kit %+v, fresh %+v", i, st.n, got, want)
		}
		if a, b := rFresh.Uint64(), rKit.Uint64(); a != b {
			t.Fatalf("gain trial %d: streams diverged after the trial", i)
		}

		rFresh, rKit = parent.SplitIndexed("comm", i), parent.SplitIndexed("comm", i)
		wantComm, err := RunCommTrial(st.sc, st.n, model, opts, rFresh)
		if err != nil {
			t.Fatal(err)
		}
		gotComm, err := ck.trial(st.sc, st.n, model, opts, rKit)
		if err != nil {
			t.Fatal(err)
		}
		if gotComm != wantComm {
			t.Fatalf("comm trial %d (n=%d): reused kit %+v, fresh %+v", i, st.n, gotComm, wantComm)
		}
		if a, b := rFresh.Uint64(), rKit.Uint64(); a != b {
			t.Fatalf("comm trial %d: streams diverged after the trial", i)
		}
		if gotComm.Decoded {
			decoded++
		}
	}
	if decoded == 0 {
		t.Fatal("no comm trial decoded: the sequence never exercised the waveform decode")
	}
}
