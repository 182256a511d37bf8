package link

import (
	"math"
	"testing"

	"ivn/internal/core"
	"ivn/internal/em"
	"ivn/internal/radio"
	"ivn/internal/reader"
	"ivn/internal/rng"
	"ivn/internal/scenario"
)

// TestTrialKitMatchesForTrial pins a reused kit to the package-level
// ForTrial, which is a fresh kit per call: same parent stream, same
// placement → identical link state, identical parent advancement, across
// repeated trials and changes of antenna count (which force the reused
// kit's rebuild branch as well as its relock branch). Each kit Link must
// also equal RealizeInto on the kit's own beamformer and reader, down to
// its buffers: the shrink from 10 chains to 4 shows that no stale tail of
// a longer trial survives in them.
func TestTrialKitMatchesForTrial(t *testing.T) {
	sc := scenario.NewTank(0.5, em.Water, 0.1)
	var kit TrialKit
	r1 := rng.New(42)
	r2 := rng.New(42)
	for trial, n := range []int{4, 4, 8, 10, 10, 4, 4} {
		p1, err := sc.Realize(n, r1.Split("place"))
		if err != nil {
			t.Fatal(err)
		}
		p2, err := sc.Realize(n, r2.Split("place"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ForTrial(p1, n, nil, r1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kit.ForTrial(p2, n, nil, r2)
		if err != nil {
			t.Fatal(err)
		}
		if got.peak != want.peak {
			t.Fatalf("trial %d: kit peak %v != ForTrial peak %v", trial, got.peak, want.peak)
		}
		if got.jam != want.jam {
			t.Fatalf("trial %d: kit jam %v != ForTrial jam %v", trial, got.jam, want.jam)
		}
		if got.Beamformer.N() != want.Beamformer.N() || got.Beamformer.CenterFreq != want.Beamformer.CenterFreq {
			t.Fatalf("trial %d: beamformer mismatch", trial)
		}
		wc := want.Beamformer.Carriers()
		for i, c := range got.Beamformer.Carriers() {
			if c != wc[i] {
				t.Fatalf("trial %d: carrier %d: kit %+v != ForTrial %+v", trial, i, c, wc[i])
			}
		}
		if got.Reader.TxFreq != want.Reader.TxFreq ||
			got.Reader.PhaseDriftPerPeriod != want.Reader.PhaseDriftPerPeriod ||
			got.Reader.RX.Center != want.Reader.RX.Center {
			t.Fatalf("trial %d: reader mismatch", trial)
		}
		// Parent streams must stay in lockstep after each trial.
		if a, b := r1.Uint64(), r2.Uint64(); a != b {
			t.Fatalf("trial %d: parent streams diverged: %x vs %x", trial, a, b)
		}

		var fresh Link
		if err := RealizeInto(&fresh, got.Beamformer, got.Reader, p2, nil); err != nil {
			t.Fatal(err)
		}
		if got.peak != fresh.peak || got.jam != fresh.jam {
			t.Fatalf("trial %d: kit peak %v jam %v, RealizeInto peak %v jam %v", trial, got.peak, got.jam, fresh.peak, fresh.jam)
		}
		if len(got.Downlink()) != n || len(got.carr) != n {
			t.Fatalf("trial %d: %d chains, kit holds %d coefficients and %d carriers", trial, n, len(got.Downlink()), len(got.carr))
		}
		for i := range fresh.Downlink() {
			if got.Downlink()[i] != fresh.Downlink()[i] || got.carr[i] != fresh.carr[i] {
				t.Fatalf("trial %d chain %d: kit (%v, %+v), RealizeInto (%v, %+v)",
					trial, i, got.Downlink()[i], got.carr[i], fresh.Downlink()[i], fresh.carr[i])
			}
		}
	}
}

// TestRealizeIntoJamIsNominalLeak pins the one jam expression: for every
// chain count of the paper's plan, the tone sits at the beamformer's
// center with CIBLeakPerWatt · n · ChainAmplitude()² watts, bit for bit
// in that association. The leak fraction times the chains' summed
// radiated power differs from it in the last bits at n = 3 and 6–10.
func TestRealizeIntoJamIsNominalLeak(t *testing.T) {
	sc := scenario.NewTank(0.5, em.Water, 0.1)
	a := ChainAmplitude()
	for n := 1; n <= 10; n++ {
		r := rng.New(uint64(n))
		p, err := sc.Realize(n, r)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Antennas = n
		bf, err := core.New(cfg, r.Split("cib"))
		if err != nil {
			t.Fatal(err)
		}
		var l Link
		if err := RealizeInto(&l, bf, reader.New(), p, nil); err != nil {
			t.Fatal(err)
		}
		want := radio.ToneAt{Freq: bf.CenterFreq, Power: p.CIBLeakPerWatt * float64(n) * a * a}
		if jam := l.Jam(); len(jam) != 1 || jam[0] != want {
			t.Fatalf("n=%d: jam %+v, want %+v", n, jam, want)
		}
	}
}

// TestDownlinkCoeffsIntoMatches pins the append variant to DownlinkCoeffs.
func TestDownlinkCoeffsIntoMatches(t *testing.T) {
	sc := scenario.NewTank(0.5, em.Water, 0.1)
	p, err := sc.Realize(6, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	want := DownlinkCoeffs(p, 915e6)
	got := DownlinkCoeffsInto(make([]complex128, 0, 1), p, 915e6)
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("coeff %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestChainAmplitudeIsDefaultOperatingPoint pins ChainAmplitude, which
// reads the default drive radio derives once per process, to a fresh
// operating-point search of the default amplifier, bit for bit.
func TestChainAmplitudeIsDefaultOperatingPoint(t *testing.T) {
	pa := radio.DefaultPA()
	drive, err := pa.DriveFor(math.Sqrt(math.Pow(10, (pa.P1dBm-30)/10)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ChainAmplitude(), pa.Amplify(drive); got != want {
		t.Fatalf("ChainAmplitude() = %v, fresh Amplify(OperatingDrive) = %v", got, want)
	}
}
