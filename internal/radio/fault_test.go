package radio

import (
	"math"
	"testing"

	"ivn/internal/rng"
)

// dropChain zeroes one chain and re-locks another.
type dropChain struct{ drop, relock int }

func (d dropChain) PerturbCarrier(chain int, c Carrier) Carrier {
	if chain == d.drop {
		c.Amplitude = 0
	}
	if chain == d.relock {
		c.Phase = 1.25
	}
	return c
}

// TestPerturbedCarriers: the fault overlays the observed tone set without
// touching the chains — the next healthy observation is unchanged.
func TestPerturbedCarriers(t *testing.T) {
	arr, err := NewUniformArray([]float64{915e6, 915.5e6, 916e6}, 0.05, DefaultPA(), Antenna{GainDBi: 7})
	if err != nil {
		t.Fatal(err)
	}
	arr.Lock(rng.New(5))
	healthy := arr.Carriers()

	got := arr.PerturbedCarriers(dropChain{drop: 0, relock: 2})
	if got[0].Amplitude != 0 {
		t.Fatalf("dropped chain still emitting %v", got[0].Amplitude)
	}
	if got[1] != healthy[1] {
		t.Fatalf("untouched chain perturbed: %v vs %v", got[1], healthy[1])
	}
	if math.Abs(got[2].Phase-1.25) > 1e-15 {
		t.Fatalf("re-locked chain phase %v, want 1.25", got[2].Phase)
	}
	if got[2].Amplitude != healthy[2].Amplitude {
		t.Fatalf("re-lock changed amplitude: %v", got[2].Amplitude)
	}

	// nil fault is the identity, and the overlay never mutated the array.
	again := arr.PerturbedCarriers(nil)
	for i := range again {
		if again[i] != healthy[i] {
			t.Fatalf("chain %d mutated by overlay: %v vs %v", i, again[i], healthy[i])
		}
	}
}
