package session

import (
	"fmt"
	"reflect"
	"testing"

	"ivn/internal/gen2"
	"ivn/internal/rng"
)

func makePopulation(t *testing.T, n int, seed uint64) []*gen2.TagLogic {
	t.Helper()
	r := rng.New(seed)
	tags := make([]*gen2.TagLogic, n)
	for i := range tags {
		epc := []byte{0xE2, byte(i >> 8), byte(i), 0x01}
		tag, err := gen2.NewTagLogic(epc, r.Split(fmt.Sprintf("tag-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tags[i] = tag
	}
	return tags
}

func TestRunRoundSingleTag(t *testing.T) {
	tags := makePopulation(t, 1, 1)
	ic := NewInventoryController(gen2.S0)
	ic.InitialQ = 0
	stats, err := ic.RunRound(tags, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EPCs) != 1 {
		t.Fatalf("read %d EPCs, want 1", len(stats.EPCs))
	}
	if stats.Singles != 1 || stats.Collisions != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestRunRoundManyTags(t *testing.T) {
	const n = 20
	tags := makePopulation(t, n, 3)
	ic := NewInventoryController(gen2.S0)
	stats, err := ic.RunRound(tags, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EPCs) < n*7/10 {
		t.Fatalf("single round read only %d/%d tags", len(stats.EPCs), n)
	}
	// No duplicates within a round (read tags drop out via flag flip).
	seen := map[string]bool{}
	for _, epc := range stats.EPCs {
		if seen[string(epc)] {
			t.Fatalf("duplicate EPC %x in one round", epc)
		}
		seen[string(epc)] = true
	}
	if stats.Commands > ic.MaxCommands {
		t.Fatalf("command budget exceeded: %d", stats.Commands)
	}
}

func TestInventoryAllReadsEveryone(t *testing.T) {
	const n = 30
	tags := makePopulation(t, n, 5)
	ic := NewInventoryController(gen2.S1)
	epcs, err := ic.InventoryAll(tags, 10, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(epcs) != n {
		t.Fatalf("read %d/%d tags across rounds", len(epcs), n)
	}
	seen := map[string]bool{}
	for _, epc := range epcs {
		if seen[string(epc)] {
			t.Fatalf("duplicate EPC %x", epc)
		}
		seen[string(epc)] = true
	}
}

func TestQAdaptsUpUnderCollisions(t *testing.T) {
	// Starting with Q=0 against 16 tags forces collisions; the controller
	// must grow Q rather than livelock.
	tags := makePopulation(t, 16, 7)
	ic := NewInventoryController(gen2.S0)
	ic.InitialQ = 0
	stats, err := ic.RunRound(tags, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Collisions == 0 {
		t.Fatal("expected collisions with Q=0 and 16 tags")
	}
	if len(stats.EPCs) == 0 {
		t.Fatal("no tags read despite adaptation")
	}
	if stats.FinalQ == 0 {
		t.Fatal("Q never grew under collisions")
	}
}

func TestQAdaptsDownWhenOversized(t *testing.T) {
	// Q=10 (1024 slots) against 2 tags: mostly empties; Q must shrink and
	// the round must still finish inside the command budget.
	tags := makePopulation(t, 2, 9)
	ic := NewInventoryController(gen2.S0)
	ic.InitialQ = 10
	stats, err := ic.RunRound(tags, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalQ >= 10 {
		t.Fatalf("Q did not shrink: %v", stats.FinalQ)
	}
	if len(stats.EPCs) != 2 {
		t.Fatalf("read %d/2 tags", len(stats.EPCs))
	}
}

func TestRoundEfficiencyReasonable(t *testing.T) {
	// Slotted ALOHA peaks at 1/e ≈ 0.37 singles/slot; an adaptive reader
	// should stay within the right order of magnitude.
	tags := makePopulation(t, 24, 11)
	ic := NewInventoryController(gen2.S0)
	ic.InitialQ = 5 // near log2(24)
	stats, err := ic.RunRound(tags, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Slots == 0 {
		t.Fatal("round ran no slots")
	}
	// Singulations per slot, captures included.
	if e := float64(stats.Singles+stats.Captures) / float64(stats.Slots); e < 0.1 || e > 0.6 {
		t.Fatalf("efficiency %v outside plausible slotted-ALOHA range", e)
	}
}

// TestRunRoundKeepsCommandBudget: a round issues no command once
// MaxCommands is spent, under either Q policy, whatever the population
// size and budget — on a clean channel, and with recovery on a channel
// that flips one bit of every reply longer than an RN16 (every EPC), so
// every ACK is followed by re-ACKs.
func TestRunRoundKeepsCommandBudget(t *testing.T) {
	corruptEPCs := &stubFault{corrupt: func(_ int, bits gen2.Bits) (gen2.Bits, bool) {
		if len(bits) <= 16 {
			return bits, false
		}
		out := append(gen2.Bits(nil), bits...)
		out[len(out)/2] ^= 1
		return out, true
	}}
	for _, tc := range []struct {
		name  string
		rec   *RecoveryPolicy
		fault ChannelFault
	}{
		{"schoute", nil, nil},
		{"floating", DefaultRecovery(), nil},
		{"floating, EPCs corrupted", DefaultRecovery(), corruptEPCs},
	} {
		over := 0
		for n := 1; n <= 12; n++ {
			for budget := 1; budget <= 60; budget++ {
				ic := NewInventoryController(gen2.S0)
				ic.MaxCommands = budget
				ic.Recovery = tc.rec
				ic.Fault = tc.fault
				stats, err := ic.RunRound(makePopulation(t, n, uint64(n)), rng.New(uint64(budget)))
				if err != nil {
					t.Fatal(err)
				}
				if stats.Commands > budget {
					over++
					t.Logf("%s: %d tags, budget %d: %d commands", tc.name, n, budget, stats.Commands)
				}
			}
		}
		if over > 0 {
			t.Errorf("%s: %d of 720 rounds exceeded MaxCommands", tc.name, over)
		}
	}
}

func TestRunRoundValidation(t *testing.T) {
	ic := NewInventoryController(gen2.S0)
	if _, err := ic.RunRound(nil, rng.New(1)); err == nil {
		t.Fatal("empty population accepted")
	}
	if _, err := ic.InventoryAll(makePopulation(t, 1, 1), 0, rng.New(1)); err == nil {
		t.Fatal("maxRounds 0 accepted")
	}
}

func TestSlotOutcomeStrings(t *testing.T) {
	for o, want := range map[SlotOutcome]string{
		SlotEmpty: "empty", SlotSingle: "single", SlotCollision: "collision",
	} {
		if o.String() != want {
			t.Errorf("%d = %q", o, o.String())
		}
	}
	if SlotOutcome(9).String() == "" {
		t.Error("unknown outcome empty string")
	}
}

func TestRunRoundDeterministic(t *testing.T) {
	run := func() int {
		tags := makePopulation(t, 10, 21)
		ic := NewInventoryController(gen2.S0)
		stats, err := ic.RunRound(tags, rng.New(22))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Commands*1000 + len(stats.EPCs)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("rounds differ across identical seeds: %d vs %d", a, b)
	}
}

// TestCleanPathMatchesFaultLoop holds the clean inventory path (the
// controller's gen2.Population and its slot calendar, kept across rounds)
// to the faulted path's per-tag loop under a fault that never fires: a
// dense shadowed population on an EventChannel, three rounds on one
// controller with floating Q and with Schoute sizing, must give the same
// RoundStats, the same trace event stream and the same final tag state.
func TestCleanPathMatchesFaultLoop(t *testing.T) {
	const n = 400
	run := func(fault ChannelFault, rec *RecoveryPolicy) ([]*RoundStats, []Event, []*gen2.TagLogic) {
		tags := benchTags(t, n)
		obs := &Recorder{}
		ic := NewInventoryController(gen2.S0)
		ic.MaxCommands = 12*n + 256
		ic.Channel = shadowedChannel(n)
		ic.Fault = fault
		ic.Recovery = rec
		ic.Trace = NewTrace(obs)
		r := rng.New(5)
		var stats []*RoundStats
		for round := 0; round < 3; round++ {
			st, err := ic.RunRound(tags, r.Split(fmt.Sprintf("round-%d", round)))
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, st)
		}
		return stats, obs.Events, tags
	}
	for _, tc := range []struct {
		name string
		rec  *RecoveryPolicy
	}{{"floating", DefaultRecovery()}, {"schoute", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			gotStats, gotEvents, gotTags := run(nil, tc.rec)
			wantStats, wantEvents, wantTags := run(cleanChannel{}, tc.rec)
			if !reflect.DeepEqual(gotStats, wantStats) {
				for i := range wantStats {
					t.Logf("round %d: clean %+v\n faulted %+v", i, *gotStats[i], *wantStats[i])
				}
				t.Fatal("RoundStats differ")
			}
			if len(gotEvents) != len(wantEvents) {
				t.Fatalf("%d trace events, want %d", len(gotEvents), len(wantEvents))
			}
			for i := range wantEvents {
				if gotEvents[i] != wantEvents[i] {
					t.Fatalf("trace event %d = %+v, want %+v", i, gotEvents[i], wantEvents[i])
				}
			}
			for i, x := range gotTags {
				y := wantTags[i]
				if x.State() != y.State() || x.SL() != y.SL() || x.LastRN16() != y.LastRN16() {
					t.Fatalf("tag %d state %s sl %v rn16 %#04x, want %s %v %#04x", i, x.State(), x.SL(), x.LastRN16(), y.State(), y.SL(), y.LastRN16())
				}
				for s := gen2.S0; s <= gen2.S3; s++ {
					if x.Inventoried(s) != y.Inventoried(s) {
						t.Fatalf("tag %d Inventoried(S%d) = %v, want %v", i, s, x.Inventoried(s), y.Inventoried(s))
					}
				}
			}
			if len(wantEvents) < 10*n {
				t.Fatalf("only %d trace events: the rounds did not run", len(wantEvents))
			}
		})
	}
}
