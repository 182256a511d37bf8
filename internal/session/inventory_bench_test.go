package session

import (
	"fmt"
	"math"
	"testing"

	"ivn/internal/gen2"
	"ivn/internal/rng"
)

// cleanChannel is a fault that never fires: it measures the cost of the
// faulted broadcast path itself (interface dispatch + command clock)
// against the nil fast path.
type cleanChannel struct{}

func (cleanChannel) CommandTruncated(int) bool                          { return false }
func (cleanChannel) TagPowered(int, int) bool                           { return true }
func (cleanChannel) CorruptUplink(_ int, b gen2.Bits) (gen2.Bits, bool) { return b, false }

// BenchmarkInventoryRound pins the per-round cost of the inventory hot
// path over 6 tags. The clean variant is the nil-fault path, where
// gen2.Population skips the tags a command cannot reach, and its
// allocations are the round's setup plus the tags' reply bits; the fault
// variants price the injection seam and the recovery stack. The
// event-channel-1000 variant is a dense round as the population
// experiments run it (1000 shadowed tags through EventChannel, floating
// Q) and reports ns/slot, the cost the member-only broadcast cuts.
func BenchmarkInventoryRound(b *testing.B) {
	newTags := func(b *testing.B, n int) []*gen2.TagLogic {
		tags := make([]*gen2.TagLogic, n)
		for i := range tags {
			tg, err := gen2.NewTagLogic([]byte{0xBE, byte(i), byte(0x0C + i>>8), 0x04}, rng.New(uint64(900+i)))
			if err != nil {
				b.Fatal(err)
			}
			tags[i] = tg
		}
		return tags
	}
	run := func(b *testing.B, ic *InventoryController, tags []*gen2.TagLogic) (slots int) {
		r := rng.New(5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tg := range tags {
				tg.PowerReset()
			}
			st, err := ic.RunRound(tags, r.Split(fmt.Sprintf("round-%d", i)))
			if err != nil {
				b.Fatal(err)
			}
			slots += st.Slots
		}
		return slots
	}
	bench := func(b *testing.B, fault ChannelFault, rec *RecoveryPolicy) {
		ic := NewInventoryController(gen2.S0)
		ic.Fault = fault
		ic.Recovery = rec
		run(b, ic, newTags(b, 6))
	}
	b.Run("clean-nil-fault", func(b *testing.B) { bench(b, nil, nil) })
	b.Run("clean-channel-fault", func(b *testing.B) { bench(b, cleanChannel{}, nil) })
	b.Run("clean-channel-recovery", func(b *testing.B) { bench(b, cleanChannel{}, DefaultRecovery()) })
	b.Run("event-channel-1000", func(b *testing.B) {
		const n = 1000
		tags := newTags(b, n)
		// 4 dB lognormal shadowing around the decode waterfall's edge
		// with a 3 dB capture threshold, as in the population experiments.
		ec := &EventChannel{Budgets: make([]TagBudget, n), CaptureRatio: 2}
		shadow := rng.New(77)
		for i := range ec.Budgets {
			f := math.Pow(10, shadow.NormFloat64()*4/10)
			ec.Budgets[i] = TagBudget{SNR: 1.2 * f, RSSI: f}
		}
		ic := NewInventoryController(gen2.S0)
		ic.MaxCommands = 12*n + 256
		ic.Channel = ec
		ic.Recovery = DefaultRecovery()
		slots := run(b, ic, tags)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
	})
}
