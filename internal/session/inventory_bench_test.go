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

// benchTags builds n tags with distinct EPCs and per-tag rng streams.
func benchTags(tb testing.TB, n int) []*gen2.TagLogic {
	tb.Helper()
	tags := make([]*gen2.TagLogic, n)
	for i := range tags {
		tg, err := gen2.NewTagLogic([]byte{0xBE, byte(i), byte(0x0C + i>>8), 0x04}, rng.New(uint64(900+i)))
		if err != nil {
			tb.Fatal(err)
		}
		tags[i] = tg
	}
	return tags
}

// shadowedChannel is the event channel of a dense population as the
// population experiments build it: 4 dB lognormal shadowing around the
// decode waterfall's edge with a 3 dB capture threshold.
func shadowedChannel(n int) *EventChannel {
	ec := &EventChannel{Budgets: make([]TagBudget, n), CaptureRatio: 2}
	shadow := rng.New(77)
	for i := range ec.Budgets {
		f := math.Pow(10, shadow.NormFloat64()*4/10)
		ec.Budgets[i] = TagBudget{SNR: 1.2 * f, RSSI: f}
	}
	return ec
}

// BenchmarkInventoryRound pins the per-round cost of the inventory hot
// path over 6 tags. The clean variant is the nil-fault path, where
// gen2.Population visits only the tags a command can reach, and its
// allocations are the round's setup plus the tags' reply bits; the fault
// variants price the injection seam and the recovery stack. The
// event-channel-1000 variants are dense rounds as the population
// experiments run them (1000 shadowed tags through EventChannel) and
// report ns/slot: with floating Q a quarter of the commands are
// QueryAdjusts, which redraw every round member, while fixed Q (no
// Recovery) follows each Query with a full sweep of QueryReps, which the
// slot calendar answers without visiting the waiting tags.
func BenchmarkInventoryRound(b *testing.B) {
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
		run(b, ic, benchTags(b, 6))
	}
	dense := func(b *testing.B, rec *RecoveryPolicy) {
		const n = 1000
		ic := NewInventoryController(gen2.S0)
		ic.MaxCommands = 12*n + 256
		ic.Channel = shadowedChannel(n)
		ic.Recovery = rec
		slots := run(b, ic, benchTags(b, n))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
	}
	b.Run("clean-nil-fault", func(b *testing.B) { bench(b, nil, nil) })
	b.Run("clean-channel-fault", func(b *testing.B) { bench(b, cleanChannel{}, nil) })
	b.Run("clean-channel-recovery", func(b *testing.B) { bench(b, cleanChannel{}, DefaultRecovery()) })
	b.Run("event-channel-1000", func(b *testing.B) { dense(b, DefaultRecovery()) })
	b.Run("event-channel-1000-fixed", func(b *testing.B) { dense(b, nil) })
}
