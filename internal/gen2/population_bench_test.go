package gen2

import (
	"testing"

	"ivn/internal/rng"
)

// BenchmarkQueryAdjustPass prices the QueryAdjust redraw over a dense
// round: 1000 tags enter a Q=7 Query, then QueryAdjusts alternate up and
// down, each followed by two QueryReps, as the floating-Q controller
// issues them. ns/visit is the wall time over the members the
// QueryAdjusts visit; the QueryReps ride along in the time.
//
// The mixed variant adds what the controller's rounds also hold: every
// fourth QueryAdjust names another session (every member takes the slow
// path, and the QueryReps after it visit the whole round), and a lone
// reply to a QueryAdjust is ACKed, so an Acknowledged tag meets the next
// QueryRep and drops out. When the round falls below 900 members, a
// Select and a Query, outside the timer, refill it.
func BenchmarkQueryAdjustPass(b *testing.B) {
	run := func(b *testing.B, mixed bool) {
		const n = 1000
		tags := make([]*TagLogic, n)
		for i := range tags {
			tg, err := NewTagLogic([]byte{0xE2, byte(i >> 8), byte(i), 0x20}, rng.New(uint64(7000+i)))
			if err != nil {
				b.Fatal(err)
			}
			tags[i] = tg
		}
		var pop Population
		pop.Reset(tags)
		var replies []Reply
		var who []int
		send := func(c Command) {
			replies, who = pop.Broadcast(c, replies[:0], who[:0])
		}
		refill := func() {
			send(&Select{Target: byte(S0), Action: 0, MemBank: 1})
			send(&Query{Session: S0, Q: 7})
		}
		refill()
		// The commands are built once, so the loop allocates only what
		// the population does.
		adjust := [2][2]*QueryAdjust{
			{{Session: S0, UpDn: QUp}, {Session: S0, UpDn: QDown}},
			{{Session: S1, UpDn: QUp}, {Session: S1, UpDn: QDown}},
		}
		rep, ack := &QueryRep{Session: S0}, &ACK{}
		var visits int
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			if mixed && len(pop.members) < 900 {
				b.StopTimer()
				refill()
				b.StartTimer()
			}
			other := 0
			if mixed && k%4 == 3 {
				other = 1
			}
			visits += len(pop.members)
			send(adjust[other][k&1])
			if mixed && len(replies) == 1 && replies[0].Kind == ReplyRN16 {
				rn, _ := replies[0].Bits.Uint(0, 16)
				ack.RN16 = uint16(rn)
				send(ack)
			}
			send(rep)
			send(rep)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visits), "ns/visit")
	}
	b.Run("arbitrate", func(b *testing.B) { run(b, false) })
	b.Run("mixed", func(b *testing.B) { run(b, true) })
}
