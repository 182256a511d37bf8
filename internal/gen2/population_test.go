package gen2

import (
	"fmt"
	"slices"
	"testing"

	"ivn/internal/rng"
)

// twinTags builds n tags with distinct EPCs and per-tag rng streams; two
// calls with the same seed give populations that behave identically.
func twinTags(t *testing.T, n int, seed uint64) []*TagLogic {
	t.Helper()
	tags := make([]*TagLogic, n)
	for i := range tags {
		tg, err := NewTagLogic([]byte{0xE2, byte(i >> 8), byte(i), byte(i * 37)}, rng.New(seed+uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		tags[i] = tg
	}
	return tags
}

// loopBroadcast is the reference: HandleCommand on every tag, in order.
func loopBroadcast(tags []*TagLogic, c Command) ([]Reply, []int) {
	var replies []Reply
	var who []int
	for i, t := range tags {
		if r := t.HandleCommand(c); r.Kind != ReplyNone {
			replies = append(replies, r)
			who = append(who, i)
		}
	}
	return replies, who
}

// commandGen draws random reader commands. It steers toward complete
// handshakes by reusing the RN16s and handles the population last
// backscattered, so ACK, ReqRN, Read and Write reach tags in the states
// that answer them as well as tags that must ignore them.
type commandGen struct {
	g       *rng.Rand
	epcs    [][]byte
	session Session
	rn16s   []uint16
	handles []uint16
	last    ReplyKind
}

func (cg *commandGen) pick(vals []uint16) uint16 {
	if len(vals) > 0 && cg.g.Intn(4) != 0 {
		return vals[cg.g.Intn(len(vals))]
	}
	return uint16(cg.g.Uint64())
}

// roundSession is usually the last Query's session, sometimes another.
func (cg *commandGen) roundSession() Session {
	if cg.g.Intn(4) == 0 {
		return Session(cg.g.Intn(4))
	}
	return cg.session
}

func (cg *commandGen) next() Command {
	k := cg.g.Intn(100)
	// Follow a reply with the command that advances its handshake.
	switch {
	case cg.last == ReplyRN16 && k < 50:
		return &ACK{RN16: cg.pick(cg.rn16s)}
	case cg.last == ReplyEPC && k < 50:
		return &ReqRN{RN16: cg.pick(cg.rn16s)}
	case cg.last == ReplyHandle && k < 25:
		return cg.read()
	case cg.last == ReplyHandle && k < 50:
		return cg.write()
	}
	switch k = cg.g.Intn(100); {
	case k < 10:
		cg.session = Session(cg.g.Intn(4))
		return &Query{
			Session: cg.session,
			Sel:     byte(cg.g.Intn(4)),
			Target:  cg.g.Intn(3) == 0,
			Q:       byte(cg.g.Intn(7)),
			M:       byte(cg.g.Intn(4)),
		}
	case k < 40:
		return &QueryRep{Session: cg.roundSession()}
	case k < 52:
		upDn := []byte{QUp, QSame, QDown}[cg.g.Intn(3)]
		return &QueryAdjust{Session: cg.roundSession(), UpDn: upDn}
	case k < 67:
		return &ACK{RN16: cg.pick(cg.rn16s)}
	case k < 72:
		return &NAK{}
	case k < 82:
		return cg.selectCmd()
	case k < 88:
		return &ReqRN{RN16: cg.pick(cg.rn16s)}
	case k < 94:
		return cg.read()
	default:
		return cg.write()
	}
}

func (cg *commandGen) read() *Read {
	return &Read{Bank: MemoryBank(cg.g.Intn(4)), WordPtr: byte(cg.g.Intn(4)), WordCount: byte(cg.g.Intn(3)), Handle: cg.pick(cg.handles)}
}

func (cg *commandGen) write() *Write {
	return &Write{Bank: MemoryBank(cg.g.Intn(4)), WordPtr: byte(cg.g.Intn(20)), Data: uint16(cg.g.Uint64()), Handle: cg.pick(cg.handles)}
}

// selectCmd masks a slice of a random tag's EPC (so some tags match) or
// random bits, on any target and any of the eight actions.
func (cg *commandGen) selectCmd() *Select {
	s := &Select{
		Target:  byte(cg.g.Intn(5)),
		Action:  byte(cg.g.Intn(8)),
		MemBank: 1,
		Pointer: byte(cg.g.Intn(24)),
	}
	if cg.g.Intn(8) == 0 {
		s.MemBank = byte(cg.g.Intn(4))
	}
	n := 1 + cg.g.Intn(10)
	if cg.g.Intn(3) == 0 {
		for i := 0; i < n; i++ {
			s.Mask = append(s.Mask, byte(cg.g.Intn(2)))
		}
		return s
	}
	bits := BitsFromBytes(cg.epcs[cg.g.Intn(len(cg.epcs))])
	end := int(s.Pointer) + n
	if end > len(bits) {
		end = len(bits)
	}
	s.Mask = append(Bits(nil), bits[s.Pointer:end]...)
	return s
}

// observe records what the replies reveal for later commands to reuse:
// the RN16s of the latest slot with any, and every handle issued.
func (cg *commandGen) observe(replies []Reply) {
	cg.last = ReplyNone
	for j, r := range replies {
		cg.last = r.Kind
		switch r.Kind {
		case ReplyRN16:
			if j == 0 {
				cg.rn16s = cg.rn16s[:0]
			}
			if v, err := r.Bits.Uint(0, 16); err == nil {
				cg.rn16s = append(cg.rn16s, uint16(v))
			}
		case ReplyHandle:
			if v, err := r.Bits.Uint(0, 16); err == nil {
				cg.handles = append(cg.handles, uint16(v))
			}
		}
	}
}

// TestBroadcastMatchesPerTagLoop holds Population.Broadcast to the
// per-tag HandleCommand loop it replaces: twin populations (same EPCs,
// same rng seeds) receive the same seeded random command sequences, one
// through each path, and after every command the replies, the responder
// order and every tag's protocol state must agree. Between segments
// random tags lose power on both twins, and the broadcaster is only
// sometimes Reset, so tags dropping to Ready behind its back are covered;
// every Reset hands the slot counters back, and they must agree too.
func TestBroadcastMatchesPerTagLoop(t *testing.T) {
	for _, n := range []int{1, 7, 300} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			seen := map[ReplyKind]int{}
			for seq := 0; seq < 12; seq++ {
				seed := uint64(1000*n + 10*seq)
				a, b := twinTags(t, n, seed), twinTags(t, n, seed)
				epcs := make([][]byte, n)
				for i, tg := range a {
					epcs[i] = tg.EPC()
				}
				g := rng.New(seed + 7)
				cg := &commandGen{g: g, epcs: epcs}
				var pop Population
				pop.Reset(a)
				var replies []Reply
				var who []int
				for seg := 0; seg < 8; seg++ {
					if seg > 0 {
						for k := g.Intn(n + 1); k > 0; k-- {
							i := g.Intn(n)
							a[i].PowerReset()
							b[i].PowerReset()
						}
						if g.Intn(2) == 0 {
							pop.Reset(a)
							compareSlots(t, fmt.Sprintf("seq %d seg %d hand-back", seq, seg), a, b)
						}
					}
					for c := 0; c < 150; c++ {
						cmd := cg.next()
						replies, who = pop.Broadcast(cmd, replies[:0], who[:0])
						wantReplies, wantWho := loopBroadcast(b, cmd)
						where := fmt.Sprintf("seq %d seg %d cmd %d %v", seq, seg, c, cmd)
						compareReplies(t, where, replies, who, wantReplies, wantWho)
						compareTags(t, where, &pop, a, b)
						cg.observe(replies)
						for _, r := range replies {
							seen[r.Kind]++
						}
					}
				}
			}
			// The comparison is only as strong as the paths it reached.
			want := []ReplyKind{ReplyRN16, ReplyEPC, ReplyHandle, ReplyRead, ReplyWrite}
			if n == 1 {
				want = want[:3]
			}
			for _, k := range want {
				if seen[k] == 0 {
					t.Errorf("no %s reply in any sequence: %v", k, seen)
				}
			}
		})
	}
}

// TestCalendarMatchesPerTagLoop drives the slot calendar through the
// paths random command mixes rarely reach, against the per-tag loop on a
// twin population: a Q=15 draw, counters beyond the first filed window
// firing, a QueryRep run long enough for rolled-over counters to come
// due, QueryReps and QueryAdjusts of a session other than
// the parked one, a QueryAdjust of the parked session redrawing parked
// tags in place and meeting parked tags that lost power, parked tags
// losing power with and without a Reset, and a second Reset mid-round.
// Every command compares replies and tag state; every Reset hands the
// counters back and compares every tag's counter. Like the random test,
// it fails if a path was never reached.
func TestCalendarMatchesPerTagLoop(t *testing.T) {
	seen := map[string]int{}
	for seed := uint64(1); seed <= 3; seed++ {
		const n = 40
		a, b := twinTags(t, n, 5000*seed), twinTags(t, n, 5000*seed)
		g := rng.New(seed)
		var pop Population
		pop.Reset(a)
		var replies []Reply
		var who []int
		var cmds int
		send := func(cmd Command) {
			cmds++
			switch c := cmd.(type) {
			case *QueryRep:
				if pop.calendar && c.Session != pop.session {
					seen["QueryRep of another session"]++
				}
				if pop.calendar && c.Session == pop.session &&
					pop.first < len(pop.rolled) && pop.due[pop.rolled[pop.first]] == pop.clock+1 {
					seen["rolled-over counter fires"]++
				}
				if pop.calendar && c.Session == pop.session && pop.clock+1 < drawLimit {
					for i, d := range pop.due {
						switch {
						case d != pop.clock+1:
						case a[i].state != StateArbitrate:
							seen["bucket skips a tag that lost power"]++
						case d >= window:
							seen["counter beyond the first window fires"]++
						}
					}
				}
			case *QueryAdjust:
				if pop.calendar && c.Session != pop.session {
					seen["QueryAdjust of another session"]++
				}
				if pop.calendar && c.Session == pop.session {
					for i, d := range pop.due {
						switch {
						case d != 0 && a[i].state == StateArbitrate:
							seen["QueryAdjust of the calendar's session redraws parked tags"]++
						case d != 0:
							seen["QueryAdjust of the calendar's session meets a parked tag that lost power"]++
						}
					}
				}
			}
			replies, who = pop.Broadcast(cmd, replies[:0], who[:0])
			wantReplies, wantWho := loopBroadcast(b, cmd)
			where := fmt.Sprintf("seed %d cmd %d %v", seed, cmds, cmd)
			compareReplies(t, where, replies, who, wantReplies, wantWho)
			compareTags(t, where, &pop, a, b)
		}
		handBack := func(what string) {
			pop.Reset(a)
			compareSlots(t, fmt.Sprintf("seed %d after %d cmds, %s", seed, cmds, what), a, b)
		}
		// loseParked drops power on about a quarter of the parked tags.
		loseParked := func(what string) {
			for i := range a {
				if pop.due[i] != 0 && g.Intn(4) == 0 {
					a[i].PowerReset()
					b[i].PowerReset()
					seen[what]++
				}
			}
		}
		// sweep issues k QueryReps of session s, of which on average one
		// in every goes to session other instead. It ACKs a third of the
		// slots that singulate; the rest fall back to arbitration and
		// roll over.
		sweep := func(s, other Session, every, k int) {
			for j := 0; j < k; j++ {
				if g.Intn(every) == 0 {
					send(&QueryRep{Session: other})
					continue
				}
				send(&QueryRep{Session: s})
				if len(replies) == 1 && replies[0].Kind == ReplyRN16 && g.Intn(3) == 0 {
					rn, _ := replies[0].Bits.Uint(0, 16)
					send(&ACK{RN16: uint16(rn)})
				}
			}
		}

		send(&Query{Session: S2, Q: 15})
		if slices.Max(pop.due) > 1<<14 {
			seen["Q=15 draw"]++
		}
		sweep(S2, S1, 64, 2*rolloverSlot+4096)
		handBack("long sweep")

		// A QueryAdjust of S1 hands the parked S2 counters back; the S1
		// QueryReps that follow tick a calendar while S2 tags roll over
		// on the live list.
		send(&Query{Session: S2, Q: 5})
		sweep(S2, S1, 4, 8)
		send(&QueryAdjust{Session: S1, UpDn: QSame})
		sweep(S2, S1, 2, 300)
		handBack("QueryAdjust of another session")

		// Fresh rounds with every S2 flag set back to A, so most tags
		// wait in buckets when they lose power.
		freshRound := func() {
			send(&Select{Target: byte(S2), Action: 0, MemBank: 1})
			send(&Query{Session: S2, Q: 6})
			sweep(S2, S1, 64, 10)
		}
		freshRound()
		loseParked("parked tag loses power, no Reset")
		sweep(S2, S1, 64, 2000)
		handBack("power loss without Reset")

		// A QueryAdjust of the parked session redraws the parked tags in
		// place and drops the ones that lost power.
		freshRound()
		loseParked("parked tag loses power before a QueryAdjust")
		send(&QueryAdjust{Session: S2, UpDn: QDown})
		sweep(S2, S1, 64, 300)
		handBack("QueryAdjust after power loss")

		freshRound()
		loseParked("parked tag loses power, then Reset")
		handBack("power loss then Reset")
		send(&QueryAdjust{Session: S2, UpDn: QUp})
		sweep(S2, S1, 64, 200)

		send(&Query{Session: S2, Q: 8, Target: true})
		sweep(S2, S1, 64, 50)
		handBack("first Reset")
		for _, tg := range a {
			if tg.state == StateArbitrate {
				seen["second Reset mid-round"]++
				break
			}
		}
		handBack("second Reset")
		sweep(S2, S1, 64, 200)
		send(&QueryAdjust{Session: S2, UpDn: QSame})
		sweep(S2, S1, 64, 600)
		handBack("round end")
	}
	for _, k := range []string{
		"Q=15 draw", "rolled-over counter fires", "QueryRep of another session",
		"QueryAdjust of another session", "parked tag loses power, no Reset",
		"parked tag loses power, then Reset", "bucket skips a tag that lost power",
		"second Reset mid-round", "QueryAdjust of the calendar's session redraws parked tags",
		"QueryAdjust of the calendar's session meets a parked tag that lost power",
		"counter beyond the first window fires",
	} {
		if seen[k] == 0 {
			t.Errorf("path never reached: %s (%v)", k, seen)
		}
	}
}

// compareSlots checks every tag's slot counter against the reference
// once the calendar has handed the counters back.
func compareSlots(t *testing.T, where string, a, b []*TagLogic) {
	t.Helper()
	for i := range a {
		if a[i].state != b[i].state || a[i].slot != b[i].slot {
			t.Fatalf("%s: tag %d %s slot %d, want %s slot %d", where, i, a[i].state, a[i].slot, b[i].state, b[i].slot)
		}
	}
}

func compareReplies(t *testing.T, where string, got []Reply, gotWho []int, want []Reply, wantWho []int) {
	t.Helper()
	if len(got) != len(want) || len(gotWho) != len(wantWho) {
		t.Fatalf("%s: %d replies from %v, want %d from %v", where, len(got), gotWho, len(want), wantWho)
	}
	for i := range want {
		if gotWho[i] != wantWho[i] {
			t.Fatalf("%s: responders %v, want %v", where, gotWho, wantWho)
		}
		if got[i].Kind != want[i].Kind || !got[i].Bits.Equal(want[i].Bits) {
			t.Fatalf("%s: reply %d = %s %v, want %s %v", where, i, got[i].Kind, got[i].Bits, want[i].Kind, want[i].Bits)
		}
	}
}

// compareTags checks every tag's protocol state against the reference:
// state, flags, last RN16, Q and the generator, so a skipped or extra
// draw fails at the command that caused it, and an arbitrating tag's slot
// counter, read from the calendar while the tag is parked there.
func compareTags(t *testing.T, where string, pop *Population, a, b []*TagLogic) {
	t.Helper()
	for i := range a {
		x, y := a[i], b[i]
		if x.State() != y.State() || x.SL() != y.SL() || x.LastRN16() != y.LastRN16() {
			t.Fatalf("%s: tag %d state %s sl %v rn16 %#04x, want %s %v %#04x",
				where, i, x.State(), x.SL(), x.LastRN16(), y.State(), y.SL(), y.LastRN16())
		}
		if x.q != y.q || x.random != y.random {
			t.Fatalf("%s: tag %d Q %d generator %x, want Q %d generator %x", where, i, x.q, x.random, y.q, y.random)
		}
		if x.state == StateArbitrate {
			slot := x.slot
			if d := pop.due[i]; d != 0 {
				slot = uint32(d - pop.clock)
			}
			if slot != y.slot {
				t.Fatalf("%s: tag %d counter %d (due %d, clock %d), want %d", where, i, slot, pop.due[i], pop.clock, y.slot)
			}
		}
		for s := S0; s <= S3; s++ {
			if x.Inventoried(s) != y.Inventoried(s) {
				t.Fatalf("%s: tag %d Inventoried(S%d) = %v, want %v", where, i, s, x.Inventoried(s), y.Inventoried(s))
			}
		}
	}
}
