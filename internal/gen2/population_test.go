package gen2

import (
	"fmt"
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
// sometimes Reset, so tags dropping to Ready behind its back are covered.
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
						}
					}
					for c := 0; c < 150; c++ {
						cmd := cg.next()
						replies, who = pop.Broadcast(cmd, replies[:0], who[:0])
						wantReplies, wantWho := loopBroadcast(b, cmd)
						where := fmt.Sprintf("seq %d seg %d cmd %d %v", seq, seg, c, cmd)
						compareReplies(t, where, replies, who, wantReplies, wantWho)
						compareTags(t, where, a, b)
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

func compareTags(t *testing.T, where string, a, b []*TagLogic) {
	t.Helper()
	for i := range a {
		x, y := a[i], b[i]
		if x.State() != y.State() || x.SL() != y.SL() || x.LastRN16() != y.LastRN16() {
			t.Fatalf("%s: tag %d state %s sl %v rn16 %#04x, want %s %v %#04x",
				where, i, x.State(), x.SL(), x.LastRN16(), y.State(), y.SL(), y.LastRN16())
		}
		for s := S0; s <= S3; s++ {
			if x.Inventoried(s) != y.Inventoried(s) {
				t.Fatalf("%s: tag %d Inventoried(S%d) = %v, want %v", where, i, s, x.Inventoried(s), y.Inventoried(s))
			}
		}
	}
}
