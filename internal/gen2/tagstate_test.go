package gen2

import (
	"testing"

	"ivn/internal/rng"
)

func newTag(t *testing.T, seed uint64) *TagLogic {
	t.Helper()
	tag, err := NewTagLogic([]byte{0xE2, 0x00, 0x12, 0x34}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tag
}

func TestNewTagLogicValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewTagLogic(nil, r); err == nil {
		t.Fatal("empty EPC accepted")
	}
	if _, err := NewTagLogic([]byte{1}, r); err == nil {
		t.Fatal("odd EPC accepted")
	}
	if _, err := NewTagLogic(make([]byte, 64), r); err == nil {
		t.Fatal("oversized EPC accepted")
	}
	if _, err := NewTagLogic([]byte{1, 2}, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestQueryQ0ImmediateReply(t *testing.T) {
	tag := newTag(t, 2)
	reply := tag.HandleCommand(&Query{Q: 0})
	if reply.Kind != ReplyRN16 {
		t.Fatalf("Q=0 reply kind = %s", reply.Kind)
	}
	if tag.State() != StateReply {
		t.Fatalf("state = %s, want Reply", tag.State())
	}
	var rn RN16Reply
	if err := rn.DecodeFromBits(reply.Bits); err != nil {
		t.Fatal(err)
	}
	if rn.RN16 != tag.LastRN16() {
		t.Fatal("reply RN16 differs from tag's")
	}
}

func TestFullInventoryHandshake(t *testing.T) {
	tag := newTag(t, 3)
	reply := tag.HandleCommand(&Query{Q: 0, Session: S1})
	if reply.Kind != ReplyRN16 {
		t.Fatalf("no RN16: %s", reply.Kind)
	}
	var rn RN16Reply
	if err := rn.DecodeFromBits(reply.Bits); err != nil {
		t.Fatal(err)
	}
	// ACK with the right RN16 → EPC reply.
	epcReply := tag.HandleCommand(&ACK{RN16: rn.RN16})
	if epcReply.Kind != ReplyEPC {
		t.Fatalf("ACK reply kind = %s", epcReply.Kind)
	}
	var epc EPCReply
	if err := epc.DecodeFromBits(epcReply.Bits); err != nil {
		t.Fatal(err)
	}
	want := tag.EPC()
	for i := range want {
		if epc.EPC[i] != want[i] {
			t.Fatal("EPC mismatch")
		}
	}
	if tag.State() != StateAcknowledged {
		t.Fatalf("state = %s", tag.State())
	}
	// ReqRN issues a handle.
	h := tag.HandleCommand(&ReqRN{RN16: rn.RN16})
	if h.Kind != ReplyHandle {
		t.Fatalf("ReqRN reply = %s", h.Kind)
	}
	if !CheckCRC16(h.Bits) {
		t.Fatal("handle reply CRC broken")
	}
	if tag.State() != StateOpen {
		t.Fatalf("state = %s, want Open", tag.State())
	}
	// Next QueryRep ends the tag's round and flips its inventoried flag.
	if tag.Inventoried(S1) {
		t.Fatal("inventoried flag set early")
	}
	tag.HandleCommand(&QueryRep{Session: S1})
	if !tag.Inventoried(S1) {
		t.Fatal("inventoried flag not flipped after round")
	}
	if tag.State() != StateReady {
		t.Fatalf("state = %s, want Ready", tag.State())
	}
}

func TestWrongACKSendsToArbitrate(t *testing.T) {
	tag := newTag(t, 4)
	reply := tag.HandleCommand(&Query{Q: 0})
	var rn RN16Reply
	if err := rn.DecodeFromBits(reply.Bits); err != nil {
		t.Fatal(err)
	}
	bad := tag.HandleCommand(&ACK{RN16: rn.RN16 ^ 0xFFFF})
	if bad.Kind != ReplyNone {
		t.Fatalf("wrong ACK got reply %s", bad.Kind)
	}
	if tag.State() != StateArbitrate {
		t.Fatalf("state = %s, want Arbitrate", tag.State())
	}
}

func TestNAKReturnsToArbitrate(t *testing.T) {
	tag := newTag(t, 5)
	reply := tag.HandleCommand(&Query{Q: 0})
	var rn RN16Reply
	_ = rn.DecodeFromBits(reply.Bits)
	tag.HandleCommand(&ACK{RN16: rn.RN16})
	tag.HandleCommand(&NAK{})
	if tag.State() != StateArbitrate {
		t.Fatalf("state after NAK = %s", tag.State())
	}
}

func TestSlottedCountdown(t *testing.T) {
	// With Q=4 and a known seed the tag draws some slot; QueryReps must
	// count it down to a reply in at most 2^Q steps.
	tag := newTag(t, 6)
	reply := tag.HandleCommand(&Query{Q: 4, Session: S2})
	steps := 0
	for reply.Kind == ReplyNone {
		if tag.State() != StateArbitrate {
			t.Fatalf("state = %s during countdown", tag.State())
		}
		reply = tag.HandleCommand(&QueryRep{Session: S2})
		steps++
		if steps > 16 {
			t.Fatal("slot never reached zero")
		}
	}
	if reply.Kind != ReplyRN16 {
		t.Fatalf("countdown ended with %s", reply.Kind)
	}
}

func TestQueryRepWrongSessionIgnored(t *testing.T) {
	tag := newTag(t, 7)
	tag.HandleCommand(&Query{Q: 4, Session: S2})
	st := tag.State()
	tag.HandleCommand(&QueryRep{Session: S1})
	if tag.State() != st {
		t.Fatal("wrong-session QueryRep changed state")
	}
}

// TestQueryClosesOutOnlyItsOwnSession: a Query reaching an acknowledged
// tag inverts the prior session's inventoried flag only when it names
// that session (Gen2 §6.3.2.12.2.1); a Query in another session leaves
// the flag at A, so the tag is still unread in its prior session.
func TestQueryClosesOutOnlyItsOwnSession(t *testing.T) {
	for _, tc := range []struct {
		next Session
		want bool
	}{{S2, false}, {S1, true}} {
		tag := newTag(t, 12)
		var rn RN16Reply
		if err := rn.DecodeFromBits(tag.HandleCommand(&Query{Q: 0, Session: S1}).Bits); err != nil {
			t.Fatal(err)
		}
		if r := tag.HandleCommand(&ACK{RN16: rn.RN16}); r.Kind != ReplyEPC {
			t.Fatalf("ACK reply kind = %s", r.Kind)
		}
		tag.HandleCommand(&Query{Q: 4, Session: tc.next})
		if got := tag.Inventoried(S1); got != tc.want {
			t.Errorf("Query in S%d after an S1 ACK: Inventoried(S1) = %v, want %v", tc.next, got, tc.want)
		}
	}
}

func TestMissedACKBackToArbitrate(t *testing.T) {
	tag := newTag(t, 8)
	tag.HandleCommand(&Query{Q: 0, Session: S0})
	if tag.State() != StateReply {
		t.Fatalf("state = %s", tag.State())
	}
	// Reader moves on without ACKing.
	tag.HandleCommand(&QueryRep{Session: S0})
	if tag.State() != StateArbitrate {
		t.Fatalf("state = %s, want Arbitrate", tag.State())
	}
}

// TestFailedSingulationRollsOver: after a missed ACK the tag's zero slot
// counter must roll over to the spec maximum on the next QueryRep
// (6.3.2.12.2) instead of re-entering the slot — without the rollover a
// failed tag backscatters every other slot and collides out the rest of
// the round.
func TestFailedSingulationRollsOver(t *testing.T) {
	tag := newTag(t, 21)
	tag.HandleCommand(&Query{Q: 0, Session: S0})
	if tag.State() != StateReply {
		t.Fatalf("state = %s", tag.State())
	}
	// Reader moves on without ACKing: back to arbitrate, counter stale at 0.
	tag.HandleCommand(&QueryRep{Session: S0})
	if tag.State() != StateArbitrate {
		t.Fatalf("state = %s, want Arbitrate", tag.State())
	}
	// The tag must now stay silent for the rest of any realistic round...
	for i := 0; i < 64; i++ {
		if reply := tag.HandleCommand(&QueryRep{Session: S0}); reply.Kind != ReplyNone {
			t.Fatalf("QueryRep %d: failed tag re-replied with %s", i, reply.Kind)
		}
	}
	if tag.State() != StateArbitrate {
		t.Fatalf("state = %s, want Arbitrate", tag.State())
	}
	// ...but a new Query re-randomizes it back into contention.
	if reply := tag.HandleCommand(&Query{Q: 0, Session: S0}); reply.Kind != ReplyRN16 {
		t.Fatalf("fresh Query reply = %s, want RN16", reply.Kind)
	}
	// A QueryAdjust must likewise rescue a rolled-over tag: fail it again,
	// then redraw into a 1-slot space.
	tag.HandleCommand(&QueryRep{Session: S0}) // missed ACK
	tag.HandleCommand(&QueryRep{Session: S0}) // rollover
	reply := tag.HandleCommand(&QueryAdjust{Session: S0, UpDn: QDown})
	if tag.State() != StateReply || reply.Kind != ReplyRN16 {
		t.Fatalf("QueryAdjust after rollover: state %s reply %s", tag.State(), reply.Kind)
	}
}

func TestQueryAdjustRedraws(t *testing.T) {
	tag := newTag(t, 9)
	tag.HandleCommand(&Query{Q: 4, Session: S0})
	reply := tag.HandleCommand(&QueryAdjust{Session: S0, UpDn: QDown})
	// Either it redrew 0 (reply) or a positive slot (arbitrate); both are
	// legal — what matters is it stays in the round.
	if tag.State() != StateReply && tag.State() != StateArbitrate {
		t.Fatalf("state = %s", tag.State())
	}
	if tag.State() == StateReply && reply.Kind != ReplyRN16 {
		t.Fatal("reply state without RN16")
	}
	// Adjust in wrong session is ignored.
	tag2 := newTag(t, 10)
	tag2.HandleCommand(&Query{Q: 4, Session: S0})
	st := tag2.State()
	tag2.HandleCommand(&QueryAdjust{Session: S3, UpDn: QUp})
	if tag2.State() != st {
		t.Fatal("wrong-session QueryAdjust changed state")
	}
}

func TestSelectSLFlagGating(t *testing.T) {
	tag := newTag(t, 11)
	epcBits := BitsFromBytes(tag.EPC())
	// Assert SL on match (action 0, target 4 = SL).
	sel := &Select{Target: 4, Action: 0, MemBank: 1, Pointer: 0, Mask: epcBits[:8]}
	tag.HandleCommand(sel)
	if !tag.SL() {
		t.Fatal("matching Select did not assert SL")
	}
	// Query with Sel=3 (SL only) → participates.
	reply := tag.HandleCommand(&Query{Q: 0, Sel: 3})
	if reply.Kind != ReplyRN16 {
		t.Fatal("SL tag did not answer Sel=3 query")
	}
	// Non-matching Select deasserts SL.
	wrong := append(Bits(nil), epcBits[:8]...)
	wrong[0] ^= 1
	tag.HandleCommand(&Select{Target: 4, Action: 0, MemBank: 1, Pointer: 0, Mask: wrong})
	if tag.SL() {
		t.Fatal("non-matching Select left SL asserted")
	}
	// Now a Sel=3 query is ignored, a Sel=2 (~SL) query is answered.
	if reply := tag.HandleCommand(&Query{Q: 0, Sel: 3}); reply.Kind != ReplyNone {
		t.Fatal("~SL tag answered Sel=3 query")
	}
	if reply := tag.HandleCommand(&Query{Q: 0, Sel: 2}); reply.Kind != ReplyRN16 {
		t.Fatal("~SL tag ignored Sel=2 query")
	}
}

func TestSelectActionTable(t *testing.T) {
	epc := []byte{0xAB, 0xCD}
	epcBits := BitsFromBytes(epc)
	match := epcBits[:4]
	noMatch := append(Bits(nil), match...)
	noMatch[0] ^= 1

	mk := func(seed uint64) *TagLogic {
		tag, _ := NewTagLogic(epc, rng.New(seed))
		return tag
	}
	// Action 3: negate on match.
	tag := mk(1)
	tag.HandleCommand(&Select{Target: 4, Action: 3, MemBank: 1, Mask: match})
	if !tag.SL() {
		t.Fatal("action 3 negate failed")
	}
	tag.HandleCommand(&Select{Target: 4, Action: 3, MemBank: 1, Mask: match})
	if tag.SL() {
		t.Fatal("double negate failed")
	}
	// Action 4: deassert on match, assert on non-match.
	tag = mk(2)
	tag.HandleCommand(&Select{Target: 4, Action: 4, MemBank: 1, Mask: noMatch})
	if !tag.SL() {
		t.Fatal("action 4 non-match assert failed")
	}
	tag.HandleCommand(&Select{Target: 4, Action: 4, MemBank: 1, Mask: match})
	if tag.SL() {
		t.Fatal("action 4 match deassert failed")
	}
	// Action 7: negate on non-match.
	tag = mk(3)
	tag.HandleCommand(&Select{Target: 4, Action: 7, MemBank: 1, Mask: noMatch})
	if !tag.SL() {
		t.Fatal("action 7 negate failed")
	}
	// Session-flag target: action 0 on S2 sets inventoried A (assert).
	tag = mk(4)
	tag.HandleCommand(&Query{Q: 0, Session: S2})
	tag.HandleCommand(&QueryRep{Session: S2}) // back to arbitrate; still in round
	tag.HandleCommand(&Select{Target: byte(S2), Action: 0, MemBank: 1, Mask: match})
	if tag.Inventoried(S2) {
		t.Fatal("Select did not assert inventoried A")
	}
	if tag.State() != StateReady {
		t.Fatal("Select did not abort the round")
	}
}

func TestSelectOutOfRangeMaskNoMatch(t *testing.T) {
	tag := newTag(t, 12)
	long := make(Bits, 64) // longer than the 32-bit EPC
	tag.HandleCommand(&Select{Target: 4, Action: 1, MemBank: 1, Pointer: 0, Mask: long})
	if tag.SL() {
		t.Fatal("over-length mask matched")
	}
	// Non-EPC bank is not modeled → never matches.
	epcBits := BitsFromBytes(tag.EPC())
	tag.HandleCommand(&Select{Target: 4, Action: 1, MemBank: 2, Pointer: 0, Mask: epcBits[:4]})
	if tag.SL() {
		t.Fatal("non-EPC bank matched")
	}
}

func TestTargetFlagParticipation(t *testing.T) {
	tag := newTag(t, 13)
	// Complete one round: flag flips to B.
	reply := tag.HandleCommand(&Query{Q: 0, Session: S1, Target: false})
	var rn RN16Reply
	_ = rn.DecodeFromBits(reply.Bits)
	tag.HandleCommand(&ACK{RN16: rn.RN16})
	tag.HandleCommand(&QueryRep{Session: S1})
	if !tag.Inventoried(S1) {
		t.Fatal("flag not flipped")
	}
	// Target=A query now ignored; Target=B answered.
	if reply := tag.HandleCommand(&Query{Q: 0, Session: S1, Target: false}); reply.Kind != ReplyNone {
		t.Fatal("B-flagged tag answered Target=A query")
	}
	if reply := tag.HandleCommand(&Query{Q: 0, Session: S1, Target: true}); reply.Kind != ReplyRN16 {
		t.Fatal("B-flagged tag ignored Target=B query")
	}
}

func TestPowerReset(t *testing.T) {
	tag := newTag(t, 14)
	epcBits := BitsFromBytes(tag.EPC())
	tag.HandleCommand(&Select{Target: 4, Action: 1, MemBank: 1, Mask: epcBits[:4]})
	tag.HandleCommand(&Query{Q: 0, Session: S0})
	tag.PowerReset()
	if tag.State() != StateReady || tag.SL() || tag.Inventoried(S0) {
		t.Fatal("PowerReset left volatile state")
	}
}

func TestOutOfStateCommandsIgnored(t *testing.T) {
	tag := newTag(t, 15)
	// ACK/ReqRN before any query: silent.
	if r := tag.HandleCommand(&ACK{RN16: 1}); r.Kind != ReplyNone {
		t.Fatal("idle tag answered ACK")
	}
	if r := tag.HandleCommand(&ReqRN{RN16: 1}); r.Kind != ReplyNone {
		t.Fatal("idle tag answered ReqRN")
	}
	if tag.State() != StateReady {
		t.Fatalf("state = %s", tag.State())
	}
}

func TestReqRNWrongRN16Ignored(t *testing.T) {
	tag := newTag(t, 16)
	reply := tag.HandleCommand(&Query{Q: 0})
	var rn RN16Reply
	_ = rn.DecodeFromBits(reply.Bits)
	tag.HandleCommand(&ACK{RN16: rn.RN16})
	if r := tag.HandleCommand(&ReqRN{RN16: rn.RN16 ^ 1}); r.Kind != ReplyNone {
		t.Fatal("wrong-RN16 ReqRN answered")
	}
	if tag.State() != StateAcknowledged {
		t.Fatalf("state = %s", tag.State())
	}
}

func TestTwoTagsCollideAndResolve(t *testing.T) {
	// Classic slotted-ALOHA: two tags with Q=2 eventually single out.
	tagA := newTag(t, 20)
	tagB, err := NewTagLogic([]byte{0xBB, 0xBB}, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Q: 2, Session: S0}
	ra, rb := tagA.HandleCommand(q), tagB.HandleCommand(q)
	resolved := false
	for round := 0; round < 50 && !resolved; round++ {
		aUp := ra.Kind == ReplyRN16
		bUp := rb.Kind == ReplyRN16
		switch {
		case aUp && !bUp:
			var rn RN16Reply
			_ = rn.DecodeFromBits(ra.Bits)
			if rep := tagA.HandleCommand(&ACK{RN16: rn.RN16}); rep.Kind != ReplyEPC {
				t.Fatal("singulated tag A gave no EPC")
			}
			resolved = true
		case bUp && !aUp:
			var rn RN16Reply
			_ = rn.DecodeFromBits(rb.Bits)
			if rep := tagB.HandleCommand(&ACK{RN16: rn.RN16}); rep.Kind != ReplyEPC {
				t.Fatal("singulated tag B gave no EPC")
			}
			resolved = true
		default:
			// Collision or empty slot: next slot.
			rep := &QueryRep{Session: S0}
			ra, rb = tagA.HandleCommand(rep), tagB.HandleCommand(rep)
		}
	}
	if !resolved {
		t.Fatal("inventory never singulated a tag")
	}
}

func TestTagStateStrings(t *testing.T) {
	for s, want := range map[TagState]string{
		StateReady: "Ready", StateArbitrate: "Arbitrate", StateReply: "Reply",
		StateAcknowledged: "Acknowledged", StateOpen: "Open",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if TagState(99).String() == "" {
		t.Error("unknown state has empty string")
	}
	for k, want := range map[ReplyKind]string{
		ReplyNone: "none", ReplyRN16: "RN16", ReplyEPC: "EPC", ReplyHandle: "Handle",
	} {
		if k.String() != want {
			t.Errorf("ReplyKind %d = %q", k, k.String())
		}
	}
	if ReplyKind(99).String() == "" {
		t.Error("unknown reply kind has empty string")
	}
}
