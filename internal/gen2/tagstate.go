package gen2

import (
	"fmt"

	"ivn/internal/rng"
)

// TagState is a tag's position in the Gen2 inventory state machine.
type TagState int

// Inventory states (the subset a passive sensor exercises).
const (
	// StateReady: powered, not participating in a round.
	StateReady TagState = iota
	// StateArbitrate: in a round, waiting for its slot.
	StateArbitrate
	// StateReply: slot hit; RN16 backscattered, awaiting ACK.
	StateReply
	// StateAcknowledged: ACKed; EPC backscattered.
	StateAcknowledged
	// StateOpen: handle issued via ReqRN; access commands possible.
	StateOpen
)

// String names the state.
func (s TagState) String() string {
	switch s {
	case StateReady:
		return "Ready"
	case StateArbitrate:
		return "Arbitrate"
	case StateReply:
		return "Reply"
	case StateAcknowledged:
		return "Acknowledged"
	case StateOpen:
		return "Open"
	case StateSecured:
		return "Secured"
	default:
		return fmt.Sprintf("TagState(%d)", int(s))
	}
}

// Reply is what a tag backscatters in response to a command: payload bits
// ready for FM0/Miller encoding, plus what they mean.
type Reply struct {
	// Kind describes the payload framing.
	Kind ReplyKind
	// Bits is the payload (RN16, {PC,EPC,CRC16}, or handle).
	Bits Bits
}

// ReplyKind labels a tag reply.
type ReplyKind int

// Reply kinds.
const (
	ReplyNone ReplyKind = iota
	ReplyRN16
	ReplyEPC
	ReplyHandle
	ReplyRead
	ReplyWrite
)

// String names the reply kind.
func (k ReplyKind) String() string {
	switch k {
	case ReplyNone:
		return "none"
	case ReplyRN16:
		return "RN16"
	case ReplyEPC:
		return "EPC"
	case ReplyHandle:
		return "Handle"
	case ReplyRead:
		return "Read"
	case ReplyWrite:
		return "Write"
	default:
		return fmt.Sprintf("ReplyKind(%d)", int(k))
	}
}

// TagLogic is the protocol half of a battery-free tag: flags, slot
// counter, and the state machine. Power and RF belong to the tag package;
// this type assumes it is energized for the duration of each command.
type TagLogic struct {
	epc    []byte
	random rng.Rand

	state   TagState
	session Session
	q       byte
	slot    uint32
	rn16    uint16
	handle  uint16

	sl          bool
	inventoried [4]bool // per session: false = A, true = B

	// miller is the uplink encoding of the current round: 0 = FM0,
	// otherwise the Miller subcarrier factor (2/4/8), from Query.M.
	miller byte

	// accessPwd protects memory writes when nonzero (see secure.go).
	accessPwd uint32

	// user is the tag's user memory bank (sensor registers / actuation
	// words). The tag-identification bank is derived from the EPC on read
	// (see readBank), which keeps TagLogic in a 128-byte allocation.
	user [userWords]uint16

	// OnWrite, when set, observes every accepted memory write — the hook
	// an actuator (e.g. a drug-release mechanism) hangs off.
	OnWrite func(bank MemoryBank, ptr byte, value uint16)
}

// userWords is the modeled user-memory size in 16-bit words.
const userWords = 16

// NewTagLogic builds a powered-up tag in Ready with the given EPC (an even
// byte count, 2–62 bytes) and entropy source. The tag draws from its own
// copy of *random: drawing from random afterwards does not move the tag's
// draws, and the tag's draws do not advance random.
func NewTagLogic(epc []byte, random *rng.Rand) (*TagLogic, error) {
	if len(epc) == 0 || len(epc)%2 != 0 || len(epc) > 62 {
		return nil, fmt.Errorf("gen2: EPC must be 2..62 bytes word-aligned, got %d", len(epc))
	}
	if random == nil {
		return nil, fmt.Errorf("gen2: nil RNG")
	}
	return &TagLogic{epc: append([]byte(nil), epc...), random: *random}, nil
}

// readBank fetches count words starting at ptr from a bank; ok is false
// on a range violation or unsupported bank.
func (t *TagLogic) readBank(bank MemoryBank, ptr byte, count byte) ([]uint16, bool) {
	if count == 0 {
		return nil, false
	}
	var src []uint16
	var tid [2]uint16
	switch bank {
	case BankUser:
		src = t.user[:]
	case BankTID:
		// A fixed class identifier plus a serial derived from the EPC.
		tid[0] = 0xE280
		tid[1] = uint16(t.epc[0])<<8 | uint16(t.epc[len(t.epc)-1])
		src = tid[:]
	case BankEPC:
		// PC word then EPC words, as stored.
		src = make([]uint16, 1+len(t.epc)/2)
		src[0] = uint16(len(t.epc)/2) << 11
		for i := 0; i+1 < len(t.epc); i += 2 {
			src[1+i/2] = uint16(t.epc[i])<<8 | uint16(t.epc[i+1])
		}
	default:
		return nil, false
	}
	lo, hi := int(ptr), int(ptr)+int(count)
	if hi > len(src) {
		return nil, false
	}
	out := make([]uint16, count)
	copy(out, src[lo:hi])
	return out, true
}

// State returns the current inventory state.
//
//ivn:allow unreached the session and tag tests observe a tag's live inventory state through it
func (t *TagLogic) State() TagState { return t.state }

// EPC returns the tag's identifier.
func (t *TagLogic) EPC() []byte { return append([]byte(nil), t.epc...) }

// SL returns the selected flag.
//
//ivn:allow unreached the session tests observe a tag's live selected flag through it
func (t *TagLogic) SL() bool { return t.sl }

// Inventoried returns the inventoried flag (false = A) for a session.
//
//ivn:allow unreached the session tests observe a tag's live inventoried flags through it
func (t *TagLogic) Inventoried(s Session) bool { return t.inventoried[s&3] }

// LastRN16 returns the most recent slot RN16 (for test observability).
//
//ivn:allow unreached the session tests observe a tag's live slot RN16 through it
func (t *TagLogic) LastRN16() uint16 { return t.rn16 }

// PowerReset models losing power: all volatile state clears; per the spec
// the S0 inventoried flag also resets to A (S2/S3 persistence is not
// modeled — battery-free deep-tissue tags lose it anyway).
func (t *TagLogic) PowerReset() {
	t.state = StateReady
	t.slot = 0
	t.rn16 = 0
	t.handle = 0
	t.sl = false
	t.inventoried[S0] = false
}

// HandleCommand advances the state machine and returns the tag's reply
// (ReplyNone when the tag stays silent). Unknown or out-of-state commands
// are ignored silently, as real tags do.
func (t *TagLogic) HandleCommand(c Command) Reply {
	switch cmd := c.(type) {
	case *Select:
		t.handleSelect(cmd)
	case *Query:
		return t.handleQuery(cmd)
	case *QueryRep:
		return t.handleQueryRep(cmd)
	case *QueryAdjust:
		return t.handleQueryAdjust(cmd)
	case *ACK:
		return t.handleACK(cmd)
	case *NAK:
		if t.state == StateReply || t.state == StateAcknowledged || t.state == StateOpen || t.state == StateSecured {
			t.state = StateArbitrate
		}
	case *ReqRN:
		return t.handleReqRN(cmd)
	case *Read:
		return t.handleRead(cmd)
	case *Write:
		return t.handleWrite(cmd)
	case *Access:
		return t.handleAccess(cmd)
	}
	return Reply{Kind: ReplyNone}
}

func (t *TagLogic) matchesMask(s *Select) bool {
	if s.MemBank != 1 {
		// Only EPC-bank matching is modeled.
		return false
	}
	epcBits := BitsFromBytes(t.epc)
	start := int(s.Pointer)
	if start+len(s.Mask) > len(epcBits) {
		return false
	}
	return epcBits[start : start+len(s.Mask)].Equal(s.Mask)
}

func (t *TagLogic) handleSelect(s *Select) {
	match := t.matchesMask(s)
	assert := func(on bool) {
		if s.Target == 4 {
			t.sl = on
		} else if s.Target < 4 {
			t.inventoried[s.Target] = !on // "assert" = set to A (false)
		}
	}
	negate := func() {
		if s.Target == 4 {
			t.sl = !t.sl
		} else if s.Target < 4 {
			t.inventoried[s.Target] = !t.inventoried[s.Target]
		}
	}
	// Gen2 action table (§6.3.2.12.1.1), matching column then
	// non-matching column.
	switch s.Action {
	case 0:
		if match {
			assert(true)
		} else {
			assert(false)
		}
	case 1:
		if match {
			assert(true)
		}
	case 2:
		if !match {
			assert(false)
		}
	case 3:
		if match {
			negate()
		}
	case 4:
		if match {
			assert(false)
		} else {
			assert(true)
		}
	case 5:
		if match {
			assert(false)
		}
	case 6:
		if !match {
			assert(true)
		}
	case 7:
		if !match {
			negate()
		}
	}
	// Select aborts any round in progress.
	if t.state != StateReady {
		t.state = StateReady
	}
}

func (t *TagLogic) participates(q *Query) bool {
	switch q.Sel {
	case 2:
		if t.sl {
			return false
		}
	case 3:
		if !t.sl {
			return false
		}
	}
	return t.inventoried[q.Session&3] == q.Target
}

// rolloverSlot is the value a zero slot counter rolls over to at a
// QueryRep (6.3.2.12.2).
const rolloverSlot = 0x7FFF

// drawSlot draws the slot counter uniformly from [0, 2^Q): the top Q bits
// of one draw, which is exactly Intn(1<<Q) (Lemire's method never rejects
// a power-of-two bound). Q = 0 draws nothing.
func (t *TagLogic) drawSlot() {
	if t.q == 0 {
		t.slot = 0
		return
	}
	t.slot = uint32(t.random.Uint64() >> (64 - t.q))
}

func (t *TagLogic) enterSlot() Reply {
	if t.slot == 0 {
		t.rn16 = uint16(t.random.Uint64())
		t.state = StateReply
		r := RN16Reply{RN16: t.rn16}
		return Reply{Kind: ReplyRN16, Bits: r.AppendBits(nil)}
	}
	t.state = StateArbitrate
	return Reply{Kind: ReplyNone}
}

func (t *TagLogic) handleQuery(q *Query) Reply {
	// A tag still in Acknowledged/Open when a new Query arrives finishes
	// its inventory first. A Query in the same session inverts that
	// session's inventoried flag, exactly as if a QueryRep had closed it
	// out; a Query naming another session leaves the prior session's
	// flag unchanged (Gen2 §6.3.2.12.2.1).
	if t.state == StateAcknowledged || t.state == StateOpen || t.state == StateSecured {
		if q.Session == t.session {
			t.inventoried[t.session&3] = !t.inventoried[t.session&3]
		}
		t.state = StateReady
	}
	if !t.participates(q) {
		t.state = StateReady
		return Reply{Kind: ReplyNone}
	}
	t.session = q.Session
	t.q = q.Q & 0xF
	switch q.M & 3 {
	case 0:
		t.miller = 0
	case 1:
		t.miller = 2
	case 2:
		t.miller = 4
	case 3:
		t.miller = 8
	}
	t.drawSlot()
	return t.enterSlot()
}

// Miller returns the uplink encoding of the current round: 0 for FM0,
// otherwise the Miller subcarrier factor.
func (t *TagLogic) Miller() int { return int(t.miller) }

func (t *TagLogic) handleQueryRep(q *QueryRep) Reply {
	if q.Session != t.session {
		return Reply{Kind: ReplyNone}
	}
	switch t.state {
	case StateArbitrate:
		if t.slot == 0 {
			// A zero counter only arises after a failed singulation (the
			// tag replied, the exchange died). Decrementing it rolls over
			// to the spec maximum (6.3.2.12.2), silencing the tag until
			// the next Query re-randomizes it or a QueryAdjust redraws it
			// — without the rollover it re-replies every other slot and
			// collides the rest of the round.
			t.slot = rolloverSlot
		} else {
			t.slot--
		}
		if t.slot == 0 {
			return t.enterSlot()
		}
	case StateReply:
		// Missed ACK; back to arbitration (the stale zero counter rolls
		// over at the next QueryRep).
		t.state = StateArbitrate
	case StateAcknowledged, StateOpen, StateSecured:
		// Inventory complete: flip the inventoried flag and drop out.
		t.inventoried[t.session&3] = !t.inventoried[t.session&3]
		t.state = StateReady
	}
	return Reply{Kind: ReplyNone}
}

func (t *TagLogic) handleQueryAdjust(q *QueryAdjust) Reply {
	if q.Session != t.session || t.state == StateReady {
		return Reply{Kind: ReplyNone}
	}
	// Like QueryRep, a QueryAdjust closes out an acknowledged tag.
	if t.state == StateAcknowledged || t.state == StateOpen || t.state == StateSecured {
		t.inventoried[t.session&3] = !t.inventoried[t.session&3]
		t.state = StateReady
		return Reply{Kind: ReplyNone}
	}
	t.stepQ(q.UpDn)
	t.drawSlot()
	return t.enterSlot()
}

// stepQ applies a QueryAdjust's UpDn to the tag's Q, which stays within
// 0..15.
func (t *TagLogic) stepQ(upDn byte) {
	switch upDn {
	case QUp:
		if t.q < 15 {
			t.q++
		}
	case QDown:
		if t.q > 0 {
			t.q--
		}
	}
}

func (t *TagLogic) handleACK(a *ACK) Reply {
	if t.state != StateReply && t.state != StateAcknowledged {
		return Reply{Kind: ReplyNone}
	}
	if a.RN16 != t.rn16 {
		t.state = StateArbitrate
		return Reply{Kind: ReplyNone}
	}
	t.state = StateAcknowledged
	er, err := NewEPCReply(t.epc)
	if err != nil {
		// EPC validated at construction; unreachable, but fail silent like
		// a real tag rather than panicking.
		return Reply{Kind: ReplyNone}
	}
	return Reply{Kind: ReplyEPC, Bits: er.AppendBits(nil)}
}

func (t *TagLogic) handleRead(rd *Read) Reply {
	if (t.state != StateOpen && t.state != StateSecured) || rd.Handle != t.handle {
		return Reply{Kind: ReplyNone}
	}
	words, ok := t.readBank(rd.Bank, rd.WordPtr, rd.WordCount)
	if !ok {
		// Real tags answer with an error header; silence keeps the
		// simulator's reader logic simple and is indistinguishable from a
		// lost reply at the system level.
		return Reply{Kind: ReplyNone}
	}
	reply := ReadReply{Words: words, Handle: t.handle}
	return Reply{Kind: ReplyRead, Bits: reply.AppendBits(nil)}
}

func (t *TagLogic) handleWrite(w *Write) Reply {
	if w.Handle != t.handle || !t.writePermitted() {
		return Reply{Kind: ReplyNone}
	}
	if w.Bank != BankUser || int(w.WordPtr) >= userWords {
		return Reply{Kind: ReplyNone}
	}
	t.user[w.WordPtr] = w.Data
	if t.OnWrite != nil {
		t.OnWrite(w.Bank, w.WordPtr, w.Data)
	}
	reply := WriteReply{Handle: t.handle}
	return Reply{Kind: ReplyWrite, Bits: reply.AppendBits(nil)}
}

func (t *TagLogic) handleReqRN(r *ReqRN) Reply {
	if t.state != StateAcknowledged || r.RN16 != t.rn16 {
		return Reply{Kind: ReplyNone}
	}
	t.handle = uint16(t.random.Uint64())
	t.state = StateOpen
	var b Bits
	b = b.AppendUint(uint64(t.handle), 16)
	crc := CRC16(b)
	b = b.AppendUint(uint64(crc), 16)
	return Reply{Kind: ReplyHandle, Bits: b}
}
