package gen2

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzBroadcastMatchesPerTagLoop holds Population.Broadcast to the
// per-tag HandleCommand loop on command programs decoded from the fuzz
// input (see runProgram). After every command the replies, the responder
// order and every tag's state, flags, counter, Q and generator must
// agree, and after every Reset every tag's counter.
//
// The committed corpus under testdata/fuzz holds programs that reach the
// calendar's rarer paths: a counter beyond the first filed window firing,
// rolled-over counters coming due, QueryAdjusts of another session,
// parked tags losing power, and Q stepped to 0 so that parked tags redraw
// a zero counter.
func FuzzBroadcastMatchesPerTagLoop(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		runProgram(t, prog)
	})
}

// maxProgramCommands bounds the commands one program broadcasts, so a
// fuzz input stays fast while still reaching a rollover (0x7FFF
// QueryReps) on a small population.
const maxProgramCommands = 1 << 16

// runProgram decodes prog and runs it on twin populations, one through a
// Population and one through the per-tag loop. Byte 0 gives the
// population size (1 + b%48) and byte 1 the tags' seed. Every later
// instruction is an opcode byte whose low nibble selects the kind and
// whose high bits carry the session (bits 4–5) and a two-bit variant
// (bits 6–7), followed by its argument bytes; an input that ends early
// reads zeros and stops at its last opcode.
//
//	0 Select       target, action, pointer, mask (a slice of a tag's EPC
//	               or raw bits), on the EPC bank unless the variant is 3
//	1 Query        Q (low nibble), Sel, Target; M is the variant
//	2 QueryAdjust  UpDn by variant: up, same, down, same
//	3 ACK          the variant-th RN16 of the last replies, or two raw
//	               bytes when there is none or the variant is 3
//	4 NAK
//	5 PowerReset   the tag at the next byte (mod n), on both twins
//	6 Reset        hand the counters back and rebuild the lists
//	7 Reset(nil)   hand everything back, then Reset onto the tags again
//	8 QueryRep×k   k = 1 + next byte, or 256·(1 + next byte) when the
//	               variant is 3; such a long run compares replies and
//	               tags every 256 commands and whenever the responders
//	               differ
//	9–15 QueryRep
func runProgram(t *testing.T, prog []byte) {
	t.Helper()
	at := 0
	next := func() byte {
		if at >= len(prog) {
			at++
			return 0
		}
		at++
		return prog[at-1]
	}
	n := 1 + int(next())%48
	seed := uint64(next())
	a, b := twinTags(t, n, seed), twinTags(t, n, seed)
	var pop Population
	pop.Reset(a)
	var replies []Reply
	var who []int
	var rn16s []uint16
	cmds := 0
	// send broadcasts c on both twins and compares the replies and the
	// tags. Inside a long QueryRep run (check false) only the responders
	// are compared, unless they differ.
	send := func(c Command, check bool) {
		cmds++
		replies, who = pop.Broadcast(c, replies[:0], who[:0])
		wantReplies, wantWho := loopBroadcast(b, c)
		if check || !slices.Equal(who, wantWho) {
			where := fmt.Sprintf("command %d %v", cmds, c)
			compareReplies(t, where, replies, who, wantReplies, wantWho)
			compareTags(t, where, &pop, a, b)
		}
		if len(replies) > 0 {
			rn16s = rn16s[:0]
		}
		for _, r := range replies {
			if r.Kind == ReplyRN16 {
				if v, err := r.Bits.Uint(0, 16); err == nil {
					rn16s = append(rn16s, uint16(v))
				}
			}
		}
	}
	for at < len(prog) && cmds < maxProgramCommands {
		op := next()
		s, variant := Session(op>>4&3), op>>6
		switch op & 15 {
		case 0:
			send(programSelect(a, next, variant), true)
		case 1:
			arg := next()
			send(&Query{Session: s, Q: arg & 15, Sel: arg >> 4 & 3, Target: arg>>6&1 == 1, M: variant}, true)
		case 2:
			send(&QueryAdjust{Session: s, UpDn: []byte{QUp, QSame, QDown, QSame}[variant]}, true)
		case 3:
			var rn uint16
			if len(rn16s) > 0 && variant < 3 {
				rn = rn16s[int(variant)%len(rn16s)]
			} else {
				rn = uint16(next())<<8 | uint16(next())
			}
			send(&ACK{RN16: rn}, true)
		case 4:
			send(&NAK{}, true)
		case 5:
			i := int(next()) % n
			a[i].PowerReset()
			b[i].PowerReset()
		case 6:
			pop.Reset(a)
			compareSlots(t, fmt.Sprintf("Reset after %d commands", cmds), a, b)
		case 7:
			pop.Reset(nil)
			compareSlots(t, fmt.Sprintf("Reset(nil) after %d commands", cmds), a, b)
			pop.Reset(a)
		case 8:
			k := 1 + int(next())
			if variant == 3 {
				k *= 256
			}
			for ; k > 0 && cmds < maxProgramCommands; k-- {
				send(&QueryRep{Session: s}, variant < 3 || k%256 == 1)
			}
		default:
			send(&QueryRep{Session: s}, true)
		}
	}
}

// programSelect decodes a Select: target, action and pointer bytes, then
// a mask length byte whose top bit picks raw mask bits (from the bytes
// that follow) over a slice of the EPC of the tag at the next byte.
func programSelect(tags []*TagLogic, next func() byte, variant byte) *Select {
	s := &Select{Target: next() % 5, Action: next() % 8, MemBank: 1, Pointer: next() % 24}
	if variant == 3 {
		s.MemBank = 2
	}
	m := next()
	k := 1 + int(m&7)
	if m&0x80 != 0 {
		bits := next()
		for j := 0; j < k; j++ {
			s.Mask = append(s.Mask, bits>>j&1)
		}
		return s
	}
	epc := BitsFromBytes(tags[int(next())%len(tags)].epc)
	end := min(int(s.Pointer)+k, len(epc))
	s.Mask = append(Bits(nil), epc[s.Pointer:end]...)
	return s
}
