package session

import (
	"fmt"

	"ivn/internal/gen2"
	"ivn/internal/rng"
	"ivn/internal/tag"
)

// Decode is the outcome of a successful uplink decode.
type Decode struct {
	// Bits are the recovered reply bits.
	Bits gen2.Bits
	// Correlation is the preamble correlation of the decode.
	Correlation float64
	// SNRdB is the post-averaging per-sample SNR the decode estimated.
	SNRdB float64 //ivn:unit dB
}

// Link is the physical layer the session state machine drives: command
// transmission on the CIB downlink and reply decoding through the
// out-of-band reader. ivn/internal/link provides the real
// implementation; tests script fakes.
type Link interface {
	// Transmit sends one reader command downlink (flatness-checked by
	// physical implementations); preamble selects the Query preamble
	// over frame-sync.
	Transmit(cmd gen2.Command, preamble bool) error
	// TransmitSelect sends the §3.7 Select+Query compound frame.
	TransmitSelect(sel *gen2.Select, q *gen2.Query) error
	// Decode pushes a tag's reply through the uplink chain. label names
	// the deterministic noise stream drawn from r. A waveform that
	// cannot be synthesized is an error; a capture that fails to decode
	// (or decodes to the wrong bits) returns ok=false.
	Decode(tg *tag.Tag, reply gen2.Reply, label string, r *rng.Rand) (Decode, bool, error)
}

// Exchange runs single-tag Gen2 flows over a Link. The zero Trace is
// silent.
type Exchange struct {
	// Link is the physical layer.
	Link Link
	// Trace observes the exchange; nil is free.
	Trace *Trace
}

// Singulation is the outcome of a Query → RN16 handshake.
type Singulation struct {
	// Replied reports whether the tag answered the Query with an RN16.
	Replied bool
	// Decoded reports whether the reader recovered the exact RN16 bits.
	Decoded bool
	// RN16 is the slot random number (valid when Decoded).
	RN16 uint16
	// Correlation is the preamble correlation of the RN16 decode.
	Correlation float64
}

// PowerUp applies the link's delivered peak (watts) to the tag's
// harvester and reports whether its rail came up.
func (x *Exchange) PowerUp(tg *tag.Tag, peak float64) bool {
	tg.UpdatePower(peak)
	powered := tg.Powered()
	if x.Trace != nil {
		x.Trace.Emit(Event{Kind: EvPowerUp, OK: powered, Value: peak})
	}
	return powered
}

// Query transmits q and collects the tag's reply without decoding it —
// the slot-open step, also used alone by link-budget-only trials.
func (x *Exchange) Query(tg *tag.Tag, q *gen2.Query) (gen2.Reply, error) {
	if err := x.Link.Transmit(q, true); err != nil {
		return gen2.Reply{}, err
	}
	reply := tg.HandleCommand(q)
	if x.Trace != nil {
		outcome := "empty"
		if reply.Kind != gen2.ReplyNone {
			outcome = "single"
		}
		x.Trace.Emit(Event{Kind: EvSlotResolved, Outcome: outcome})
	}
	return reply, nil
}

// DecodeRN16 decodes an already-collected RN16 reply under label.
// Errors are protocol-invariant violations (undecodable waveform, an
// RN16 reply whose decoded bits do not parse); a noisy capture that
// fails correlation is Decoded=false, not an error.
func (x *Exchange) DecodeRN16(tg *tag.Tag, reply gen2.Reply, label string, r *rng.Rand) (Singulation, error) {
	out := Singulation{Replied: true}
	dec, ok, err := x.Link.Decode(tg, reply, label, r)
	if err != nil {
		return out, err
	}
	if !ok {
		return out, nil
	}
	var rn gen2.RN16Reply
	if err := rn.DecodeFromBits(dec.Bits); err != nil {
		return out, err
	}
	out.Decoded = true
	out.Correlation = dec.Correlation
	out.RN16 = rn.RN16
	return out, nil
}

// Singulate runs the full Query → RN16 handshake: transmit, collect,
// decode under label.
func (x *Exchange) Singulate(tg *tag.Tag, q *gen2.Query, label string, r *rng.Rand) (Singulation, error) {
	reply, err := x.Query(tg, q)
	if err != nil {
		return Singulation{}, err
	}
	if reply.Kind != gen2.ReplyRN16 {
		return Singulation{}, nil
	}
	return x.DecodeRN16(tg, reply, label, r)
}

// AckEPC acknowledges a singulated tag and decodes its EPC backscatter.
// ok=false when the tag stayed silent, the capture failed to decode, or
// the decoded bits fail their CRC — all soft outcomes the caller
// reports as an incomplete session.
func (x *Exchange) AckEPC(tg *tag.Tag, rn16 uint16, label string, r *rng.Rand) ([]byte, bool, error) {
	ack := &gen2.ACK{RN16: rn16}
	if err := x.Link.Transmit(ack, false); err != nil {
		return nil, false, err
	}
	reply := tg.HandleCommand(ack)
	if reply.Kind != gen2.ReplyEPC {
		return nil, false, nil
	}
	dec, ok, err := x.Link.Decode(tg, reply, label, r)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	var er gen2.EPCReply
	if err := er.DecodeFromBits(dec.Bits); err != nil {
		return nil, false, nil
	}
	if x.Trace != nil {
		x.Trace.Emit(Event{Kind: EvEPCRead, EPC: fmt.Sprintf("%x", er.EPC)})
	}
	return er.EPC, true, nil
}

// ReqRNHandle requests the access handle from an acknowledged tag.
func (x *Exchange) ReqRNHandle(tg *tag.Tag, rn16 uint16, label string, r *rng.Rand) (uint16, bool, error) {
	req := &gen2.ReqRN{RN16: rn16}
	if err := x.Link.Transmit(req, false); err != nil {
		return 0, false, err
	}
	reply := tg.HandleCommand(req)
	if reply.Kind != gen2.ReplyHandle {
		return 0, false, nil
	}
	dec, ok, err := x.Link.Decode(tg, reply, label, r)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, nil
	}
	hv, err := dec.Bits.Uint(0, 16)
	if err != nil {
		return 0, false, err
	}
	return uint16(hv), true, nil
}

// Access issues an access command sequence against an open tag. Every
// command must be answered and uplink-decoded ("access-<i>" streams);
// the final command's reply must be of wantKind. Returns the final
// reply's decoded bits.
func (x *Exchange) Access(tg *tag.Tag, cmds []gen2.Command, wantKind gen2.ReplyKind, r *rng.Rand) (gen2.Bits, bool, error) {
	var lastBits gen2.Bits
	for ci, cmd := range cmds {
		if err := x.Link.Transmit(cmd, false); err != nil {
			return nil, false, err
		}
		reply := tg.HandleCommand(cmd)
		wanted := gen2.ReplyKind(0)
		if ci == len(cmds)-1 {
			wanted = wantKind
		}
		if ci == len(cmds)-1 && reply.Kind != wanted {
			return nil, false, nil
		}
		if reply.Kind == gen2.ReplyNone {
			return nil, false, nil
		}
		dec, ok, err := x.Link.Decode(tg, reply, fmt.Sprintf("access-%d", ci), r)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		lastBits = dec.Bits
	}
	return lastBits, true, nil
}

// Select runs the §3.7 Select+Query compound against a population and
// returns the replies of every tag that answered with an RN16, with the
// responders aligned index-for-index.
func (x *Exchange) Select(tags []*tag.Tag, sel *gen2.Select, q *gen2.Query) ([]gen2.Reply, []*tag.Tag, error) {
	if err := x.Link.TransmitSelect(sel, q); err != nil {
		return nil, nil, err
	}
	var replies []gen2.Reply
	var responders []*tag.Tag
	for _, tg := range tags {
		tg.HandleCommand(sel)
		if rep := tg.HandleCommand(q); rep.Kind == gen2.ReplyRN16 {
			replies = append(replies, rep)
			responders = append(responders, tg)
		}
	}
	if x.Trace != nil {
		outcome := "empty"
		switch {
		case len(replies) == 1:
			outcome = "single"
		case len(replies) > 1:
			outcome = "collision"
		}
		x.Trace.Emit(Event{Kind: EvSlotResolved, Outcome: outcome})
	}
	return replies, responders, nil
}
