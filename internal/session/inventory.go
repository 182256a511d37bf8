package session

import (
	"errors"
	"fmt"
	"math"

	"ivn/internal/gen2"
	"ivn/internal/rng"
)

// ChannelFault perturbs the simulated air interface between the inventory
// controller and its tag population. Implementations must be pure
// functions of their own state and the decision coordinates (command
// index, tag index) so that identical fault processes can drive paired
// protocol variants (see ivn/internal/fault). A nil ChannelFault is the
// clean channel; the unfaulted path costs a nil check and nothing else.
type ChannelFault interface {
	// CommandTruncated reports whether reader command cmd is truncated in
	// flight: no tag receives it, and the reader observes silence.
	CommandTruncated(cmd int) bool
	// TagPowered reports whether tag tagIndex has its rail up when
	// command cmd arrives. A tag observed unpowered is silent; on a
	// powered→unpowered transition its volatile protocol state is reset,
	// as a real passive tag's state dies with its rail.
	TagPowered(cmd, tagIndex int) bool
	// CorruptUplink optionally corrupts a singulated reply's payload
	// bits, returning the corrupted copy and true. The input slice must
	// not be mutated.
	CorruptUplink(cmd int, bits gen2.Bits) (gen2.Bits, bool)
}

// ErrInventoryIncomplete is returned (wrapped) by InventoryAll when the
// round budget is exhausted with tags still unread. The partial EPC list
// accompanies the error, so callers can both use what was read and detect
// that the population was not drained — silent partial success hid
// persistent-collision livelocks before this sentinel existed.
var ErrInventoryIncomplete = errors.New("session: inventory incomplete")

// RecoveryPolicy enables the reader-side recovery stack: the Gen2 Annex-D
// style floating-Q adaptation (QueryAdjust mid-sweep), a bounded re-ACK
// budget on EPC decode failure, and bounded re-query with slot-space
// backoff across rounds. A nil policy runs none of them: Schoute sizing
// between sweeps, one ACK per singulation, no re-query.
type RecoveryPolicy struct {
	// MaxACKRetries is the per-singulation re-ACK budget: when an EPC
	// reply is lost or fails its CRC, the controller re-issues the ACK up
	// to this many times (the tag, still in Acknowledged, re-backscatters
	// its EPC). Without this, a corrupted EPC reply silently strands the
	// tag: it flips its inventoried flag believing the exchange
	// succeeded, and stops answering for the rest of the inventory.
	MaxACKRetries int
	// MaxRequeries bounds consecutive fruitless rounds in InventoryAll:
	// after this many rounds with no new EPC the controller gives up
	// (returning ErrInventoryIncomplete) instead of spinning its budget.
	MaxRequeries int
	// QAdjustC is the floating-Q step of the Annex-D algorithm: each
	// collision adds C, each empty slot subtracts C, and when the rounded
	// value moves the controller issues a QueryAdjust mid-sweep. Zero
	// selects DefaultQAdjustC.
	QAdjustC float64
}

// DefaultQAdjustC is the Annex-D Q-step used when QAdjustC is zero — the
// spec suggests 0.1–0.5 with smaller C for larger Q; 0.35 behaves well
// across the population sizes the experiments sweep.
const DefaultQAdjustC = 0.35

// DefaultRecovery returns the recovery policy the fault-matrix experiment
// ships: 2 re-ACKs per singulation, 3 re-queries, default Q step.
func DefaultRecovery() *RecoveryPolicy {
	return &RecoveryPolicy{MaxACKRetries: 2, MaxRequeries: 3, QAdjustC: DefaultQAdjustC}
}

// qStep resolves the configured floating-Q step.
func (p *RecoveryPolicy) qStep() float64 {
	if p.QAdjustC > 0 {
		return p.QAdjustC
	}
	return DefaultQAdjustC
}

// floatQ is the Annex-D floating-Q accumulator with the spec bounds built
// in: the float value is clamped to [0,15] as it moves, and the commanded
// Q only ever changes by the single ±1 step a QueryAdjust can carry, so
// the reader's slot arithmetic can never desynchronize from the tag-side
// clamp in gen2.TagLogic. (Before this type, a step C > 1 could round to
// a multi-step jump the reader applied at once while every tag moved by
// one — the reader then walked a slot space the population wasn't in.)
type floatQ struct {
	v, c float64
}

func newFloatQ(q byte, c float64) floatQ {
	return floatQ{v: float64(q & 0xF), c: c}
}

// collision accumulates a collided slot: Q drifts up, saturating at 15.
func (f *floatQ) collision() { f.v = math.Min(15, f.v+f.c) }

// empty accumulates an empty slot: Q drifts down, saturating at 0.
func (f *floatQ) empty() { f.v = math.Max(0, f.v-f.c) }

// target is the rounded floating Q, always within the spec's [0,15].
func (f *floatQ) target() byte {
	t := math.Round(f.v)
	if t < 0 {
		t = 0
	} else if t > 15 {
		t = 15
	}
	return byte(t)
}

// step reports the next commanded Q: one ±1 move toward the rounded
// target, never outside [0,15], moved=false when already there.
func (f *floatQ) step(cur byte) (next byte, up, moved bool) {
	t := f.target()
	switch {
	case t > cur && cur < 15:
		return cur + 1, true, true
	case t < cur && cur > 0:
		return cur - 1, false, true
	default:
		return cur, false, false
	}
}

// InventoryController is the reader-side inventory engine: it runs
// slotted-ALOHA sweeps against a tag population, re-sizing the Q
// parameter between sweeps from a collision-based backlog estimate or,
// with Recovery, mid-sweep by floating-Q adaptation; one sweep loop
// serves both. IVN's multi-sensor story (§3.7) rides on this machinery:
// "In order to avoid collision between multiple sensors, IVN can leverage
// a variety of techniques from standard backscatter communications."
//
// With a non-nil Fault the controller sees a degraded channel (truncated
// commands, browned-out tags, corrupted uplinks); with a non-nil Recovery
// it fights back (floating-Q adaptation, re-ACK, re-query backoff). A
// non-nil Trace receives the typed event stream of every round,
// timestamped by the commands' PIE frame durations.
type InventoryController struct {
	// Session is the inventory session to run rounds in.
	Session gen2.Session
	// InitialQ seeds the slot-count exponent (0-15).
	InitialQ byte
	// MaxCommands bounds a round (guards against livelock).
	MaxCommands int
	// Channel models the uplink at event level: singulated replies decode
	// with a budget-derived probability and collisions can resolve by
	// capture. Implementations keyed by tag index (EventChannel.Budgets)
	// must be index-aligned with the TagLogic slice handed to
	// RunRound/InventoryAll. nil is the historical ideal uplink: every
	// reply decodes exactly and collisions never capture.
	Channel Channel
	// Fault perturbs the air interface; nil = clean channel.
	Fault ChannelFault
	// Recovery enables the recovery stack; nil = no recovery.
	Recovery *RecoveryPolicy
	// Trace observes the rounds; nil is free.
	Trace *Trace

	// cmdClock numbers every command issued within one run, so a
	// ChannelFault sees globally unique decision coordinates across the
	// rounds of an InventoryAll. RunRound advances it across calls (a
	// manual round loop is one run); InventoryAll resets it at entry so a
	// reused controller replays the same fault schedule every run.
	cmdClock int
	// pie times traced commands; defaulted lazily, never used untraced.
	pie gen2.PIEParams
	// pop is the clean path's broadcaster. It lives as long as the
	// controller so its buffers serve every round; RunRound resets it
	// onto the round's tags and hands them back exact when it returns.
	pop gen2.Population
}

// NewInventoryController returns a controller with spec-typical defaults.
func NewInventoryController(session gen2.Session) *InventoryController {
	return &InventoryController{
		Session:     session,
		InitialQ:    4,
		MaxCommands: 4096,
	}
}

// SlotOutcome classifies one slot of a round.
type SlotOutcome int

// Slot outcomes.
const (
	SlotEmpty SlotOutcome = iota
	SlotSingle
	SlotCollision
	// SlotCapture is a collided slot the capture effect resolved: the
	// dominant responder's RN16 was recovered despite the clash, so the
	// reader proceeds as for a single. Only a non-nil Channel produces
	// it. The Q estimators treat it as a single — the reader cannot tell
	// a captured collision from a clean singulation.
	SlotCapture
)

// String names the outcome.
func (s SlotOutcome) String() string {
	switch s {
	case SlotEmpty:
		return "empty"
	case SlotSingle:
		return "single"
	case SlotCollision:
		return "collision"
	case SlotCapture:
		return "capture"
	default:
		return fmt.Sprintf("SlotOutcome(%d)", int(s))
	}
}

// RoundStats summarizes a completed round.
type RoundStats struct {
	// EPCs are the identifiers read, in singulation order. Under power
	// faults a tag can be read twice in one round (a brownout resets its
	// inventoried flag); InventoryAll deduplicates across rounds.
	EPCs [][]byte
	// Commands is the number of reader commands issued.
	Commands int
	// Slots, Empties, Singles, Collisions count slot outcomes. A
	// captured collision counts under Captures, not Singles or
	// Collisions.
	Slots, Empties, Singles, Collisions int
	// Captures counts collided slots the channel's capture effect
	// resolved into a singulation (non-nil Channel only).
	Captures int
	// QueryAdjusts counts mid-sweep QueryAdjust commands issued by the
	// floating-Q adaptation (Recovery only).
	QueryAdjusts int
	// FinalQ is the floating Q at round end.
	FinalQ float64

	// Truncated counts reader commands lost in flight (ChannelFault).
	Truncated int
	// Corrupted counts uplink replies the fault layer corrupted.
	Corrupted int
	// Brownouts counts observed powered→unpowered tag transitions.
	Brownouts int
	// LostSlots counts singulated slots that yielded no EPC: undecodable
	// RN16, lost ACK exchange, or EPC corruption beyond the retry budget.
	LostSlots int
	// ACKRetries counts recovery re-ACKs issued (Recovery only).
	ACKRetries int
	// Recovered counts EPCs obtained only through a re-ACK (Recovery
	// only) — reads that the no-recovery controller would have lost.
	Recovered int
}

// medium abstracts what the controller can observe of the air interface.
// With more than one tag backscattering in a slot the reader sees a
// collision (CRC/preamble failure), not bits — unless a channel's
// capture effect resolves the clash for the dominant tag. A non-nil
// fault interposes on every broadcast: command truncation, per-tag
// power, uplink corruption. Replies report the responder's population
// index (-1 when no single responder) so the channel can look up its
// realized budget.
type medium struct {
	tags    []*gen2.TagLogic
	pop     *gen2.Population // the clean path's broadcaster (fault == nil only)
	channel Channel
	rand    *rng.Rand
	fault   ChannelFault
	clock   *int
	lit     []bool // last observed power state per tag (fault != nil only)
	stats   *RoundStats
	trace   *Trace

	// got and responders collect one broadcast's replies and their tag
	// indices; both paths reuse them for the whole round.
	got        []gen2.Reply
	responders []int
}

// broadcast sends a command to every powered tag and classifies replies.
func (m *medium) broadcast(c gen2.Command) (SlotOutcome, gen2.Reply, int) {
	if m.fault == nil {
		return m.broadcastClean(c)
	}
	cmd := *m.clock
	*m.clock++
	if m.fault.CommandTruncated(cmd) {
		m.stats.Truncated++
		if m.trace != nil {
			m.trace.Emit(Event{Kind: EvFaultFired, Outcome: "truncated", Cmd: c.Type().String()})
		}
		return SlotEmpty, gen2.Reply{Kind: gen2.ReplyNone}, -1
	}
	got, responders := m.got[:0], m.responders[:0]
	for i, t := range m.tags {
		if !m.fault.TagPowered(cmd, i) {
			if m.lit[i] {
				t.PowerReset()
				m.stats.Brownouts++
				if m.trace != nil {
					m.trace.Emit(Event{Kind: EvFaultFired, Outcome: "brownout", EPC: fmt.Sprintf("%x", t.EPC())})
				}
			}
			m.lit[i] = false
			continue
		}
		m.lit[i] = true
		if r := t.HandleCommand(c); r.Kind != gen2.ReplyNone {
			got = append(got, r)
			responders = append(responders, i)
		}
	}
	m.got, m.responders = got, responders
	return m.classify(cmd, got, responders)
}

// broadcastClean is the fault-free path. Without faults only commands
// change tag state, so gen2.Population can skip the tags that ignore a
// command; the faulted path above must visit every tag on every command
// to observe its power (a brownout resets even a Ready tag's S0 flag).
func (m *medium) broadcastClean(c gen2.Command) (SlotOutcome, gen2.Reply, int) {
	m.got, m.responders = m.pop.Broadcast(c, m.got[:0], m.responders[:0])
	return m.classify(0, m.got, m.responders)
}

// classify resolves the collected replies of one broadcast into a slot
// outcome. cmd keys fault corruption and is unused on the clean path.
func (m *medium) classify(cmd int, got []gen2.Reply, responders []int) (SlotOutcome, gen2.Reply, int) {
	switch len(got) {
	case 0:
		return SlotEmpty, gen2.Reply{Kind: gen2.ReplyNone}, -1
	case 1:
		return SlotSingle, m.corrupt(cmd, got[0]), responders[0]
	default:
		if m.channel != nil {
			if w := m.channel.Capture(responders, m.rand); w >= 0 {
				for j, ti := range responders {
					if ti == w {
						// The winner's bits survived the clash; fault
						// corruption still applies on top.
						return SlotCapture, m.corrupt(cmd, got[j]), w
					}
				}
			}
		}
		return SlotCollision, gen2.Reply{Kind: gen2.ReplyNone}, -1
	}
}

// corrupt applies fault-layer uplink corruption to a singulated reply.
func (m *medium) corrupt(cmd int, reply gen2.Reply) gen2.Reply {
	if m.fault == nil {
		return reply
	}
	if bits, corrupted := m.fault.CorruptUplink(cmd, reply.Bits); corrupted {
		m.stats.Corrupted++
		reply.Bits = bits
		if m.trace != nil {
			m.trace.Emit(Event{Kind: EvFaultFired, Outcome: "corrupted"})
		}
	}
	return reply
}

// RunRound inventories a population of powered tags. Each sweep issues a
// Query with the current Q and walks all 2^Q slots with QueryReps, ACKing
// singles; after the sweep the backlog is estimated from the collision
// count (Schoute's 2.39·c estimator) and Q is re-sized for the next sweep.
// With Recovery set, the Annex-D floating-Q algorithm sizes Q instead,
// mid-sweep via QueryAdjust and between sweeps. The round ends when a
// sweep drains (no replies) or MaxCommands is spent.
func (ic *InventoryController) RunRound(tags []*gen2.TagLogic, r *rng.Rand) (*RoundStats, error) {
	return ic.runRound(tags, ic.InitialQ&0xF, r)
}

func (ic *InventoryController) runRound(tags []*gen2.TagLogic, q byte, r *rng.Rand) (*RoundStats, error) {
	if len(tags) == 0 {
		return nil, fmt.Errorf("session: no tags to inventory")
	}
	maxCmds := ic.MaxCommands
	if maxCmds <= 0 {
		maxCmds = 4096
	}
	stats := &RoundStats{}
	m := &medium{tags: tags, channel: ic.Channel, rand: r, fault: ic.Fault, clock: &ic.cmdClock, stats: stats, trace: ic.Trace}
	if ic.Fault != nil {
		m.lit = make([]bool, len(tags))
		for i := range m.lit {
			m.lit[i] = true
		}
	} else {
		m.pop = &ic.pop
		m.pop.Reset(tags)
		defer m.pop.Reset(nil)
	}
	return ic.sweep(m, stats, q, maxCmds, r)
}

// issuer issues one command, charging the round's command budget and
// advancing the trace clock past the command's on-air time.
func (ic *InventoryController) issuer(m *medium, stats *RoundStats) func(gen2.Command) (SlotOutcome, gen2.Reply, int) {
	return func(c gen2.Command) (SlotOutcome, gen2.Reply, int) {
		stats.Commands++
		if ic.Trace != nil {
			ic.traceCommand(c)
		}
		return m.broadcast(c)
	}
}

// traceCommand advances the sim clock by the command's PIE frame
// duration and emits the command-sent event. Only reached when tracing.
func (ic *InventoryController) traceCommand(c gen2.Command) {
	if ic.pie.SampleRate == 0 {
		// Frame durations depend only on the symbol timing, not the
		// envelope sample rate; any positive rate validates.
		ic.pie = gen2.DefaultPIE(1)
	}
	bits := c.AppendBits(nil)
	ic.Trace.Advance(ic.pie.FrameDuration(bits, c.Type() == gen2.CmdQuery))
	ev := Event{Kind: EvCommandSent, Cmd: c.Type().String()}
	if qc, ok := c.(*gen2.Query); ok {
		// The commanded slot-count exponent, so observers (and the
		// ceiling regression test) can replay the commanded Q exactly.
		ev.Value = float64(qc.Q)
	}
	if qa, ok := c.(*gen2.QueryAdjust); ok {
		if qa.UpDn == gen2.QUp {
			ev.Outcome = "up"
		} else {
			ev.Outcome = "down"
		}
	}
	ic.Trace.Emit(ev)
}

// traceSlot emits the slot-resolution event. Only reached when tracing.
func (ic *InventoryController) traceSlot(outcome SlotOutcome) {
	ic.Trace.Emit(Event{Kind: EvSlotResolved, Outcome: outcome.String()})
}

// channelDecode pushes a singulated reply through the channel, advancing
// the trace clock by the receive window and emitting the reply-decoded
// event, mirroring the stream the DSP link emits. Only called with a
// non-nil Channel.
func (ic *InventoryController) channelDecode(tagIndex int, reply gen2.Reply, exchange string, r *rng.Rand) (ChannelDecode, error) {
	dec, err := ic.Channel.DecodeReply(tagIndex, reply, exchange, r)
	if err != nil {
		return dec, err
	}
	if ic.Trace != nil {
		ic.Trace.Advance(ic.Channel.ReceiveSeconds())
		ev := Event{Kind: EvReplyDecoded, Label: exchange, OK: dec.OK}
		if dec.OK {
			ev.Value = dec.Correlation
		}
		ic.Trace.Emit(ev)
	}
	return dec, nil
}

// sweep runs RunRound's sweeps until one drains or the budget is spent:
// no Query, QueryRep or QueryAdjust goes out past MaxCommands. Without
// Recovery, Q is re-sized between sweeps (Schoute). With it, the Annex-D
// floating-Q accumulator moves Q: each collision adds C, each empty slot
// subtracts C, and when the rounded value moves the controller issues a
// QueryAdjust, every arbitrating tag redraws its slot and the sweep
// restarts at the new size. That tracks the backlog much faster than
// per-sweep estimation when faults churn protocol state mid-round. Each
// QueryAdjust steps Q by exactly the ±1 it carries (see floatQ).
func (ic *InventoryController) sweep(m *medium, stats *RoundStats, q byte, maxCmds int, r *rng.Rand) (*RoundStats, error) {
	issue := ic.issuer(m, stats)
	var fq floatQ // step 0 without Recovery: it never moves and is not read
	if ic.Recovery != nil {
		fq = newFloatQ(q, ic.Recovery.qStep())
	}
	for stats.Commands < maxCmds {
		outcome, reply, resp := issue(&gen2.Query{Session: ic.Session, Q: q})
		sweepSingles, sweepCollisions := 0, 0
		slots := 1 << uint(q)
		slot := 0
		for stats.Commands < maxCmds {
			stats.Slots++
			if ic.Trace != nil {
				ic.traceSlot(outcome)
			}
			switch outcome {
			case SlotSingle, SlotCapture:
				if outcome == SlotCapture {
					stats.Captures++
				} else {
					stats.Singles++
				}
				sweepSingles++
				if err := ic.singulate(stats, issue, reply, resp, outcome == SlotCapture, maxCmds, r); err != nil {
					return nil, err
				}
			case SlotCollision:
				stats.Collisions++
				sweepCollisions++
				fq.collision()
			case SlotEmpty:
				stats.Empties++
				fq.empty()
			}
			slot++
			if slot >= slots || stats.Commands >= maxCmds {
				break
			}
			if ic.Recovery != nil {
				if nq, up, moved := fq.step(q); moved {
					// Mid-sweep re-size: QueryAdjust redraws every arbitrating
					// tag into the new slot space, stepping Q by the single ±1
					// the command encodes — the reader and every tag stay in
					// lockstep for any C, and Q never leaves [0,15].
					stats.QueryAdjusts++
					upDn := gen2.QUp
					if !up {
						upDn = gen2.QDown
					}
					q = nq
					slots = 1 << uint(q)
					slot = 0
					outcome, reply, resp = issue(&gen2.QueryAdjust{Session: ic.Session, UpDn: upDn})
					continue
				}
			}
			outcome, reply, resp = issue(&gen2.QueryRep{Session: ic.Session})
		}
		if sweepSingles == 0 && sweepCollisions == 0 {
			break // drained
		}
		if ic.Recovery != nil {
			q = fq.target()
			continue
		}
		// Schoute backlog estimate: ≈2.39 tags per colliding slot (the
		// conversion keeps the product from fusing into the sum on arm64).
		backlog := int(float64(2.39*float64(sweepCollisions)) + 0.5)
		if backlog == 0 {
			// Singles only: one more tight sweep catches stragglers that
			// were mid-handshake.
			q = 1
			continue
		}
		nq := byte(0)
		for 1<<uint(nq) < backlog && nq < 15 {
			nq++
		}
		q = nq
	}
	if ic.Recovery != nil {
		stats.FinalQ = fq.v
	} else {
		stats.FinalQ = float64(q)
	}
	return stats, nil
}

// singulate runs the ACK → EPC exchange for a singulated slot, with the
// recovery policy's bounded re-ACK on decode failure. On the clean
// channel an undecodable RN16 is a protocol invariant violation and
// surfaces as an error; under fault injection it is a lost slot. With a
// non-nil Channel the RN16 and EPC captures must additionally clear
// their budget-derived decode draws; a captured slot (captured=true)
// arrives with its RN16 already decoded under the losers' interference,
// inside Channel.Capture. Re-ACKs are charged against the round's
// budget: none goes out once maxCmds commands have.
func (ic *InventoryController) singulate(stats *RoundStats, issue func(gen2.Command) (SlotOutcome, gen2.Reply, int), reply gen2.Reply, responder int, captured bool, maxCmds int, r *rng.Rand) error {
	if ic.Channel != nil {
		if captured {
			// Capture already drew the interference-degraded RN16 decode;
			// mirror the receive time and event so observers see the same
			// stream shape as a clean singulation.
			if ic.Trace != nil {
				ic.Trace.Advance(ic.Channel.ReceiveSeconds())
				ic.Trace.Emit(Event{Kind: EvReplyDecoded, Label: "rn16", OK: true})
			}
		} else {
			dec, err := ic.channelDecode(responder, reply, "rn16", r)
			if err != nil {
				return err
			}
			if !dec.OK {
				// The reader cannot form an ACK; the tag times out of Reply
				// back to arbitration at the next Query/QueryRep/QueryAdjust.
				stats.LostSlots++
				if ic.Trace != nil {
					ic.Trace.Emit(Event{Kind: EvEPCStranded, Outcome: "rn16-lost"})
				}
				return nil
			}
		}
	}
	var rn gen2.RN16Reply
	if err := rn.DecodeFromBits(reply.Bits); err != nil {
		if ic.Fault == nil {
			return fmt.Errorf("session: bad RN16 reply: %w", err)
		}
		// Corruption shortened the reply: the reader cannot form an ACK,
		// so the slot is lost. (A bit-flipped but length-preserving RN16
		// decodes to a wrong value; the mismatched ACK below sends the
		// tag back to arbitration, which is the same loss one exchange
		// later.)
		stats.LostSlots++
		if ic.Trace != nil {
			ic.Trace.Emit(Event{Kind: EvEPCStranded, Outcome: "bad-rn16"})
		}
		return nil
	}
	// Each ACK carrying the handshake RN16 draws the tag's EPC; a tag
	// already in Acknowledged re-backscatters it. A failed exchange — the
	// reply lost, collided, failing its decode draw or its CRC — leaves the
	// tag believing it was acknowledged: it flips its inventoried flag at
	// the next Query/QueryRep and, without a re-ACK, is stranded for the
	// rest of the inventory. Recovery buys MaxACKRetries more attempts.
	retries := 0
	if ic.Recovery != nil {
		retries = max(0, ic.Recovery.MaxACKRetries)
	}
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			if stats.Commands >= maxCmds {
				break // the budget is spent: the tag is stranded below
			}
			stats.ACKRetries++
			if ic.Trace != nil {
				ic.Trace.Emit(Event{Kind: EvRetryTaken, Cmd: "ACK", Attempt: attempt})
			}
		}
		outcome, rep, rresp := issue(&gen2.ACK{RN16: rn.RN16})
		if outcome != SlotSingle || rep.Kind != gen2.ReplyEPC {
			continue
		}
		if ic.Channel != nil {
			dec, err := ic.channelDecode(rresp, rep, "epc", r)
			if err != nil {
				return err
			}
			if !dec.OK {
				continue
			}
		}
		var er gen2.EPCReply
		if err := er.DecodeFromBits(rep.Bits); err != nil {
			continue
		}
		stats.EPCs = append(stats.EPCs, er.EPC)
		if attempt > 0 {
			stats.Recovered++
		}
		if ic.Trace != nil {
			ev := Event{Kind: EvEPCRead, EPC: fmt.Sprintf("%x", er.EPC)}
			if attempt > 0 {
				ev.Kind, ev.Attempt = EvEPCRecovered, attempt
			}
			ic.Trace.Emit(ev)
		}
		return nil
	}
	stats.LostSlots++
	if ic.Trace != nil {
		ic.Trace.Emit(Event{Kind: EvEPCStranded, Outcome: "epc-lost"})
	}
	return nil
}

// InventoryAll runs rounds until every tag has been read or maxRounds is
// exhausted, returning the union of EPCs in first-read order. When the
// budget runs out with tags unread, the partial list is returned together
// with an error wrapping ErrInventoryIncomplete — exhaustion is never
// silent. With Recovery set, a round that reads nothing new triggers a
// bounded re-query with slot-space backoff: the next round opens with a
// doubled slot count (Q+1), de-correlating persistent collisions; after
// MaxRequeries consecutive fruitless rounds the controller gives up early
// rather than spending the remaining budget on a livelocked population.
func (ic *InventoryController) InventoryAll(tags []*gen2.TagLogic, maxRounds int, r *rng.Rand) ([][]byte, error) {
	if maxRounds < 1 {
		return nil, fmt.Errorf("session: maxRounds %d < 1", maxRounds)
	}
	// Each run replays the fault schedule from command zero: a reused
	// controller previously carried cmdClock over, so the second run of a
	// paired fault on/off comparison saw a shifted schedule and silently
	// desynchronized (see TestInventoryAllResetsCmdClock).
	ic.cmdClock = 0
	seen := map[string]bool{}
	var out [][]byte
	baseQ := ic.InitialQ & 0xF
	q := baseQ
	noProgress := 0
	for round := 0; round < maxRounds && len(seen) < len(tags); round++ {
		stats, err := ic.runRound(tags, q, r)
		if err != nil {
			return out, err
		}
		progress := 0
		for _, epc := range stats.EPCs {
			if !seen[string(epc)] {
				seen[string(epc)] = true
				out = append(out, epc)
				progress++
			}
		}
		if rec := ic.Recovery; rec != nil {
			if progress == 0 {
				noProgress++
				if noProgress > rec.MaxRequeries {
					break // re-query budget exhausted; report incompleteness below
				}
				if q < 15 {
					q++ // backoff: double the slot space for the re-query
				}
				if ic.Trace != nil {
					ic.Trace.Emit(Event{Kind: EvRetryTaken, Cmd: "Query", Attempt: noProgress})
				}
			} else {
				noProgress = 0
				q = baseQ
			}
		}
	}
	if len(seen) < len(tags) {
		return out, fmt.Errorf("session: read %d of %d tags: %w", len(seen), len(tags), ErrInventoryIncomplete)
	}
	return out, nil
}
