package gen2

// Population broadcasts reader commands to a tag population one round at
// a time. Its result is exactly that of calling HandleCommand on every
// tag in index order, but it visits only the tags that can react.
//
// A tag in Ready ignores every command except Query and Select: QueryRep
// and QueryAdjust need a round in progress, ACK needs Reply or
// Acknowledged, and the access commands need an issued handle. So
// Population keeps the ascending indices of the tags not in Ready (the
// round's members). Query, Select and any command it does not
// special-case go to every tag and rebuild the member list; QueryAdjust
// goes to the members. Members can leave a round between those passes
// but never join one, so the list may hold tags that have since dropped
// to Ready; the next pass removes them.
//
// Most members sit in Arbitrate counting down a slot counter, and only
// the tag whose counter reaches zero answers a QueryRep. So a member
// that draws a nonzero counter in a Query or QueryAdjust is parked on a
// slot calendar: its due time on the session's QueryRep clock, with the
// due times of a window of clock values filed into one ascending bucket
// per value, fired by the QueryRep that takes those counters to zero. A
// fresh calendar files only the counters below a small constant window;
// when the clock reaches a window's end, the next window, twice as wide,
// is filed from the members' due times, so a QueryAdjust that the next
// few QueryReps follow files almost nothing. The other members (Reply,
// Acknowledged, Open and Secured tags, zero counters, tags of another
// session) stay on a short live list and get their per-tag handler on
// every QueryRep; ACK goes to the live list only. A zero counter that a
// QueryRep rolls over to 0x7FFF joins a FIFO that is due after every
// bucket. A parked tag's own counter is stale: the calendar writes
// due − clock back into it before any command can reach the tag by
// another route (a pass over all tags, a QueryAdjust of another session)
// and in Reset, so between rounds every TagLogic is exact. A QueryAdjust
// of the calendar's session redraws its parked tags without one: the
// redraw overwrites the counter.
//
// Replies and responder indices come out in ascending tag order, as the
// per-tag loop produces them, so callers that fold over responders (a
// capture model summing interference, say) see the same order.
//
// Only Broadcast may move a tag out of Ready between Resets. A tag
// dropped to Ready from outside (PowerReset) is harmless: it ignores the
// member-only commands, the calendar skips it when its bucket fires, and
// it leaves the lists at the next pass. Anything else that changes tag
// state outside Broadcast needs a Reset.
type Population struct {
	tags    []*TagLogic
	members []int
	live    []int
	spare   []int // the live list's second buffer, swapped in by QueryRep
	side    []int // the QueryAdjust pass's members off its inline path

	// The calendar holds the parked tags of session, whose counters
	// were drawn when clock was 0. clock counts that session's QueryReps
	// since; due[i] is the clock value at which tag i's counter reaches
	// zero, 0 when tag i is not parked. The due times in [lo, hi) are
	// filed: bucket[d-lo] holds the tags due at d in ascending index.
	// rolled[first:] is the rollover FIFO in due order.
	calendar bool
	session  Session
	clock    int
	due      []int
	lo, hi   int
	bucket   [][]int
	rolled   []int
	first    int
}

// window is the width of a fresh calendar's filed window: the dense
// inventories issue three QueryReps per QueryAdjust, so the counters it
// files are the ones those QueryReps fire.
const window = 8

// drawLimit bounds the due times of drawn counters (Q ≤ 15). A counter
// rolled over at clock c ≥ 1 is due at c + 0x7FFF ≥ drawLimit, after
// every drawn one, so the windows end at drawLimit and the FIFO begins.
const drawLimit = 1 << 15

// Reset writes the calendar's counters back into the current tags, then
// points the population at tags and rebuilds the member list from their
// current states. Reset(nil) hands every tag back exact and holds none.
func (p *Population) Reset(tags []*TagLogic) {
	if p.calendar {
		for _, i := range p.members {
			p.writeBack(i)
		}
		p.calendar = false
	}
	p.tags = tags
	if cap(p.due) < len(tags) {
		p.due = make([]int, len(tags))
		p.side = make([]int, len(tags))
	}
	p.due, p.side = p.due[:len(tags)], p.side[:len(tags)]
	p.members, p.live = p.members[:0], p.live[:0]
	for i, t := range tags {
		if t.state != StateReady {
			p.members = append(p.members, i)
			p.live = append(p.live, i)
		}
	}
}

// writeBack hands tag i its counter if the calendar holds it. A tag that
// left Arbitrate behind the population's back keeps the counter it has.
func (p *Population) writeBack(i int) {
	d := p.due[i]
	if d == 0 {
		return
	}
	p.due[i] = 0
	if t := p.tags[i]; t.state == StateArbitrate {
		t.slot = uint32(d - p.clock)
	}
}

// Broadcast delivers c to the population and appends every reply that is
// not ReplyNone to replies, and its tag index to who, in ascending tag
// order. It returns the extended slices; passing them back resliced to
// zero length reuses their storage.
func (p *Population) Broadcast(c Command, replies []Reply, who []int) ([]Reply, []int) {
	switch cmd := c.(type) {
	case *QueryRep:
		return p.queryRep(cmd, replies, who)
	case *ACK:
		kept := p.live[:0]
		for _, i := range p.live {
			t := p.tags[i]
			if r := t.handleACK(cmd); r.Kind != ReplyNone {
				replies = append(replies, r)
				who = append(who, i)
			}
			if t.state != StateReady {
				kept = append(kept, i)
			}
		}
		p.live = kept
		return replies, who
	case *QueryAdjust:
		return p.queryAdjust(cmd, replies, who)
	}
	// Any other command may reach a Ready tag: one pass over them all.
	return p.pass(c, replies, who)
}

// pass delivers cmd to every tag, writing each parked counter back
// first, and rebuilds the member and live lists. When cmd is a Query, the
// tags that drew a nonzero counter in its session are parked on a fresh
// calendar; otherwise the calendar ends empty.
func (p *Population) pass(cmd Command, replies []Reply, who []int) ([]Reply, []int) {
	q, draws := cmd.(*Query)
	var s Session
	if draws {
		s = q.Session
	}
	members := p.members[:0]
	for i, t := range p.tags {
		p.writeBack(i)
		if r := t.HandleCommand(cmd); r.Kind != ReplyNone {
			replies = append(replies, r)
			who = append(who, i)
		}
		if t.state != StateReady {
			members = append(members, i)
		}
	}
	// Filing is a loop of its own: without a call in its body it keeps
	// its slices in registers.
	p.restart(s)
	bucket, live := p.buckets(window), p.live[:0]
	for _, i := range members {
		t := p.tags[i]
		if !draws || t.state != StateArbitrate || t.session != s || t.slot == 0 {
			live = append(live, i)
			continue
		}
		c := int(t.slot)
		p.due[i] = c
		if c < window {
			bucket[c] = append(bucket[c], i)
		}
	}
	p.members, p.live, p.calendar = members, live, draws
	return replies, who
}

// buckets returns the first n buckets, emptied for filing.
func (p *Population) buckets(n int) [][]int {
	if len(p.bucket) < n {
		p.bucket = append(p.bucket, make([][]int, n-len(p.bucket))...)
	}
	bucket := p.bucket[:n:n]
	for c := range bucket {
		bucket[c] = bucket[c][:0]
	}
	return bucket
}

// restart points the calendar at session s, its clock at 0 and its
// filed window at the first, and empties the FIFO.
func (p *Population) restart(s Session) {
	p.calendar, p.session, p.clock = true, s, 0
	p.lo, p.hi = 0, window
	p.rolled, p.first = p.rolled[:0], 0
}

// queryAdjust delivers a QueryAdjust to the members and parks the
// counters it draws on a fresh calendar of its session.
//
// Most members are in Arbitrate or Reply in that session. For them the
// handler is the Q step, the draw and entering the slot, and a parked
// counter is dead (the draw overwrites it). The first loop runs that
// inline: a nonzero counter parks the tag, and the generator's step is
// the loop's only call. It drops a Ready member as writeBack would, and
// puts every other member, and every zero counter, on the side list in
// ascending order. The second loop walks the side list: a zero counter
// enters its slot, any other member gets writeBack and the handler. It
// alone builds the replies and the live list.
func (p *Population) queryAdjust(q *QueryAdjust, replies []Reply, who []int) ([]Reply, []int) {
	s, upDn := q.Session, q.UpDn
	tags, due, side, bucket := p.tags, p.due, p.side, p.buckets(window)
	members := p.members
	kept, n := 0, 0
	for _, i := range members {
		t := tags[i]
		st := t.state
		if (st == StateArbitrate || st == StateReply) && t.session == s {
			t.stepQ(upDn)
			t.drawSlot()
			c := t.slot
			due[i] = int(c)
			members[kept] = i
			kept++
			if c == 0 {
				side[n] = i
				n++
				continue
			}
			t.state = StateArbitrate
			if c < window {
				bucket[c] = append(bucket[c], i)
			}
			continue
		}
		if st == StateReady {
			due[i] = 0
			continue
		}
		members[kept] = i
		kept++
		side[n] = i
		n++
	}
	p.members = members[:kept]
	live := p.live[:0]
	for _, i := range side[:n] {
		t := tags[i]
		if st := t.state; (st == StateArbitrate || st == StateReply) && t.session == s {
			// A zero counter from the first loop.
			replies = append(replies, t.enterSlot())
			who = append(who, i)
			live = append(live, i)
			continue
		}
		p.writeBack(i)
		if r := t.handleQueryAdjust(q); r.Kind != ReplyNone {
			replies = append(replies, r)
			who = append(who, i)
		}
		if t.state != StateReady {
			live = append(live, i)
		}
	}
	// The old calendar's clock stays until the side loop has written its
	// counters back.
	p.live = live
	p.restart(s)
	return replies, who
}

// queryRep delivers a QueryRep. If it ticks the calendar's session, the
// tags whose counters it takes to zero fire; they and the live list are
// visited as one ascending merge, so replies need no sorting and the
// fired tags, now in Reply, join the live list in place.
func (p *Population) queryRep(q *QueryRep, replies []Reply, who []int) ([]Reply, []int) {
	var fired []int
	tick := p.calendar && q.Session == p.session
	if tick {
		p.clock++
		fired = p.fired()
	}
	live, next := p.live, p.spare[:0]
	for len(live) > 0 || len(fired) > 0 {
		var i int
		parked := len(live) == 0 || len(fired) > 0 && fired[0] < live[0]
		if parked {
			i, fired = fired[0], fired[1:]
		} else {
			i, live = live[0], live[1:]
		}
		t := p.tags[i]
		if parked {
			p.due[i] = 0
			if t.state != StateArbitrate {
				continue // lost power behind the population's back
			}
			t.slot = 1 // the counter this QueryRep takes to zero
		}
		if r := t.handleQueryRep(q); r.Kind != ReplyNone {
			replies = append(replies, r)
			who = append(who, i)
		}
		switch {
		case t.state == StateReady:
		case tick && t.state == StateArbitrate && t.session == q.Session && t.slot == rolloverSlot:
			// Rolled over: silent for 0x7FFF more QueryReps, which is
			// after every bucket, and the FIFO stays in due order.
			p.due[i] = p.clock + rolloverSlot
			p.rolled = append(p.rolled, i)
		default:
			next = append(next, i)
		}
	}
	p.live, p.spare = next, p.live
	return replies, who
}

// fired returns the parked tags whose counters reach zero at the current
// clock, in ascending index: a bucket while the clock is below
// drawLimit, filing the next window when the clock reaches the filed
// one's end, then the rollover FIFO's due head.
func (p *Population) fired() []int {
	if p.clock < p.hi {
		return p.bucket[p.clock-p.lo]
	}
	if p.hi < drawLimit {
		p.refile()
		return p.bucket[p.clock-p.lo]
	}
	if p.first == len(p.rolled) {
		p.rolled, p.first = p.rolled[:0], 0
	}
	from := p.first
	for p.first < len(p.rolled) && p.due[p.rolled[p.first]] == p.clock {
		p.first++
	}
	return p.rolled[from:p.first]
}

// refile files the window after the current one, twice as wide and
// ending at drawLimit at most, from the members' due times. Members are
// ascending, so each bucket is too; a fired or rolled-over tag's due
// time lies outside the window.
func (p *Population) refile() {
	lo := p.hi
	hi := min(lo+2*(lo-p.lo), drawLimit)
	bucket := p.buckets(hi - lo)
	for _, i := range p.members {
		if d := p.due[i]; lo <= d && d < hi {
			bucket[d-lo] = append(bucket[d-lo], i)
		}
	}
	p.lo, p.hi = lo, hi
}
