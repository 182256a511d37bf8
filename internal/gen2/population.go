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
// special-case go to every tag and rebuild the member list. QueryRep,
// QueryAdjust and ACK go to the members only, which can leave a round
// but never join one; in a dense inventory most tags sit in Ready most
// of the time, so those commands skip most of the population.
//
// Replies and responder indices come out in ascending tag order, as the
// per-tag loop produces them, so callers that fold over responders (a
// capture model summing interference, say) see the same order.
//
// Only Broadcast may move a tag out of Ready between Resets. A tag
// dropped to Ready from outside (PowerReset) is harmless: it ignores the
// member-only commands and leaves the list at the next one. Anything else
// that changes tag state outside Broadcast needs a Reset.
type Population struct {
	tags    []*TagLogic
	members []int
}

// Reset points the population at tags and rebuilds the member list from
// their current states.
func (p *Population) Reset(tags []*TagLogic) {
	p.tags = tags
	p.members = p.members[:0]
	for i, t := range tags {
		if t.state != StateReady {
			p.members = append(p.members, i)
		}
	}
}

// Broadcast delivers c to the population and appends every reply that is
// not ReplyNone to replies, and its tag index to who, in ascending tag
// order. It returns the extended slices; passing them back resliced to
// zero length reuses their storage.
func (p *Population) Broadcast(c Command, replies []Reply, who []int) ([]Reply, []int) {
	var handle func(*TagLogic) Reply
	switch cmd := c.(type) {
	case *QueryRep:
		handle = func(t *TagLogic) Reply { return t.handleQueryRep(cmd) }
	case *QueryAdjust:
		handle = func(t *TagLogic) Reply { return t.handleQueryAdjust(cmd) }
	case *ACK:
		handle = func(t *TagLogic) Reply { return t.handleACK(cmd) }
	default:
		p.members = p.members[:0]
		for i, t := range p.tags {
			if r := t.HandleCommand(c); r.Kind != ReplyNone {
				replies = append(replies, r)
				who = append(who, i)
			}
			if t.state != StateReady {
				p.members = append(p.members, i)
			}
		}
		return replies, who
	}
	kept := p.members[:0]
	for _, i := range p.members {
		t := p.tags[i]
		if r := handle(t); r.Kind != ReplyNone {
			replies = append(replies, r)
			who = append(who, i)
		}
		if t.state != StateReady {
			kept = append(kept, i)
		}
	}
	p.members = kept
	return replies, who
}
