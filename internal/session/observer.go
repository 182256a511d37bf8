// Package session owns the reader side of the Gen2 exchange as an
// explicit state machine layered over an abstract physical link: single-
// tag singulation and access flows (Query → RN16 → ACK → EPC → ReqRN →
// handle → Read/Write/secured-write), multi-tag inventory rounds
// (slotted ALOHA with fixed-Q Schoute estimation or Annex-D floating-Q),
// and the recovery stack (bounded re-ACK, re-query backoff).
//
// Every protocol step can report itself to an Observer as a typed Event
// stamped with the simulated air time. Observability is strictly opt-in:
// a nil *Trace (or nil Observer) costs a nil check and nothing else — no
// event values are built, no clock is advanced, no allocation happens.
package session

import (
	"encoding/json"
	"fmt"
)

// EventKind classifies a trace event.
type EventKind int

// Event kinds, in rough pipeline order.
const (
	// EvLinkRealized: a physical link was bound to a placement; Value is
	// the CIB envelope peak in dBm.
	EvLinkRealized EventKind = iota
	// EvPowerUp: the delivered peak was applied to a tag's harvester; OK
	// reports whether the rail came up, Value is the peak in watts.
	EvPowerUp
	// EvCommandSent: a reader command went on the air; Cmd names it and
	// the clock has advanced past its frame duration.
	EvCommandSent
	// EvSlotResolved: an inventory slot closed; Outcome is
	// empty/single/collision.
	EvSlotResolved
	// EvReplyDecoded: an uplink capture went through the reader; Label
	// names the decode stream, OK the outcome, Value the correlation.
	EvReplyDecoded
	// EvFaultFired: the fault layer perturbed the exchange; Outcome is
	// truncated/corrupted/brownout.
	EvFaultFired
	// EvRetryTaken: the recovery stack spent a retry; Cmd names the
	// re-issued command and Attempt counts from 1.
	EvRetryTaken
	// EvEPCRead: an EPC was recovered on the first exchange.
	EvEPCRead
	// EvEPCStranded: a singulated slot yielded no EPC within the retry
	// budget — the tag is lost for the rest of the round.
	EvEPCStranded
	// EvEPCRecovered: a re-ACK salvaged an EPC a clean exchange lost.
	EvEPCRecovered
)

var eventKindNames = [...]string{
	EvLinkRealized: "link-realized",
	EvPowerUp:      "power-up",
	EvCommandSent:  "command-sent",
	EvSlotResolved: "slot-resolved",
	EvReplyDecoded: "reply-decoded",
	EvFaultFired:   "fault-fired",
	EvRetryTaken:   "retry-taken",
	EvEPCRead:      "epc-read",
	EvEPCStranded:  "epc-stranded",
	EvEPCRecovered: "epc-recovered",
}

// String names the kind.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// MarshalJSON encodes the kind as its string name, so trace files are
// self-describing.
func (k EventKind) MarshalJSON() ([]byte, error) {
	if k < 0 || int(k) >= len(eventKindNames) {
		return nil, fmt.Errorf("session: unknown event kind %d", int(k))
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind from its string name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range eventKindNames {
		if name == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("session: unknown event kind %q", s)
}

// Event is one observed protocol step. The struct is flat and
// JSON-friendly; unused fields stay at their zero values and are omitted
// from encodings. T is simulated air time in seconds since the trace
// began — derived from frame durations and averaging periods, never from
// the wall clock, so identical seeds produce identical streams.
type Event struct {
	// T is the sim-clock timestamp in seconds.
	T float64 `json:"t"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Cmd names the reader command (EvCommandSent, EvRetryTaken).
	Cmd string `json:"cmd,omitempty"`
	// Label names the deterministic decode stream (EvReplyDecoded).
	Label string `json:"label,omitempty"`
	// Outcome carries slot or fault classification.
	Outcome string `json:"outcome,omitempty"`
	// OK is the step's success flag where one applies.
	OK bool `json:"ok,omitempty"`
	// Attempt counts retries from 1 (EvRetryTaken, EvEPCRecovered).
	Attempt int `json:"attempt,omitempty"`
	// Value is the kind-specific measurement (peak power, correlation).
	Value float64 `json:"value,omitempty"`
	// EPC is the hex identifier for EPC-level events.
	EPC string `json:"epc,omitempty"`
}

// Observer receives the event stream of an exchange.
type Observer interface {
	// Event is called once per protocol step, in exchange order.
	Event(e Event)
}

// Recorder is an Observer that appends every event to a slice.
type Recorder struct {
	// Events is the stream observed so far.
	Events []Event
}

// Event implements Observer.
func (r *Recorder) Event(e Event) { r.Events = append(r.Events, e) }

// Trace couples an Observer with the simulated air clock. The zero of
// the clock is wherever the trace was created. All methods are safe on a
// nil receiver, so layers hold a *Trace unconditionally and pay only a
// nil check when tracing is off; call sites that must build an Event
// value still guard with `if tr != nil` to keep the off path free of
// even that construction.
type Trace struct {
	obs Observer
	now float64
}

// NewTrace wires an observer to a fresh clock; a nil observer yields a
// nil trace (the zero-cost disabled form).
func NewTrace(obs Observer) *Trace {
	if obs == nil {
		return nil
	}
	return &Trace{obs: obs}
}

// Advance moves the sim clock forward by dt seconds.
func (t *Trace) Advance(dt float64) {
	if t == nil {
		return
	}
	t.now += dt
}

// Emit stamps e with the current sim time and delivers it.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	e.T = t.now
	t.obs.Event(e)
}
