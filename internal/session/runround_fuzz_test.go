package session_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"ivn/internal/fault"
	"ivn/internal/gen2"
	"ivn/internal/rng"
	"ivn/internal/session"
)

// FuzzRunRound runs two inventory rounds, each once untraced and once
// traced, on a controller and population decoded from the fuzz input
// (see decodeRound), and checks after every RunRound:
//   - Commands ≤ MaxCommands;
//   - Slots = Singles + Captures + Collisions + Empties;
//   - without a fault, every EPC read is a population member's (with one,
//     a corrupted reply can still pass its CRC);
//   - Recovered ≤ ACKRetries ≤ MaxACKRetries × (Singles + Captures);
//   - FinalQ lies in [0, 15];
//   - the traced run returns the untraced run's RoundStats, and its
//     command-sent events number Commands.
//
// The committed corpus under testdata/fuzz is seeded from the grid of
// TestRunRoundKeepsCommandBudget (population seed n, round seed the
// budget) and from its EPC-corruption case, whose re-ACKs overran the
// budget before singulate charged them against it.
func FuzzRunRound(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		c := decodeRound(in)
		plain, traced := c.controller(), c.controller()
		var rec session.Recorder
		traced.Trace = session.NewTrace(&rec)
		plainTags, tracedTags := c.population(t), c.population(t)
		plainRand, tracedRand := rng.New(c.roundSeed), rng.New(c.roundSeed)
		for round := range 2 {
			want, err := plain.RunRound(plainTags, plainRand)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			c.checkStats(t, round, want)
			rec.Events = rec.Events[:0]
			got, err := traced.RunRound(tracedTags, tracedRand)
			if err != nil {
				t.Fatalf("round %d, traced: %v", round, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: traced stats %+v, untraced %+v", round, *got, *want)
			}
			sent := 0
			for _, e := range rec.Events {
				if e.Kind == session.EvCommandSent {
					sent++
				}
			}
			if sent != want.Commands {
				t.Fatalf("round %d: %d command-sent events for %d commands", round, sent, want.Commands)
			}
		}
	})
}

// roundCase is one decoded fuzz input.
type roundCase struct {
	tags        int
	q           byte
	maxCommands int
	recovery    *session.RecoveryPolicy
	faultMode   byte // 0 none, 1 a fault.Injector, 2 every EPC reply corrupted
	faultScale  float64
	faultSeed   uint64
	stubChannel bool
	decodeBits  uint32 // bit i%32 decides the stub channel's i-th decode
	captureBits byte   // bit i%8 decides whether its i-th capture resolves
	popSeed     uint64
	roundSeed   uint64
	maxACKRetry int // the recovery's MaxACKRetries, 0 without one
}

// decodeRound reads a round from a fuzz input. Fields are read in this
// order, little-endian; an input that ends early reads zeros:
//
//	byte    tags = 1 + b%64
//	byte    InitialQ = b%16
//	byte    MaxCommands = 1 + b%200
//	byte    recovery b%3: 0 nil, 1 DefaultRecovery, 2 custom, followed by
//	        a byte MaxACKRetries = b%4 and a byte QAdjustC = (b%21)/10
//	        (0 selects the default step)
//	byte    fault b%3: 0 nil; 1 a fault.Injector over DefaultConfig
//	        scaled by b/32 of a following byte b, with a uint16 seed;
//	        2 every EPC reply corrupted (one bit flipped mid-reply), as in
//	        TestRunRoundKeepsCommandBudget
//	byte    channel b%2: 0 nil; 1 a stub, followed by a uint32 whose bit
//	        i%32 decides its i-th DecodeReply and a byte whose bit i%8
//	        decides whether its i-th Capture resolves to the first
//	        responder
//	uint16  the population's seed, then the round stream's seed
func decodeRound(in []byte) roundCase {
	r := roundReader(in)
	c := roundCase{tags: 1 + int(r.byte())%64, q: r.byte() % 16, maxCommands: 1 + int(r.byte())%200}
	switch r.byte() % 3 {
	case 1:
		c.recovery = session.DefaultRecovery()
	case 2:
		c.recovery = &session.RecoveryPolicy{MaxACKRetries: int(r.byte()) % 4, MaxRequeries: 3, QAdjustC: float64(r.byte()%21) / 10}
	}
	if c.recovery != nil {
		c.maxACKRetry = c.recovery.MaxACKRetries
	}
	switch c.faultMode = r.byte() % 3; c.faultMode {
	case 1:
		c.faultScale = float64(r.byte()) / 32
		c.faultSeed = uint64(r.uint16())
	}
	if r.byte()%2 == 1 {
		c.stubChannel = true
		c.decodeBits = binary.LittleEndian.Uint32(r.take(4))
		c.captureBits = r.byte()
	}
	c.popSeed, c.roundSeed = uint64(r.uint16()), uint64(r.uint16())
	return c
}

// controller builds a fresh controller for c: its own fault process and
// stub channel, so two controllers of one case see the same decisions.
func (c roundCase) controller() *session.InventoryController {
	ic := session.NewInventoryController(gen2.S0)
	ic.InitialQ = c.q
	ic.MaxCommands = c.maxCommands
	ic.Recovery = c.recovery
	switch c.faultMode {
	case 1:
		ic.Fault = fault.NewInjector(fault.DefaultConfig().Scale(c.faultScale), c.faultSeed)
	case 2:
		ic.Fault = corruptEveryEPC{}
	}
	if c.stubChannel {
		ic.Channel = &stubChannel{decode: c.decodeBits, capture: c.captureBits}
	}
	return ic
}

// population builds c's tags as the package tests' makePopulation does:
// EPC E2 hh ll 01 for tag i, each on its own split of the population
// seed.
func (c roundCase) population(t *testing.T) []*gen2.TagLogic {
	r := rng.New(c.popSeed)
	tags := make([]*gen2.TagLogic, c.tags)
	for i := range tags {
		tag, err := gen2.NewTagLogic([]byte{0xE2, byte(i >> 8), byte(i), 0x01}, r.Split(fmt.Sprintf("tag-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tags[i] = tag
	}
	return tags
}

// checkStats fails on the first invariant s breaks.
func (c roundCase) checkStats(t *testing.T, round int, s *session.RoundStats) {
	if s.Commands > c.maxCommands {
		t.Fatalf("round %d: %d commands, MaxCommands %d", round, s.Commands, c.maxCommands)
	}
	if s.Slots != s.Singles+s.Captures+s.Collisions+s.Empties {
		t.Fatalf("round %d: %d slots, but %d singles + %d captures + %d collisions + %d empties",
			round, s.Slots, s.Singles, s.Captures, s.Collisions, s.Empties)
	}
	if c.faultMode == 0 {
		for _, epc := range s.EPCs {
			if len(epc) != 4 || epc[0] != 0xE2 || epc[3] != 0x01 || int(epc[1])<<8|int(epc[2]) >= c.tags {
				t.Fatalf("round %d: EPC %x belongs to no tag of %d", round, epc, c.tags)
			}
		}
	}
	if s.Recovered > s.ACKRetries || s.ACKRetries > c.maxACKRetry*(s.Singles+s.Captures) {
		t.Fatalf("round %d: %d recovered, %d re-ACKs, %d × (%d singles + %d captures) allowed",
			round, s.Recovered, s.ACKRetries, c.maxACKRetry, s.Singles, s.Captures)
	}
	if !(s.FinalQ >= 0 && s.FinalQ <= 15) {
		t.Fatalf("round %d: FinalQ %v outside [0, 15]", round, s.FinalQ)
	}
}

// corruptEveryEPC flips one bit in the middle of every reply longer than
// an RN16, so every EPC fails its CRC.
type corruptEveryEPC struct{}

func (corruptEveryEPC) CommandTruncated(int) bool { return false }

func (corruptEveryEPC) TagPowered(int, int) bool { return true }

func (corruptEveryEPC) CorruptUplink(_ int, bits gen2.Bits) (gen2.Bits, bool) {
	if len(bits) <= 16 {
		return bits, false
	}
	out := append(gen2.Bits(nil), bits...)
	out[len(out)/2] ^= 1
	return out, true
}

// stubChannel is a Channel whose decode and capture outcomes come from
// fuzz-chosen bit patterns, taken in call order.
type stubChannel struct {
	decode         uint32
	capture        byte
	decodes, capts int
}

func (s *stubChannel) DecodeReply(int, gen2.Reply, string, *rng.Rand) (session.ChannelDecode, error) {
	ok := s.decode>>(s.decodes%32)&1 == 1
	s.decodes++
	return session.ChannelDecode{OK: ok, Correlation: 0.9}, nil
}

func (s *stubChannel) Capture(responders []int, _ *rng.Rand) int {
	won := s.capture>>(s.capts%8)&1 == 1
	s.capts++
	if won {
		return responders[0]
	}
	return -1
}

func (s *stubChannel) ReceiveSeconds() float64 { return 1e-3 }

// roundReader reads fields from the front of a fuzz input; past its end
// every byte reads as zero.
type roundReader []byte

func (r *roundReader) take(n int) []byte {
	var buf [8]byte
	m := copy(buf[:n], *r)
	*r = (*r)[m:]
	return buf[:n]
}

func (r *roundReader) byte() byte { return r.take(1)[0] }

func (r *roundReader) uint16() uint16 { return binary.LittleEndian.Uint16(r.take(2)) }
