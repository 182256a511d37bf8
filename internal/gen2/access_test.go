package gen2

import (
	"errors"
	"testing"
	"testing/quick"

	"ivn/internal/rng"
)

func openTag(t *testing.T, seed uint64) (*TagLogic, uint16) {
	t.Helper()
	tag, err := NewTagLogic([]byte{0xE2, 0x00, 0x12, 0x34}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	reply := tag.HandleCommand(&Query{Q: 0})
	var rn RN16Reply
	if err := rn.DecodeFromBits(reply.Bits); err != nil {
		t.Fatal(err)
	}
	tag.HandleCommand(&ACK{RN16: rn.RN16})
	h := tag.HandleCommand(&ReqRN{RN16: rn.RN16})
	if h.Kind != ReplyHandle {
		t.Fatalf("no handle: %s", h.Kind)
	}
	handle, err := h.Bits.Uint(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	return tag, uint16(handle)
}

func TestReadCommandRoundTrip(t *testing.T) {
	rd := &Read{Bank: BankUser, WordPtr: 3, WordCount: 4, Handle: 0xBEEF}
	bits := rd.AppendBits(nil)
	if len(bits) != 58 {
		t.Fatalf("Read frame %d bits, want 58", len(bits))
	}
	var got Read
	if err := got.DecodeFromBits(bits); err != nil {
		t.Fatal(err)
	}
	if got != *rd {
		t.Fatalf("round trip %+v != %+v", got, *rd)
	}
	bits[20] ^= 1
	if err := got.DecodeFromBits(bits); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("corrupted Read error = %v", err)
	}
	cmd, err := DecodeCommand(rd.AppendBits(nil))
	if err != nil || cmd.Type() != CmdRead {
		t.Fatalf("dispatch failed: %v %v", cmd, err)
	}
}

func TestWriteCommandRoundTrip(t *testing.T) {
	w := &Write{Bank: BankUser, WordPtr: 0, Data: 0xCAFE, Handle: 0x1234}
	bits := w.AppendBits(nil)
	if len(bits) != 66 {
		t.Fatalf("Write frame %d bits, want 66", len(bits))
	}
	var got Write
	if err := got.DecodeFromBits(bits); err != nil {
		t.Fatal(err)
	}
	if got != *w {
		t.Fatalf("round trip %+v != %+v", got, *w)
	}
	cmd, err := DecodeCommand(bits)
	if err != nil || cmd.Type() != CmdWrite {
		t.Fatalf("dispatch failed: %v %v", cmd, err)
	}
}

func TestWriteThenReadUserMemory(t *testing.T) {
	tag, handle := openTag(t, 1)
	wr := tag.HandleCommand(&Write{Bank: BankUser, WordPtr: 2, Data: 0xABCD, Handle: handle})
	if wr.Kind != ReplyWrite {
		t.Fatalf("write reply = %s", wr.Kind)
	}
	var wrep WriteReply
	if err := wrep.DecodeFromBits(wr.Bits); err != nil {
		t.Fatal(err)
	}
	if wrep.Handle != handle {
		t.Fatal("write reply handle mismatch")
	}
	rr := tag.HandleCommand(&Read{Bank: BankUser, WordPtr: 2, WordCount: 1, Handle: handle})
	if rr.Kind != ReplyRead {
		t.Fatalf("read reply = %s", rr.Kind)
	}
	var rrep ReadReply
	if err := rrep.DecodeFromBits(rr.Bits, 1); err != nil {
		t.Fatal(err)
	}
	if rrep.Words[0] != 0xABCD {
		t.Fatalf("read back %#04x, want 0xABCD", rrep.Words[0])
	}
	if tag.user[2] != 0xABCD {
		t.Fatal("user bank disagrees")
	}
}

func TestReadTIDAndEPCBanks(t *testing.T) {
	tag, handle := openTag(t, 2)
	rr := tag.HandleCommand(&Read{Bank: BankTID, WordPtr: 0, WordCount: 2, Handle: handle})
	if rr.Kind != ReplyRead {
		t.Fatalf("TID read = %s", rr.Kind)
	}
	var rep ReadReply
	if err := rep.DecodeFromBits(rr.Bits, 2); err != nil {
		t.Fatal(err)
	}
	if rep.Words[0] != 0xE280 {
		t.Fatalf("TID class = %#04x", rep.Words[0])
	}
	// EPC bank: PC word then EPC content.
	rr = tag.HandleCommand(&Read{Bank: BankEPC, WordPtr: 0, WordCount: 3, Handle: handle})
	if rr.Kind != ReplyRead {
		t.Fatalf("EPC read = %s", rr.Kind)
	}
	if err := rep.DecodeFromBits(rr.Bits, 3); err != nil {
		t.Fatal(err)
	}
	if rep.Words[1] != 0xE200 || rep.Words[2] != 0x1234 {
		t.Fatalf("EPC words = %#04x %#04x", rep.Words[1], rep.Words[2])
	}
}

func TestAccessRequiresOpenStateAndHandle(t *testing.T) {
	tag, handle := openTag(t, 3)
	// Wrong handle: silent.
	if r := tag.HandleCommand(&Read{Bank: BankUser, WordPtr: 0, WordCount: 1, Handle: handle ^ 1}); r.Kind != ReplyNone {
		t.Fatal("wrong-handle Read answered")
	}
	if r := tag.HandleCommand(&Write{Bank: BankUser, WordPtr: 0, Data: 1, Handle: handle ^ 1}); r.Kind != ReplyNone {
		t.Fatal("wrong-handle Write answered")
	}
	// Pre-Open tag: silent.
	idle, err := NewTagLogic([]byte{0x11, 0x22}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if r := idle.HandleCommand(&Read{Bank: BankUser, WordPtr: 0, WordCount: 1, Handle: 0}); r.Kind != ReplyNone {
		t.Fatal("idle tag answered Read")
	}
}

func TestAccessRangeViolationsSilent(t *testing.T) {
	tag, handle := openTag(t, 5)
	cases := []Command{
		&Read{Bank: BankUser, WordPtr: 15, WordCount: 2, Handle: handle}, // past end
		&Read{Bank: BankUser, WordPtr: 0, WordCount: 0, Handle: handle},  // zero count
		&Read{Bank: BankReserved, WordPtr: 0, WordCount: 1, Handle: handle},
		&Write{Bank: BankUser, WordPtr: 16, Data: 1, Handle: handle}, // past end
		&Write{Bank: BankTID, WordPtr: 0, Data: 1, Handle: handle},   // read-only bank
	}
	for i, c := range cases {
		if r := tag.HandleCommand(c); r.Kind != ReplyNone {
			t.Errorf("case %d (%s) answered: %s", i, c, r.Kind)
		}
	}
}

func TestOnWriteActuationHook(t *testing.T) {
	tag, handle := openTag(t, 6)
	var fired []uint16
	tag.OnWrite = func(bank MemoryBank, ptr byte, value uint16) {
		if bank == BankUser && ptr == 0 {
			fired = append(fired, value)
		}
	}
	tag.HandleCommand(&Write{Bank: BankUser, WordPtr: 0, Data: 0x0001, Handle: handle})
	tag.HandleCommand(&Write{Bank: BankUser, WordPtr: 1, Data: 0x0002, Handle: handle})
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("actuation hook fired %v, want [1]", fired)
	}
}

func TestMemoryBankStrings(t *testing.T) {
	for b, want := range map[MemoryBank]string{
		BankReserved: "Reserved", BankEPC: "EPC", BankTID: "TID", BankUser: "User",
	} {
		if b.String() != want {
			t.Errorf("%d = %q", b, b.String())
		}
	}
	if MemoryBank(9).String() == "" {
		t.Error("unknown bank empty string")
	}
}

func TestReadReplyValidation(t *testing.T) {
	rep := ReadReply{Words: []uint16{1, 2}, Handle: 0x9999}
	bits := rep.AppendBits(nil)
	var got ReadReply
	if err := got.DecodeFromBits(bits, 2); err != nil {
		t.Fatal(err)
	}
	if got.Words[0] != 1 || got.Words[1] != 2 || got.Handle != 0x9999 {
		t.Fatalf("round trip %+v", got)
	}
	if err := got.DecodeFromBits(bits, 3); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("wrong word count error = %v", err)
	}
	bits[5] ^= 1
	if err := got.DecodeFromBits(bits, 2); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("corrupted reply error = %v", err)
	}
	// Error header.
	bad := Bits{1}
	bad = bad.AppendUint(0, 32)
	bad = bad.AppendUint(uint64(CRC16(bad)), 16)
	if err := got.DecodeFromBits(bad, 1); !errors.Is(err, ErrBadCommand) {
		t.Fatalf("error-header reply error = %v", err)
	}
}

func TestWriteReplyValidation(t *testing.T) {
	rep := WriteReply{Handle: 0x4242}
	bits := rep.AppendBits(nil)
	var got WriteReply
	if err := got.DecodeFromBits(bits); err != nil {
		t.Fatal(err)
	}
	if got.Handle != 0x4242 {
		t.Fatalf("handle %#04x", got.Handle)
	}
	if err := got.DecodeFromBits(bits[:20]); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("short reply error = %v", err)
	}
	bits[3] ^= 1
	if err := got.DecodeFromBits(bits); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("corrupted reply error = %v", err)
	}
}

func TestQuickAccessRoundTrips(t *testing.T) {
	f := func(bank, ptr, count byte, handle, data uint16) bool {
		rd := &Read{Bank: MemoryBank(bank & 3), WordPtr: ptr, WordCount: count, Handle: handle}
		var gotR Read
		if err := gotR.DecodeFromBits(rd.AppendBits(nil)); err != nil || gotR != *rd {
			return false
		}
		w := &Write{Bank: MemoryBank(bank & 3), WordPtr: ptr, Data: data, Handle: handle}
		var gotW Write
		if err := gotW.DecodeFromBits(w.AppendBits(nil)); err != nil || gotW != *w {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
