package gen2

import (
	"errors"
	"testing"

	"ivn/internal/rng"
)

func openProtectedTag(t *testing.T, pwd uint32, seed uint64) (*TagLogic, uint16) {
	t.Helper()
	tag, handle := openTag(t, seed)
	tag.SetAccessPassword(pwd)
	return tag, handle
}

func TestAccessCommandRoundTrip(t *testing.T) {
	a := &Access{Password: 0xDEADBEEF, Handle: 0x1234}
	bits := a.AppendBits(nil)
	if len(bits) != 72 {
		t.Fatalf("Access frame %d bits, want 72", len(bits))
	}
	var got Access
	if err := got.DecodeFromBits(bits); err != nil {
		t.Fatal(err)
	}
	if got != *a {
		t.Fatalf("round trip %+v != %+v", got, *a)
	}
	bits[20] ^= 1
	if err := got.DecodeFromBits(bits); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("corrupted Access error = %v", err)
	}
	cmd, err := DecodeCommand(a.AppendBits(nil))
	if err != nil || cmd.Type() != CmdAccess {
		t.Fatalf("dispatch: %v %v", cmd, err)
	}
	if got.String() == "" || got.String() == "Access{handle=0x1234, password=0xdeadbeef}" {
		// The password must never appear in diagnostics.
		t.Fatalf("Access string leaks or is empty: %q", got.String())
	}
}

func TestProtectedWriteRequiresAccess(t *testing.T) {
	const pwd = 0xCAFEBABE
	tag, handle := openProtectedTag(t, pwd, 31)
	// Write without Access: silent.
	if r := tag.HandleCommand(&Write{Bank: BankUser, WordPtr: 0, Data: 1, Handle: handle}); r.Kind != ReplyNone {
		t.Fatal("protected write accepted without Access")
	}
	// Wrong password: silent, still Open.
	if r := tag.HandleCommand(&Access{Password: pwd ^ 1, Handle: handle}); r.Kind != ReplyNone {
		t.Fatal("wrong password acknowledged")
	}
	if tag.State() == StateSecured {
		t.Fatal("wrong password secured the tag")
	}
	// Correct password: handle reply, Secured.
	r := tag.HandleCommand(&Access{Password: pwd, Handle: handle})
	if r.Kind != ReplyHandle {
		t.Fatalf("Access reply = %s", r.Kind)
	}
	if !CheckCRC16(r.Bits) {
		t.Fatal("Access grant CRC broken")
	}
	if tag.State() != StateSecured {
		t.Fatal("tag not secured after correct Access")
	}
	// Now the write lands.
	if r := tag.HandleCommand(&Write{Bank: BankUser, WordPtr: 0, Data: 0x77, Handle: handle}); r.Kind != ReplyWrite {
		t.Fatalf("secured write reply = %s", r.Kind)
	}
	if tag.user[0] != 0x77 {
		t.Fatal("secured write did not land")
	}
	// Reads work in Secured too.
	if r := tag.HandleCommand(&Read{Bank: BankUser, WordPtr: 0, WordCount: 1, Handle: handle}); r.Kind != ReplyRead {
		t.Fatalf("secured read reply = %s", r.Kind)
	}
}

func TestUnprotectedTagWritesFromOpen(t *testing.T) {
	tag, handle := openTag(t, 32) // no password set
	if r := tag.HandleCommand(&Write{Bank: BankUser, WordPtr: 1, Data: 5, Handle: handle}); r.Kind != ReplyWrite {
		t.Fatalf("unprotected write reply = %s", r.Kind)
	}
	// Access against an unprotected tag is refused (nothing to prove).
	if r := tag.HandleCommand(&Access{Password: 0x1111, Handle: handle}); r.Kind != ReplyNone {
		t.Fatal("Access acknowledged by unprotected tag")
	}
}

func TestAccessRequiresHandleAndState(t *testing.T) {
	const pwd = 0x0BADF00D
	tag, handle := openProtectedTag(t, pwd, 33)
	if r := tag.HandleCommand(&Access{Password: pwd, Handle: handle ^ 1}); r.Kind != ReplyNone {
		t.Fatal("wrong-handle Access acknowledged")
	}
	idle, err := NewTagLogic([]byte{0x11, 0x22}, rng.New(34))
	if err != nil {
		t.Fatal(err)
	}
	idle.SetAccessPassword(pwd)
	if r := idle.HandleCommand(&Access{Password: pwd, Handle: 0}); r.Kind != ReplyNone {
		t.Fatal("idle tag acknowledged Access")
	}
}

func TestSecuredTagClosesOutLikeOpen(t *testing.T) {
	const pwd = 0x12345678
	tag, handle := openProtectedTag(t, pwd, 35)
	tag.HandleCommand(&Access{Password: pwd, Handle: handle})
	if tag.State() != StateSecured {
		t.Fatal("not secured")
	}
	// QueryRep ends the round: flag flips, back to Ready.
	tag.HandleCommand(&QueryRep{Session: S0})
	if tag.State() != StateReady {
		t.Fatalf("state after QueryRep = %s", tag.State())
	}
	if !tag.Inventoried(S0) {
		t.Fatal("inventoried flag not flipped from Secured")
	}
	if StateSecured.String() != "Secured" {
		t.Fatal("state name wrong")
	}
}

func TestPowerLossClearsSecuredState(t *testing.T) {
	const pwd = 0x55AA55AA
	tag, handle := openProtectedTag(t, pwd, 36)
	tag.HandleCommand(&Access{Password: pwd, Handle: handle})
	tag.PowerReset()
	if tag.State() == StateSecured {
		t.Fatal("Secured survived power loss")
	}
	if tag.State() != StateReady {
		t.Fatalf("state after power loss = %s", tag.State())
	}
}
