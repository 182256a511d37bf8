package gen2

import "fmt"

// Access-password security (Gen2 §6.3.2.12.3.5, simplified to a
// single-shot exchange): a tag provisioned with a nonzero access password
// only accepts memory Writes after the reader proves knowledge of it.
// For IVN's actuation story this is the difference between "anyone with a
// beamformer can trigger a dose" and a deployable medical device: the
// threshold effect already prevents *unpowered* triggering, and the
// password prevents *unauthorized* triggering.
//
// The spec splits the password over two cover-coded half-exchanges; this
// model carries it in one frame (cover-coding protects over-the-air
// secrecy, which the simulator does not model adversarially).

// StateSecured is reached from Open by a correct Access command; it is
// defined here (rather than with the other states) because it belongs to
// the security layer.
const StateSecured TagState = StateOpen + 1

// Access presents the access password: 8-bit opcode 11000110, 32-bit
// password, 16-bit handle, CRC-16 (72 bits).
type Access struct {
	Password uint32
	Handle   uint16
}

// Type implements Command.
func (*Access) Type() CommandType { return CmdAccess }

// AppendBits implements Command.
func (a *Access) AppendBits(dst Bits) Bits {
	start := len(dst)
	dst = dst.AppendUint(0b11000110, 8)
	dst = dst.AppendUint(uint64(a.Password), 32)
	dst = dst.AppendUint(uint64(a.Handle), 16)
	crc := CRC16(dst[start:])
	return dst.AppendUint(uint64(crc), 16)
}

// DecodeFromBits implements Command.
func (a *Access) DecodeFromBits(b Bits) error {
	if len(b) != 72 {
		return fmt.Errorf("%w: Access needs 72 bits, got %d", ErrShortFrame, len(b))
	}
	op, err := b.Uint(0, 8)
	if err != nil {
		return err
	}
	if op != 0b11000110 {
		return fmt.Errorf("%w: prefix %08b is not Access", ErrBadCommand, op)
	}
	if !CheckCRC16(b) {
		return fmt.Errorf("%w: Access CRC-16", ErrBadCRC)
	}
	pwd, _ := b.Uint(8, 32)
	h, _ := b.Uint(40, 16)
	a.Password = uint32(pwd)
	a.Handle = uint16(h)
	return nil
}

// String implements fmt.Stringer (the password is not printed).
func (a *Access) String() string {
	return fmt.Sprintf("Access{handle=%#04x}", a.Handle)
}

// SetAccessPassword provisions the tag's access password (zero disables
// protection). In a real tag this lives in the reserved memory bank and is
// written at commissioning time.
func (t *TagLogic) SetAccessPassword(pwd uint32) { t.accessPwd = pwd }

func (t *TagLogic) handleAccess(a *Access) Reply {
	if (t.state != StateOpen && t.state != StateSecured) || a.Handle != t.handle {
		return Reply{Kind: ReplyNone}
	}
	if t.accessPwd == 0 || a.Password != t.accessPwd {
		// Wrong password: real tags stay silent and remain Open; repeated
		// failures would arbitrate out, which the reader's NAK handles.
		return Reply{Kind: ReplyNone}
	}
	t.state = StateSecured
	// Reply: handle + CRC16, like the ReqRN grant.
	var b Bits
	b = b.AppendUint(uint64(t.handle), 16)
	crc := CRC16(b)
	b = b.AppendUint(uint64(crc), 16)
	return Reply{Kind: ReplyHandle, Bits: b}
}

// writePermitted reports whether a Write may proceed given the tag's
// protection state.
func (t *TagLogic) writePermitted() bool {
	if t.accessPwd == 0 {
		return t.state == StateOpen || t.state == StateSecured
	}
	return t.state == StateSecured
}
