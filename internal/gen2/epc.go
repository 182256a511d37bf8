package gen2

import (
	"fmt"
	"slices"
)

// RN16Reply is the tag's slot reply: a bare 16-bit random number, no CRC.
// Decoding the RN16 is IVN's range/depth success criterion ("We determine
// the maximum range (depth) as the one where the reader can decode the
// tag's RN16", paper §6.1.2).
type RN16Reply struct {
	RN16 uint16
}

// AppendBits serializes the reply payload (preamble is added by the
// line-coding layer). It grows dst once, to the frame's 16 bits.
func (r *RN16Reply) AppendBits(dst Bits) Bits {
	return slices.Grow(dst, 16).AppendUint(uint64(r.RN16), 16)
}

// DecodeFromBits parses the 16 payload bits.
func (r *RN16Reply) DecodeFromBits(b Bits) error {
	if len(b) != 16 {
		return fmt.Errorf("%w: RN16 reply needs 16 bits, got %d", ErrShortFrame, len(b))
	}
	v, err := b.Uint(0, 16)
	if err != nil {
		return err
	}
	r.RN16 = uint16(v)
	return nil
}

// String implements fmt.Stringer.
func (r *RN16Reply) String() string { return fmt.Sprintf("RN16Reply{%#04x}", r.RN16) }

// EPCReply is the tag's acknowledged reply: {PC, EPC, CRC-16}.
type EPCReply struct {
	// PC is the 16-bit protocol-control word; its top 5 bits give the EPC
	// length in words.
	PC uint16
	// EPC is the tag identifier, a whole number of 16-bit words.
	EPC []byte
}

// NewEPCReply builds a reply for the given EPC, deriving the PC word's
// length field. The EPC must be a whole number of 16-bit words (an even
// byte count) between 1 and 31 words.
func NewEPCReply(epc []byte) (*EPCReply, error) {
	if len(epc)%2 != 0 {
		return nil, fmt.Errorf("gen2: EPC length %d bytes is not word-aligned", len(epc))
	}
	words := len(epc) / 2
	if words < 1 || words > 31 {
		return nil, fmt.Errorf("gen2: EPC length %d words out of [1,31]", words)
	}
	return &EPCReply{
		PC:  uint16(words) << 11,
		EPC: append([]byte(nil), epc...),
	}, nil
}

// AppendBits serializes {PC, EPC, CRC16}. It grows dst once, to the
// frame's 32 + 8·len(EPC) bits.
func (e *EPCReply) AppendBits(dst Bits) Bits {
	start := len(dst)
	dst = slices.Grow(dst, 32+8*len(e.EPC)).AppendUint(uint64(e.PC), 16)
	for _, b := range e.EPC {
		dst = dst.AppendUint(uint64(b), 8)
	}
	crc := CRC16(dst[start:])
	return dst.AppendUint(uint64(crc), 16)
}

// DecodeFromBits parses and CRC-checks a {PC, EPC, CRC16} frame.
func (e *EPCReply) DecodeFromBits(b Bits) error {
	if len(b) < 16+16+16 {
		return fmt.Errorf("%w: EPC reply needs >= 48 bits, got %d", ErrShortFrame, len(b))
	}
	pc, err := b.Uint(0, 16)
	if err != nil {
		return err
	}
	words := int(pc >> 11)
	want := 16 + words*16 + 16
	if len(b) != want {
		return fmt.Errorf("%w: PC declares %d words (%d bits), frame has %d", ErrShortFrame, words, want, len(b))
	}
	if !CheckCRC16(b) {
		return fmt.Errorf("%w: EPC reply CRC-16", ErrBadCRC)
	}
	e.PC = uint16(pc)
	epcBits := b[16 : 16+words*16]
	packed, err := epcBits.Bytes()
	if err != nil {
		return err
	}
	e.EPC = packed
	return nil
}

// String implements fmt.Stringer.
func (e *EPCReply) String() string {
	return fmt.Sprintf("EPCReply{PC=%#04x EPC=%x}", e.PC, e.EPC)
}
