// Package gen2 implements the EPC UHF Class-1 Generation-2 ("Gen2") air
// protocol that IVN's battery-free sensors speak: reader→tag commands with
// PIE line coding, tag→reader FM0/Miller backscatter encoding, CRC-5 and
// CRC-16 integrity, and the tag inventory state machine.
//
// The layer types follow the gopacket conventions the Go networking
// ecosystem established: each frame implements AppendBits (serialization
// into a caller-provided buffer) and DecodeFromBits (in-place decoding
// into a preallocated struct), plus fmt.Stringer for diagnostics. Errors
// are values, never panics.
package gen2

import (
	"errors"
	"fmt"
	"strings"
)

// Bits is a bit string, one bit per byte element (values 0 or 1). The
// unpacked representation trades memory for the bit-twiddling-free code
// the protocol logic wants; command frames are tens of bits long, so the
// cost is irrelevant.
type Bits []byte

// ErrShortFrame reports a decode against fewer bits than the frame needs.
var ErrShortFrame = errors.New("gen2: frame too short")

// ErrBadBit reports a Bits element that is neither 0 nor 1.
var ErrBadBit = errors.New("gen2: bit value out of {0,1}")

// AppendUint appends the width low-order bits of v, most significant
// first, and returns the extended slice.
func (b Bits) AppendUint(v uint64, width int) Bits {
	for i := width - 1; i >= 0; i-- {
		b = append(b, byte(v>>uint(i)&1))
	}
	return b
}

// AppendBits appends other and returns the extended slice.
func (b Bits) AppendBits(other Bits) Bits {
	return append(b, other...)
}

// Uint reads width bits starting at offset as a big-endian unsigned
// integer.
func (b Bits) Uint(offset, width int) (uint64, error) {
	if offset < 0 || width < 0 || offset+width > len(b) {
		return 0, fmt.Errorf("%w: need bits [%d,%d) of %d", ErrShortFrame, offset, offset+width, len(b))
	}
	var v uint64
	for _, bit := range b[offset : offset+width] {
		if bit > 1 {
			return 0, fmt.Errorf("%w: %d", ErrBadBit, bit)
		}
		v = v<<1 | uint64(bit)
	}
	return v, nil
}

// Validate checks every element is 0 or 1.
func (b Bits) Validate() error {
	for i, bit := range b {
		if bit > 1 {
			return fmt.Errorf("%w: index %d holds %d", ErrBadBit, i, bit)
		}
	}
	return nil
}

// Equal reports whether two bit strings are identical.
func (b Bits) Equal(other Bits) bool {
	if len(b) != len(other) {
		return false
	}
	for i := range b {
		if b[i] != other[i] {
			return false
		}
	}
	return true
}

// String renders the bits in nibble groups, e.g. "1101 0010 0011".
func (b Bits) String() string {
	var sb strings.Builder
	for i, bit := range b {
		if i > 0 && i%4 == 0 {
			sb.WriteByte(' ')
		}
		sb.WriteByte('0' + bit)
	}
	return sb.String()
}

// BitsFromBytes unpacks packed bytes MSB-first into a Bits string of
// length 8·len(p).
func BitsFromBytes(p []byte) Bits {
	b := make(Bits, 0, len(p)*8)
	for _, v := range p {
		b = b.AppendUint(uint64(v), 8)
	}
	return b
}

// Bytes packs the bit string MSB-first; trailing bits that do not fill a
// byte are left-aligned in the final byte. It errors on non-bit elements.
func (b Bits) Bytes() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	out := make([]byte, (len(b)+7)/8)
	for i, bit := range b {
		if bit == 1 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out, nil
}
