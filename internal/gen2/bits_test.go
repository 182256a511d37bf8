package gen2

import (
	"fmt"
	"testing"
	"testing/quick"
)

// ParseBits parses a test vector written as a string of '0'/'1'
// characters (spaces ignored).
func ParseBits(s string) (Bits, error) {
	var b Bits
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			b = append(b, 0)
		case '1':
			b = append(b, 1)
		case ' ':
		default:
			return nil, fmt.Errorf("gen2: invalid bit character %q at %d", s[i], i)
		}
	}
	return b, nil
}

func TestAppendUintAndUint(t *testing.T) {
	var b Bits
	b = b.AppendUint(0b1011, 4)
	if b.String() != "1011" {
		t.Fatalf("AppendUint → %q", b.String())
	}
	v, err := b.Uint(0, 4)
	if err != nil || v != 0b1011 {
		t.Fatalf("Uint = %v, %v", v, err)
	}
	v, err = b.Uint(1, 2)
	if err != nil || v != 0b01 {
		t.Fatalf("Uint(1,2) = %v, %v", v, err)
	}
}

func TestUintErrors(t *testing.T) {
	b := Bits{1, 0, 1}
	if _, err := b.Uint(2, 2); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := b.Uint(-1, 1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := (Bits{2}).Uint(0, 1); err == nil {
		t.Fatal("non-bit value accepted")
	}
}

func TestValidate(t *testing.T) {
	if err := (Bits{0, 1, 0}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Bits{0, 7}).Validate(); err == nil {
		t.Fatal("invalid bit accepted")
	}
}

func TestEqual(t *testing.T) {
	a := Bits{1, 0, 1}
	if !a.Equal(Bits{1, 0, 1}) {
		t.Fatal("equal slices reported unequal")
	}
	if a.Equal(Bits{1, 0}) || a.Equal(Bits{1, 0, 0}) {
		t.Fatal("unequal slices reported equal")
	}
}

func TestParseBitsRoundTrip(t *testing.T) {
	b, err := ParseBits("1101 0010 0011")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != "1101 0010 0011" {
		t.Fatalf("round trip → %q", b.String())
	}
	if _, err := ParseBits("10x1"); err == nil {
		t.Fatal("invalid character accepted")
	}
}

func TestBytesPackUnpack(t *testing.T) {
	orig := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	b := BitsFromBytes(orig)
	if len(b) != 32 {
		t.Fatalf("unpacked length %d", len(b))
	}
	packed, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if packed[i] != orig[i] {
			t.Fatalf("byte %d: %x != %x", i, packed[i], orig[i])
		}
	}
	// Partial final byte is left-aligned.
	part, err := (Bits{1, 1, 1}).Bytes()
	if err != nil || part[0] != 0b11100000 {
		t.Fatalf("partial pack = %08b, %v", part[0], err)
	}
	if _, err := (Bits{5}).Bytes(); err == nil {
		t.Fatal("invalid bit packed")
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		b := BitsFromBytes(p)
		packed, err := b.Bytes()
		if err != nil {
			return false
		}
		if len(packed) != len(p) {
			return len(p) == 0 && len(packed) == 0
		}
		for i := range p {
			if packed[i] != p[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAppendUintRoundTrip(t *testing.T) {
	f := func(v uint32, w uint8) bool {
		width := int(w%32) + 1
		masked := uint64(v) & (1<<uint(width) - 1)
		b := Bits{}.AppendUint(uint64(v), width)
		got, err := b.Uint(0, width)
		return err == nil && got == masked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
