package analysis

import (
	"fmt"
	"math/bits"
	"strings"
)

// ByteSet is a set of byte values, used for first-byte (dispatch) analysis.
type ByteSet struct {
	bits [4]uint64
}

// Add inserts byte b.
func (s *ByteSet) Add(b byte) { s.bits[b>>6] |= 1 << (b & 63) }

// AddRange inserts every byte in [lo, hi].
func (s *ByteSet) AddRange(lo, hi byte) {
	for b := int(lo); b <= int(hi); b++ {
		s.Add(byte(b))
	}
}

// AddAll inserts every byte value.
func (s *ByteSet) AddAll() {
	for i := range s.bits {
		s.bits[i] = ^uint64(0)
	}
}

// Has reports membership of byte b.
func (s *ByteSet) Has(b byte) bool { return s.bits[b>>6]&(1<<(b&63)) != 0 }

// Union merges o into s.
func (s *ByteSet) Union(o *ByteSet) {
	for i := range s.bits {
		s.bits[i] |= o.bits[i]
	}
}

// Invert complements the set in place.
func (s *ByteSet) Invert() {
	for i := range s.bits {
		s.bits[i] = ^s.bits[i]
	}
}

// Len returns the number of bytes in the set.
func (s *ByteSet) Len() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s *ByteSet) Empty() bool {
	return s.bits[0] == 0 && s.bits[1] == 0 && s.bits[2] == 0 && s.bits[3] == 0
}

// Intersects reports whether the two sets share any byte.
func (s *ByteSet) Intersects(o *ByteSet) bool {
	for i := range s.bits {
		if s.bits[i]&o.bits[i] != 0 {
			return true
		}
	}
	return false
}

// Clone returns a copy of the set.
func (s *ByteSet) Clone() *ByteSet {
	c := *s
	return &c
}

// String renders the set compactly as ranges, for debugging output.
func (s *ByteSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := 0; i < 256; {
		if !s.Has(byte(i)) {
			i++
			continue
		}
		j := i
		for j+1 < 256 && s.Has(byte(j+1)) {
			j++
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		if i == j {
			fmt.Fprintf(&b, "%s", byteName(byte(i)))
		} else {
			fmt.Fprintf(&b, "%s-%s", byteName(byte(i)), byteName(byte(j)))
		}
		i = j + 1
	}
	b.WriteByte('}')
	return b.String()
}

func byteName(c byte) string {
	if c >= 0x21 && c < 0x7f {
		return string(c)
	}
	return fmt.Sprintf("%02x", c)
}
