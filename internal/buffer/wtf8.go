package buffer

import (
	"math/bits"
	"unsafe"

	"doppio/internal/jsstring"
)

// The string codecs that turn bytes into JavaScript code units and
// back (binary, ascii, utf16le and the packed format) read and write
// the WTF-8 of those units directly, without building a []uint16 in
// between: bytes to string is one exact-size allocation, and so is
// string to bytes. jsstring.Encode and jsstring.Decode remain the
// definition these loops must agree with.
//
// Units are read from bytes width (1 or 2) bytes at a time,
// little-endian. A final unit short of width bytes is zero-extended on
// the way in; on the way out, a final unit with less room keeps its
// low byte.

// wtf8String returns the string of head (one ASCII byte, none when 0)
// followed by the WTF-8 of b's units. The bytes are written once,
// into the allocation the string keeps.
func wtf8String(head byte, b []byte, width int) string {
	off := 0
	if head != 0 {
		off = 1
	}
	n := off + wtf8Len(b, width)
	if n == 0 {
		return ""
	}
	buf := make([]byte, n)
	if head != 0 {
		buf[0] = head
	}
	putWTF8(buf[off:], b, width)
	return ownedString(buf)
}

// ownedString returns buf as a string without copying it; nothing may
// write to buf afterwards.
func ownedString(buf []byte) string {
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// wtf8Len is the WTF-8 length of b's units: 1 byte below 0x80, 2
// below 0x800, 3 otherwise.
func wtf8Len(b []byte, width int) int {
	n := len(b)
	if width == 1 {
		for _, c := range b {
			if c >= 0x80 {
				n++
			}
		}
		return n
	}
	// Two bytes become one unit of 1 to 3 bytes; a last odd byte is a
	// unit below 0x100.
	n += len(b) / 2
	i := 0
	for ; i+1 < len(b); i += 2 {
		if hi := b[i+1]; hi < 0x08 {
			n--
			if hi == 0 && b[i] < 0x80 {
				n--
			}
		}
	}
	if i < len(b) && b[i] >= 0x80 {
		n++
	}
	return n
}

// putWTF8 writes the WTF-8 of b's units into dst, which is exactly
// wtf8Len(b, width) bytes long.
func putWTF8(dst, b []byte, width int) {
	j := 0
	if width == 1 {
		for _, c := range b {
			j = putUnit(dst, j, uint16(c))
		}
		return
	}
	i := 0
	for ; i+1 < len(b); i += 2 {
		lo, hi := b[i], b[i+1]
		if hi >= 0x08 { // three bytes: most units of binary data
			d := dst[j : j+3 : j+3]
			d[0], d[1], d[2] = 0xE0|hi>>4, 0x80|(hi&0x0F)<<2|lo>>6, 0x80|lo&0x3F
			j += 3
			continue
		}
		j = putUnit(dst, j, uint16(hi)<<8|uint16(lo))
	}
	if i < len(b) {
		putUnit(dst, j, uint16(b[i]))
	}
}

// putUnit writes the WTF-8 of one unit below 0x800 at dst[j] and
// returns the index after it.
func putUnit(dst []byte, j int, u uint16) int {
	if u < 0x80 {
		dst[j] = byte(u)
		return j + 1
	}
	dst[j], dst[j+1] = 0xC0|byte(u>>6), 0x80|byte(u&0x3F)
	return j + 2
}

// unitsInto decodes the units of s, as jsstring.Decode reads them,
// into out, width bytes each; a last unit with room for one byte
// keeps its low byte. It reports whether the units filled out
// exactly. Without lenient it stops, reporting false, at the first
// sequence other than a well-formed one of one to three bytes: a
// malformed byte or a four-byte surrogate pair, which change the unit
// count leadBytes reads.
func unitsInto(out []byte, s string, width int, lenient bool) bool {
	i, j := 0, 0
	for j < len(out) && i < len(s) {
		var u, lo uint16
		c := s[i]
		switch {
		case c&0xF0 == 0xE0 && i+2 < len(s) && s[i+1]&0xC0 == 0x80 && s[i+2]&0xC0 == 0x80:
			u = uint16(c&0x0F)<<12 | uint16(s[i+1]&0x3F)<<6 | uint16(s[i+2]&0x3F)
			i += 3
		case c < 0x80:
			u = uint16(c)
			i++
		case c&0xE0 == 0xC0 && i+1 < len(s) && s[i+1]&0xC0 == 0x80:
			u = uint16(c&0x1F)<<6 | uint16(s[i+1]&0x3F)
			i += 2
		case !lenient:
			return false
		default:
			u, lo, i = decodeUnit(s, i)
			if lo != 0 { // a surrogate pair: store the high unit first
				j = putLE(out, j, u, width)
				u = lo
			}
		}
		j = putLE(out, j, u, width)
	}
	return j == len(out) && i == len(s)
}

// putLE stores the low width bytes of u at out[j], or as many as fit,
// and returns the index after them.
func putLE(out []byte, j int, u uint16, width int) int {
	out[j] = byte(u)
	if width == 2 && j+1 < len(out) {
		out[j+1] = byte(u >> 8)
		return j + 2
	}
	return j + 1
}

// leadBytes counts the bytes of s that are not UTF-8 continuation
// bytes, eight at a time. That is its unit count when every sequence
// is well formed and none is four bytes long, as in every string the
// encoders here write.
func leadBytes(s string) int {
	n, i := len(s), 0
	for ; i+8 <= len(s); i += 8 {
		v := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		// A continuation byte has bit 7 set and bit 6 clear.
		n -= bits.OnesCount64(v &^ (v << 1) & 0x8080808080808080)
	}
	for ; i < len(s); i++ {
		if s[i]&0xC0 == 0x80 {
			n--
		}
	}
	return n
}

// decodeUnits returns the units of s, width bytes each, less the high
// byte of the last when trim is set; ok is false when there is no unit
// to trim. The first try sizes the result by leadBytes; a string it
// does not fit (never one the encoders wrote) is counted exactly with
// jsstring.Units and decoded again.
func decodeUnits(s string, width int, trim bool) (out []byte, ok bool) {
	cut := 0
	if trim {
		cut = 1
	}
	if n := width*leadBytes(s) - cut; n >= 0 {
		out = make([]byte, n)
		if unitsInto(out, s, width, false) {
			return out, true
		}
	}
	n := width*jsstring.Units(s) - cut
	if n < 0 {
		return nil, false
	}
	out = make([]byte, n)
	unitsInto(out, s, width, true)
	return out, true
}

// decodeUnit decodes the unit jsstring.Decode reads at s[i] and
// returns it with the index after it. A valid four-byte sequence
// decodes to a surrogate pair, returned as u and lo; lo is 0 for any
// other sequence, since a low surrogate never is. Malformed bytes
// decode to U+FFFD, one unit per byte.
func decodeUnit(s string, i int) (u, lo uint16, next int) {
	c := s[i]
	switch {
	case c < 0x80:
		return uint16(c), 0, i + 1
	case c < 0xC0:
		return 0xFFFD, 0, i + 1
	case c < 0xE0:
		if i+1 >= len(s) || s[i+1]&0xC0 != 0x80 {
			return 0xFFFD, 0, i + 1
		}
		return uint16(c&0x1F)<<6 | uint16(s[i+1]&0x3F), 0, i + 2
	case c < 0xF0:
		if i+2 >= len(s) || s[i+1]&0xC0 != 0x80 || s[i+2]&0xC0 != 0x80 {
			return 0xFFFD, 0, i + 1
		}
		return uint16(c&0x0F)<<12 | uint16(s[i+1]&0x3F)<<6 | uint16(s[i+2]&0x3F), 0, i + 3
	default:
		if i+3 >= len(s) || s[i+1]&0xC0 != 0x80 || s[i+2]&0xC0 != 0x80 || s[i+3]&0xC0 != 0x80 {
			return 0xFFFD, 0, i + 1
		}
		cp := uint32(c&0x07)<<18 | uint32(s[i+1]&0x3F)<<12 | uint32(s[i+2]&0x3F)<<6 | uint32(s[i+3]&0x3F)
		cp -= 0x10000
		return uint16(0xD800 | cp>>10), uint16(0xDC00 | cp&0x3FF), i + 4
	}
}
