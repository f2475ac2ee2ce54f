package buffer

import (
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"math"

	"doppio/internal/jsstring"
)

// Factory creates Buffers appropriate for one browser environment. It
// captures whether typed arrays exist, whether the engine validates
// strings (which forces the packed codec down to one byte per
// character), and an allocation hook used to model Safari's typed
// array GC leak.
type Factory struct {
	// Typed selects the typed-array store; when false (IE8) buffers
	// use plain number arrays.
	Typed bool
	// ValidatesStrings disables the 2-bytes-per-character packed
	// string format (§5.1).
	ValidatesStrings bool
	// OnTypedAlloc, if non-nil, is invoked with the byte size of each
	// typed-array allocation (see browser.Window.NoteTypedArrayAlloc).
	OnTypedAlloc func(n int)
}

// Buffer is a fixed-length mutable byte buffer in the style of the Node
// JS Buffer class.
type Buffer struct {
	store Store
	fac   *Factory
}

// New allocates a zero-filled Buffer of n bytes.
func (f *Factory) New(n int) *Buffer {
	var s Store
	if f.Typed {
		s = NewTypedStore(n)
		if f.OnTypedAlloc != nil {
			f.OnTypedAlloc(n)
		}
	} else {
		s = NewNumberStore(n)
	}
	return &Buffer{store: s, fac: f}
}

// FromBytes allocates a Buffer holding a copy of b.
func (f *Factory) FromBytes(b []byte) *Buffer {
	buf := f.New(len(b))
	buf.store.CopyIn(0, b)
	return buf
}

// Adopt returns a Buffer over b, which the caller hands over and must
// not touch again. On typed-array profiles b itself becomes the store,
// counted by OnTypedAlloc like any typed allocation; without typed
// arrays its bytes are copied into a number store.
func (f *Factory) Adopt(b []byte) *Buffer {
	if !f.Typed {
		return f.FromBytes(b)
	}
	if f.OnTypedAlloc != nil {
		f.OnTypedAlloc(len(b))
	}
	return &Buffer{store: TypedStore(b), fac: f}
}

// FromString allocates a Buffer holding the bytes of s in the given
// encoding.
func (f *Factory) FromString(s, enc string) (*Buffer, error) {
	b, err := f.decodeString(s, enc)
	if err != nil {
		return nil, err
	}
	return f.FromBytes(b), nil
}

// Len returns the buffer length in bytes.
func (b *Buffer) Len() int { return b.store.Len() }

// Bytes returns a copy of the buffer contents as a byte slice.
func (b *Buffer) Bytes() []byte {
	out := make([]byte, b.Len())
	b.store.CopyOut(0, out)
	return out
}

// Slice returns a new Buffer holding a copy of bytes [start, end).
// (Doppio file descriptors copy data in and out; see §5.2 on copy
// semantics.)
func (b *Buffer) Slice(start, end int) *Buffer {
	b.checkRange(start, end-start)
	out := b.fac.New(end - start)
	tmp := make([]byte, end-start)
	b.store.CopyOut(start, tmp)
	out.store.CopyIn(0, tmp)
	return out
}

// Copy copies bytes [srcStart, srcEnd) of b into dst at dstOff,
// returning the number of bytes copied.
func (b *Buffer) Copy(dst *Buffer, dstOff, srcStart, srcEnd int) int {
	n := srcEnd - srcStart
	if rem := dst.Len() - dstOff; n > rem {
		n = rem
	}
	if n <= 0 {
		return 0
	}
	tmp := make([]byte, n)
	b.store.CopyOut(srcStart, tmp)
	dst.store.CopyIn(dstOff, tmp)
	return n
}

// Fill sets bytes [start, end) to v.
func (b *Buffer) Fill(v byte, start, end int) {
	b.checkRange(start, end-start)
	for i := start; i < end; i++ {
		b.store.Set(i, v)
	}
}

func (b *Buffer) checkRange(off, n int) {
	if off < 0 || n < 0 || off+n > b.store.Len() {
		panic(&RangeError{Off: off, N: n, Len: b.store.Len()})
	}
}

// RangeError reports an out-of-bounds Buffer access, mirroring Node's
// RangeError. The JVM natives convert it into the appropriate Java
// exception.
type RangeError struct{ Off, N, Len int }

func (e *RangeError) Error() string {
	return fmt.Sprintf("buffer: index out of range: offset %d length %d in buffer of %d", e.Off, e.N, e.Len)
}

// --- 8-bit accessors ---

// ReadUInt8 reads the unsigned byte at off.
func (b *Buffer) ReadUInt8(off int) uint8 { b.checkRange(off, 1); return b.store.Get(off) }

// ReadInt8 reads the signed byte at off.
func (b *Buffer) ReadInt8(off int) int8 { return int8(b.ReadUInt8(off)) }

// WriteUInt8 writes the unsigned byte v at off.
func (b *Buffer) WriteUInt8(v uint8, off int) { b.checkRange(off, 1); b.store.Set(off, v) }

// WriteInt8 writes the signed byte v at off.
func (b *Buffer) WriteInt8(v int8, off int) { b.WriteUInt8(uint8(v), off) }

// --- 16-bit accessors ---

// ReadUInt16LE reads a little-endian uint16 at off.
func (b *Buffer) ReadUInt16LE(off int) uint16 {
	b.checkRange(off, 2)
	return uint16(b.store.Get(off)) | uint16(b.store.Get(off+1))<<8
}

// ReadUInt16BE reads a big-endian uint16 at off.
func (b *Buffer) ReadUInt16BE(off int) uint16 {
	b.checkRange(off, 2)
	return uint16(b.store.Get(off))<<8 | uint16(b.store.Get(off+1))
}

// ReadInt16LE reads a little-endian int16 at off.
func (b *Buffer) ReadInt16LE(off int) int16 { return int16(b.ReadUInt16LE(off)) }

// ReadInt16BE reads a big-endian int16 at off.
func (b *Buffer) ReadInt16BE(off int) int16 { return int16(b.ReadUInt16BE(off)) }

// WriteUInt16LE writes a little-endian uint16 at off.
func (b *Buffer) WriteUInt16LE(v uint16, off int) {
	b.checkRange(off, 2)
	b.store.Set(off, byte(v))
	b.store.Set(off+1, byte(v>>8))
}

// WriteUInt16BE writes a big-endian uint16 at off.
func (b *Buffer) WriteUInt16BE(v uint16, off int) {
	b.checkRange(off, 2)
	b.store.Set(off, byte(v>>8))
	b.store.Set(off+1, byte(v))
}

// WriteInt16LE writes a little-endian int16 at off.
func (b *Buffer) WriteInt16LE(v int16, off int) { b.WriteUInt16LE(uint16(v), off) }

// WriteInt16BE writes a big-endian int16 at off.
func (b *Buffer) WriteInt16BE(v int16, off int) { b.WriteUInt16BE(uint16(v), off) }

// --- 32-bit accessors ---

// ReadUInt32LE reads a little-endian uint32 at off.
func (b *Buffer) ReadUInt32LE(off int) uint32 {
	b.checkRange(off, 4)
	return uint32(b.store.Get(off)) | uint32(b.store.Get(off+1))<<8 |
		uint32(b.store.Get(off+2))<<16 | uint32(b.store.Get(off+3))<<24
}

// ReadUInt32BE reads a big-endian uint32 at off.
func (b *Buffer) ReadUInt32BE(off int) uint32 {
	b.checkRange(off, 4)
	return uint32(b.store.Get(off))<<24 | uint32(b.store.Get(off+1))<<16 |
		uint32(b.store.Get(off+2))<<8 | uint32(b.store.Get(off+3))
}

// ReadInt32LE reads a little-endian int32 at off.
func (b *Buffer) ReadInt32LE(off int) int32 { return int32(b.ReadUInt32LE(off)) }

// ReadInt32BE reads a big-endian int32 at off.
func (b *Buffer) ReadInt32BE(off int) int32 { return int32(b.ReadUInt32BE(off)) }

// WriteUInt32LE writes a little-endian uint32 at off.
func (b *Buffer) WriteUInt32LE(v uint32, off int) {
	b.checkRange(off, 4)
	b.store.Set(off, byte(v))
	b.store.Set(off+1, byte(v>>8))
	b.store.Set(off+2, byte(v>>16))
	b.store.Set(off+3, byte(v>>24))
}

// WriteUInt32BE writes a big-endian uint32 at off.
func (b *Buffer) WriteUInt32BE(v uint32, off int) {
	b.checkRange(off, 4)
	b.store.Set(off, byte(v>>24))
	b.store.Set(off+1, byte(v>>16))
	b.store.Set(off+2, byte(v>>8))
	b.store.Set(off+3, byte(v))
}

// WriteInt32LE writes a little-endian int32 at off.
func (b *Buffer) WriteInt32LE(v int32, off int) { b.WriteUInt32LE(uint32(v), off) }

// WriteInt32BE writes a big-endian int32 at off.
func (b *Buffer) WriteInt32BE(v int32, off int) { b.WriteUInt32BE(uint32(v), off) }

// --- floating point accessors ---

// ReadFloatLE reads a little-endian float32 at off.
func (b *Buffer) ReadFloatLE(off int) float32 {
	return math.Float32frombits(b.ReadUInt32LE(off))
}

// ReadFloatBE reads a big-endian float32 at off.
func (b *Buffer) ReadFloatBE(off int) float32 {
	return math.Float32frombits(b.ReadUInt32BE(off))
}

// WriteFloatLE writes a little-endian float32 at off.
func (b *Buffer) WriteFloatLE(v float32, off int) { b.WriteUInt32LE(math.Float32bits(v), off) }

// WriteFloatBE writes a big-endian float32 at off.
func (b *Buffer) WriteFloatBE(v float32, off int) { b.WriteUInt32BE(math.Float32bits(v), off) }

// ReadDoubleLE reads a little-endian float64 at off.
func (b *Buffer) ReadDoubleLE(off int) float64 {
	bits := uint64(b.ReadUInt32LE(off)) | uint64(b.ReadUInt32LE(off+4))<<32
	return math.Float64frombits(bits)
}

// ReadDoubleBE reads a big-endian float64 at off.
func (b *Buffer) ReadDoubleBE(off int) float64 {
	bits := uint64(b.ReadUInt32BE(off))<<32 | uint64(b.ReadUInt32BE(off+4))
	return math.Float64frombits(bits)
}

// WriteDoubleLE writes a little-endian float64 at off.
func (b *Buffer) WriteDoubleLE(v float64, off int) {
	bits := math.Float64bits(v)
	b.WriteUInt32LE(uint32(bits), off)
	b.WriteUInt32LE(uint32(bits>>32), off+4)
}

// WriteDoubleBE writes a big-endian float64 at off.
func (b *Buffer) WriteDoubleBE(v float64, off int) {
	bits := math.Float64bits(v)
	b.WriteUInt32BE(uint32(bits>>32), off)
	b.WriteUInt32BE(uint32(bits), off+4)
}

// --- string codecs ---

// Encodings supported by ToString/WriteString, per the Node Buffer API
// plus Doppio's packed binary-string format.
const (
	ASCII   = "ascii"
	UTF8    = "utf8"
	UTF16LE = "utf16le"
	UCS2    = "ucs2" // alias of utf16le
	Base64  = "base64"
	Hex     = "hex"
	Latin1  = "binary" // Node's legacy "binary" encoding
	Packed  = "packed" // Doppio's 2-bytes-per-char binary string (§5.1)
)

// ErrUnknownEncoding reports an unsupported encoding name.
type ErrUnknownEncoding string

func (e ErrUnknownEncoding) Error() string {
	return fmt.Sprintf("buffer: unknown encoding %q", string(e))
}

func (f *Factory) decodeString(s, enc string) ([]byte, error) {
	switch enc {
	case ASCII:
		out, _ := decodeUnits(s, 1, false)
		for i, c := range out {
			out[i] = c & 0x7F
		}
		return out, nil
	case Latin1:
		out, _ := decodeUnits(s, 1, false)
		return out, nil
	case UTF8:
		return []byte(s), nil
	case UTF16LE, UCS2:
		out, _ := decodeUnits(s, 2, false)
		return out, nil
	case Base64:
		return base64.StdEncoding.DecodeString(s)
	case Hex:
		return hex.DecodeString(s)
	case Packed:
		return f.Unpack(s)
	default:
		return nil, ErrUnknownEncoding(enc)
	}
}

func (f *Factory) encodeString(b []byte, enc string) (string, error) {
	switch enc {
	case ASCII:
		masked := make([]byte, len(b))
		for i, c := range b {
			masked[i] = c & 0x7F
		}
		return ownedString(masked), nil
	case Latin1:
		return wtf8String(0, b, 1), nil
	case UTF8:
		return string(b), nil
	case UTF16LE, UCS2:
		return wtf8String(0, b[:len(b)&^1], 2), nil
	case Base64:
		return base64.StdEncoding.EncodeToString(b), nil
	case Hex:
		return hex.EncodeToString(b), nil
	case Packed:
		return f.Pack(b), nil
	default:
		return "", ErrUnknownEncoding(enc)
	}
}

// Pack converts binary data into Doppio's "binary string" format. On
// engines without string validity checks it stores two bytes per
// UTF-16 character (a header unit records whether the byte count is
// odd); on validating engines it falls back to one byte per character.
// It is ToString(Packed) for bytes not held in a Buffer, and it writes
// the string in one allocation.
func (f *Factory) Pack(b []byte) string {
	if f.ValidatesStrings {
		return wtf8String('S', b, 1) // one byte per character: always-valid BMP units
	}
	if len(b)%2 == 0 {
		return wtf8String('D', b, 2) // double-byte, even length
	}
	return wtf8String('d', b, 2) // double-byte, odd length
}

// ErrBadPackedString reports a corrupt packed binary string.
var ErrBadPackedString = fmt.Errorf("buffer: malformed packed binary string")

// Unpack converts a packed binary string back into bytes: FromString
// with Packed, without the Buffer. It decodes straight into the slice
// it returns.
func (f *Factory) Unpack(s string) ([]byte, error) {
	width, odd, body, err := packedHeader(s)
	if err != nil {
		return nil, err
	}
	out, ok := decodeUnits(body, width, odd)
	if !ok {
		return nil, ErrBadPackedString
	}
	return out, nil
}

// PackedLen reports the byte length a packed binary string unpacks to,
// read from its header unit and its length in UTF-16 units without
// decoding the contents. It fails exactly when unpacking would.
func PackedLen(s string) (int, error) {
	width, odd, body, err := packedHeader(s)
	if err != nil {
		return 0, err
	}
	n := width * jsstring.Units(body)
	if odd {
		n--
	}
	if n < 0 {
		return 0, ErrBadPackedString
	}
	return n, nil
}

// packedHeader reads the header unit of a packed string: the bytes per
// body unit, whether the last unit holds one byte, and the body after
// the header.
func packedHeader(s string) (width int, odd bool, body string, err error) {
	if s == "" {
		return 0, false, "", ErrBadPackedString
	}
	head, _, next := decodeUnit(s, 0)
	switch head {
	case 'S':
		return 1, false, s[next:], nil
	case 'D', 'd':
		return 2, head == 'd', s[next:], nil
	}
	return 0, false, "", ErrBadPackedString
}

// ToString renders bytes [start, end) in the given encoding.
func (b *Buffer) ToString(enc string, start, end int) (string, error) {
	b.checkRange(start, end-start)
	tmp := make([]byte, end-start)
	b.store.CopyOut(start, tmp)
	return b.fac.encodeString(tmp, enc)
}

// WriteString writes s (in the given encoding) into the buffer at off,
// returning the number of bytes written (truncated at the buffer end).
func (b *Buffer) WriteString(s string, off int, enc string) (int, error) {
	data, err := b.fac.decodeString(s, enc)
	if err != nil {
		return 0, err
	}
	n := len(data)
	if rem := b.Len() - off; n > rem {
		n = rem
	}
	if n < 0 {
		n = 0
	}
	b.store.CopyIn(off, data[:n])
	return n, nil
}
