package buffer

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

var factories = map[string]*Factory{
	"typed":            {Typed: true},
	"number":           {Typed: false},
	"typed-validating": {Typed: true, ValidatesStrings: true},
}

func TestNewZeroed(t *testing.T) {
	for name, f := range factories {
		b := f.New(8)
		if b.Len() != 8 {
			t.Errorf("%s: Len = %d", name, b.Len())
		}
		for i := 0; i < 8; i++ {
			if b.ReadUInt8(i) != 0 {
				t.Errorf("%s: byte %d not zeroed", name, i)
			}
		}
	}
}

func TestIntAccessorsRoundTrip(t *testing.T) {
	for name, f := range factories {
		b := f.New(16)
		b.WriteUInt16LE(0xBEEF, 0)
		if b.ReadUInt16LE(0) != 0xBEEF || b.ReadUInt16BE(0) != 0xEFBE {
			t.Errorf("%s: u16 mismatch", name)
		}
		b.WriteUInt16BE(0xBEEF, 2)
		if b.ReadUInt16BE(2) != 0xBEEF {
			t.Errorf("%s: u16 BE mismatch", name)
		}
		b.WriteInt16LE(-2, 4)
		if b.ReadInt16LE(4) != -2 {
			t.Errorf("%s: i16 mismatch", name)
		}
		b.WriteUInt32LE(0xDEADBEEF, 6)
		if b.ReadUInt32LE(6) != 0xDEADBEEF {
			t.Errorf("%s: u32 mismatch", name)
		}
		b.WriteInt32BE(-123456789, 10)
		if b.ReadInt32BE(10) != -123456789 {
			t.Errorf("%s: i32 BE mismatch", name)
		}
		b.WriteInt8(-5, 15)
		if b.ReadInt8(15) != -5 {
			t.Errorf("%s: i8 mismatch", name)
		}
	}
}

func TestFloatAccessors(t *testing.T) {
	for name, f := range factories {
		b := f.New(24)
		b.WriteFloatLE(3.5, 0)
		b.WriteFloatBE(-2.25, 4)
		b.WriteDoubleLE(math.Pi, 8)
		b.WriteDoubleBE(-math.E, 16)
		if b.ReadFloatLE(0) != 3.5 || b.ReadFloatBE(4) != -2.25 {
			t.Errorf("%s: float32 mismatch", name)
		}
		if b.ReadDoubleLE(8) != math.Pi || b.ReadDoubleBE(16) != -math.E {
			t.Errorf("%s: float64 mismatch", name)
		}
	}
}

func TestNaNPreserved(t *testing.T) {
	f := factories["typed"]
	b := f.New(8)
	b.WriteDoubleLE(math.NaN(), 0)
	if !math.IsNaN(b.ReadDoubleLE(0)) {
		t.Error("NaN not preserved")
	}
}

func TestRangeErrors(t *testing.T) {
	for name, f := range factories {
		b := f.New(4)
		for _, fn := range []func(){
			func() { b.ReadUInt32LE(1) },
			func() { b.ReadUInt8(4) },
			func() { b.WriteUInt16LE(0, 3) },
			func() { b.ReadInt8(-1) },
		} {
			func() {
				defer func() {
					if _, ok := recover().(*RangeError); !ok {
						t.Errorf("%s: expected RangeError panic", name)
					}
				}()
				fn()
			}()
		}
	}
}

func TestStoresAgree(t *testing.T) {
	typed, number := factories["typed"], factories["number"]
	f := func(data []byte) bool {
		a := typed.FromBytes(data)
		b := number.FromBytes(data)
		return bytes.Equal(a.Bytes(), b.Bytes())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCopyAndSliceAndFill(t *testing.T) {
	f := factories["typed"]
	src := f.FromBytes([]byte{1, 2, 3, 4, 5})
	dst := f.New(4)
	if n := src.Copy(dst, 1, 1, 4); n != 3 {
		t.Errorf("Copy = %d, want 3", n)
	}
	if !bytes.Equal(dst.Bytes(), []byte{0, 2, 3, 4}) {
		t.Errorf("dst = %v", dst.Bytes())
	}
	sl := src.Slice(1, 3)
	if !bytes.Equal(sl.Bytes(), []byte{2, 3}) {
		t.Errorf("Slice = %v", sl.Bytes())
	}
	// Slice is a copy: mutating it must not affect the source.
	sl.WriteUInt8(99, 0)
	if src.ReadUInt8(1) != 2 {
		t.Error("Slice aliases source")
	}
	src.Fill(7, 0, 2)
	if !bytes.Equal(src.Bytes(), []byte{7, 7, 3, 4, 5}) {
		t.Errorf("Fill = %v", src.Bytes())
	}
	// Copy truncates at destination end.
	if n := src.Copy(dst, 3, 0, 5); n != 1 {
		t.Errorf("truncated Copy = %d, want 1", n)
	}
}

func TestStringCodecsRoundTrip(t *testing.T) {
	data := []byte{0, 1, 2, 127, 128, 200, 255, 66}
	for name, f := range factories {
		for _, enc := range []string{Latin1, Base64, Hex, Packed} {
			b := f.FromBytes(data)
			s, err := b.ToString(enc, 0, b.Len())
			if err != nil {
				t.Fatalf("%s/%s: ToString: %v", name, enc, err)
			}
			back, err := f.FromString(s, enc)
			if err != nil {
				t.Fatalf("%s/%s: FromString: %v", name, enc, err)
			}
			if !bytes.Equal(back.Bytes(), data) {
				t.Errorf("%s/%s: round trip = %v, want %v", name, enc, back.Bytes(), data)
			}
		}
	}
}

func TestPackedRoundTripProperty(t *testing.T) {
	for name, f := range factories {
		prop := func(data []byte) bool {
			s := f.Pack(data)
			back, err := f.Unpack(s)
			return err == nil && bytes.Equal(back, data)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPackedLenMatchesUnpack(t *testing.T) {
	for name, f := range factories {
		packed := func(data []byte) bool {
			n, err := PackedLen(f.Pack(data))
			return err == nil && n == len(data)
		}
		if err := quick.Check(packed, nil); err != nil {
			t.Errorf("%s: packed: %v", name, err)
		}
		// Arbitrary strings, corrupt ones included: a header byte
		// (or none) followed by random, often malformed, WTF-8.
		arbitrary := func(head uint8, rest []byte) bool {
			s := string(rest)
			if head%5 != 0 {
				s = string("SDdX"[head%4]) + s
			}
			n, err := PackedLen(s)
			data, uerr := f.Unpack(s)
			if uerr != nil {
				return err != nil && n == 0
			}
			return err == nil && n == len(data)
		}
		if err := quick.Check(arbitrary, nil); err != nil {
			t.Errorf("%s: arbitrary: %v", name, err)
		}
	}
	for _, s := range []string{"", "d", "D", "S", "X", "\xed\xa0\x80"} {
		n, err := PackedLen(s)
		data, uerr := factories["typed"].Unpack(s)
		if (err == nil) != (uerr == nil) || n != len(data) {
			t.Errorf("PackedLen(%q) = %d, %v; unpack gives %d bytes, %v", s, n, err, len(data), uerr)
		}
	}
}

func TestPackedDensity(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	loose := factories["typed"] // no validity checks: 2 bytes/char
	strict := factories["typed-validating"]
	looseLen := lenUnits(loose.Pack(data))
	strictLen := lenUnits(strict.Pack(data))
	if looseLen != 501 { // 500 packed units + header
		t.Errorf("2B/char packing used %d units, want 501", looseLen)
	}
	if strictLen != 1001 { // 1000 single-byte units + header
		t.Errorf("1B/char packing used %d units, want 1001", strictLen)
	}
}

func lenUnits(s string) int {
	n := 0
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c < 0x80:
			i++
		case c < 0xE0:
			i += 2
		case c < 0xF0:
			i += 3
		default:
			i += 4
			n++ // pair
		}
		n++
	}
	return n
}

func TestPackedOddLength(t *testing.T) {
	f := factories["typed"]
	for _, n := range []int{0, 1, 2, 3, 255, 256, 257} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(255 - i)
		}
		s := f.Pack(data)
		back, err := f.Unpack(s)
		if err != nil || !bytes.Equal(back, data) {
			t.Errorf("n=%d: unpack = %v, %v", n, back, err)
		}
	}
}

func TestUnpackErrors(t *testing.T) {
	f := factories["typed"]
	for _, bad := range []string{"", "X123", "d"} {
		if _, err := f.Unpack(bad); err == nil {
			t.Errorf("unpack(%q) succeeded", bad)
		}
	}
}

func TestUTF16LECodec(t *testing.T) {
	f := factories["typed"]
	b, err := f.FromString("AB", UTF16LE)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), []byte{0x41, 0, 0x42, 0}) {
		t.Errorf("utf16le bytes = %v", b.Bytes())
	}
	s, err := b.ToString(UCS2, 0, 4)
	if err != nil || s != "AB" {
		t.Errorf("ucs2 ToString = %q, %v", s, err)
	}
}

func TestASCIICodecMasksHighBit(t *testing.T) {
	f := factories["typed"]
	b := f.FromBytes([]byte{0xC1}) // 0x41 | 0x80
	s, err := b.ToString(ASCII, 0, 1)
	if err != nil || s != "A" {
		t.Errorf("ascii ToString = %q, %v", s, err)
	}
}

func TestUnknownEncoding(t *testing.T) {
	f := factories["typed"]
	b := f.New(1)
	if _, err := b.ToString("klingon", 0, 1); err == nil {
		t.Error("unknown encoding accepted")
	}
	if _, err := f.FromString("x", "klingon"); err == nil {
		t.Error("unknown encoding accepted")
	}
}

func TestWriteStringTruncates(t *testing.T) {
	f := factories["typed"]
	b := f.New(3)
	n, err := b.WriteString("hello", 1, UTF8)
	if err != nil || n != 2 {
		t.Errorf("WriteString = %d, %v; want 2", n, err)
	}
	if !bytes.Equal(b.Bytes(), []byte{0, 'h', 'e'}) {
		t.Errorf("bytes = %v", b.Bytes())
	}
}

func TestAllocHook(t *testing.T) {
	var total int
	f := &Factory{Typed: true, OnTypedAlloc: func(n int) { total += n }}
	f.New(100)
	f.FromBytes(make([]byte, 50))
	if total != 150 {
		t.Errorf("alloc hook saw %d bytes, want 150", total)
	}
	// Number-array factories never report typed allocations.
	g := &Factory{Typed: false, OnTypedAlloc: func(n int) { t.Error("number store reported typed alloc") }}
	g.New(10)
}

func BenchmarkTypedStoreU32(b *testing.B) {
	f := &Factory{Typed: true}
	buf := f.New(4096)
	for i := 0; i < b.N; i++ {
		off := (i * 4) % 4092
		buf.WriteUInt32LE(uint32(i), off)
		if buf.ReadUInt32LE(off) != uint32(i) {
			b.Fatal("mismatch")
		}
	}
}

func BenchmarkNumberStoreU32(b *testing.B) {
	f := &Factory{Typed: false}
	buf := f.New(4096)
	for i := 0; i < b.N; i++ {
		off := (i * 4) % 4092
		buf.WriteUInt32LE(uint32(i), off)
		if buf.ReadUInt32LE(off) != uint32(i) {
			b.Fatal("mismatch")
		}
	}
}
