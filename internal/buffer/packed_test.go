package buffer

import (
	"bytes"
	"math/rand"
	"testing"

	"doppio/internal/jsstring"
)

// refUnits is the UTF-16 unit sequence the packed format stores for b:
// a header unit, then one unit per byte ('S') or per byte pair ('D',
// and 'd' when the last byte is alone). The stored string is
// jsstring.Encode of it; Pack must produce exactly that string.
func refUnits(b []byte, validates bool) []uint16 {
	if validates {
		units := []uint16{'S'}
		for _, c := range b {
			units = append(units, uint16(c))
		}
		return units
	}
	units := []uint16{'D'}
	if len(b)%2 == 1 {
		units[0] = 'd'
	}
	for i := 0; i+1 < len(b); i += 2 {
		units = append(units, uint16(b[i])|uint16(b[i+1])<<8)
	}
	if len(b)%2 == 1 {
		units = append(units, uint16(b[len(b)-1]))
	}
	return units
}

// refUnpack is Unpack defined through jsstring.Decode: the oracle the
// direct decoder must agree with on every string, corrupt ones
// included.
func refUnpack(s string) ([]byte, error) {
	units := jsstring.Decode(s)
	if len(units) == 0 {
		return nil, ErrBadPackedString
	}
	switch units[0] {
	case 'S':
		out := make([]byte, 0, len(units)-1)
		for _, u := range units[1:] {
			out = append(out, byte(u))
		}
		return out, nil
	case 'D', 'd':
		body := units[1:]
		odd := units[0] == 'd'
		if odd && len(body) == 0 {
			return nil, ErrBadPackedString
		}
		var out []byte
		for i, u := range body {
			out = append(out, byte(u))
			if !odd || i < len(body)-1 {
				out = append(out, byte(u>>8))
			}
		}
		return out, nil
	}
	return nil, ErrBadPackedString
}

// pinInputs covers units that encode to 1, 2 and 3 bytes, lone and
// paired surrogates, and odd, even and empty lengths.
func pinInputs() map[string][]byte {
	in := map[string][]byte{
		"empty":         {},
		"one byte":      {0x41},
		"one high byte": {0xE9},
		"1-byte units":  {0x41, 0x00, 0x7F, 0x00},
		"2-byte units":  {0x80, 0x00, 0xFF, 0x07, 0x00, 0x01},
		"3-byte units":  {0x00, 0x08, 0xFF, 0xFF, 0x34, 0x12},
		"lone high":     {0x00, 0xD8, 0x41, 0x00},
		"lone low":      {0xFF, 0xDF},
		"paired":        {0x3D, 0xD8, 0x00, 0xDE},
		"odd tail 0x7F": {0x00, 0x08, 0x7F},
		"odd tail 0x80": {0x00, 0x08, 0x80},
	}
	every := make([]byte, 512)
	for i := range every {
		every[i] = byte(i)
	}
	in["every byte"] = every
	rng := rand.New(rand.NewSource(1))
	odd, even := make([]byte, 1023), make([]byte, 1024)
	rng.Read(odd)
	rng.Read(even)
	in["random odd"], in["random even"] = odd, even
	return in
}

// TestPackPinsStoredFormat pins the stored format: Pack writes the
// same string as jsstring.Encode of the packed unit sequence, so a
// store written before the direct codec reads back unchanged, and the
// binary, ascii and utf16le codecs agree with the unit definitions.
func TestPackPinsStoredFormat(t *testing.T) {
	for _, validates := range []bool{false, true} {
		f := &Factory{Typed: true, ValidatesStrings: validates}
		for name, b := range pinInputs() {
			want := jsstring.Encode(refUnits(b, validates))
			if got := f.Pack(b); got != want {
				t.Errorf("validates=%v %s: Pack = %q, want %q", validates, name, got, want)
			}
			back, err := f.Unpack(want)
			if err != nil || !bytes.Equal(back, b) {
				t.Errorf("validates=%v %s: Unpack(stored) = %v, %v", validates, name, back, err)
			}
		}
	}
	f := factories["typed"]
	for name, b := range pinInputs() {
		latin1 := make([]uint16, len(b))
		ascii := make([]uint16, len(b))
		for i, c := range b {
			latin1[i], ascii[i] = uint16(c), uint16(c&0x7F)
		}
		utf16 := make([]uint16, len(b)/2)
		for i := range utf16 {
			utf16[i] = uint16(b[2*i]) | uint16(b[2*i+1])<<8
		}
		for _, c := range []struct {
			enc   string
			units []uint16
		}{{Latin1, latin1}, {ASCII, ascii}, {UTF16LE, utf16}} {
			want := jsstring.Encode(c.units)
			if got, _ := f.encodeString(b, c.enc); got != want {
				t.Errorf("%s %s: encode = %q, want %q", c.enc, name, got, want)
			}
			wantBytes := make([]byte, 0, 2*len(c.units))
			for _, u := range c.units {
				wantBytes = append(wantBytes, byte(u))
				if c.enc == UTF16LE {
					wantBytes = append(wantBytes, byte(u>>8))
				}
			}
			if got, _ := f.decodeString(want, c.enc); !bytes.Equal(got, wantBytes) {
				t.Errorf("%s %s: decode = %v, want %v", c.enc, name, got, wantBytes)
			}
		}
	}
}

// FuzzUnpack feeds arbitrary strings to Unpack, as a corrupt store
// reopened after a reload would: no input may panic, the answer must
// equal the jsstring.Decode-based oracle's, and PackedLen must agree
// with it. The same bytes, packed, must unpack to themselves in both
// ValidatesStrings modes.
func FuzzUnpack(f *testing.F) {
	for _, b := range pinInputs() {
		f.Add(string(b))
		f.Add(factories["typed"].Pack(b))
		f.Add(factories["typed-validating"].Pack(b))
	}
	for _, s := range []string{"", "d", "D", "S", "X", "\xed\xa0\x80", "\xc1\x93ab", "\xe0\x81\x84\xf0\x9f\x98\x80", "d\xf0\x9f\x98\x80", "D\xf8\x88\x80\x80", "S\xe1\x80"} {
		f.Add(s)
	}
	loose, strict := factories["typed"], factories["typed-validating"]
	f.Fuzz(func(t *testing.T, s string) {
		got, err := loose.Unpack(s)
		want, werr := refUnpack(s)
		if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("Unpack(%q) = %v, %v; oracle %v, %v", s, got, err, want, werr)
		}
		if n, lerr := PackedLen(s); (lerr == nil) != (err == nil) || n != len(got) {
			t.Fatalf("PackedLen(%q) = %d, %v; Unpack gives %d bytes, %v", s, n, lerr, len(got), err)
		}
		b := []byte(s)
		for _, f := range []*Factory{loose, strict} {
			if back, err := f.Unpack(f.Pack(b)); err != nil || !bytes.Equal(back, b) {
				t.Fatalf("validates=%v: Unpack(Pack(%q)) = %q, %v", f.ValidatesStrings, b, back, err)
			}
		}
	})
}

// TestPackUnpackAllocateOnce pins one allocation per direction.
func TestPackUnpackAllocateOnce(t *testing.T) {
	data := randomBytes(64 << 10)
	for name, f := range factories {
		s := f.Pack(data)
		if n := testing.AllocsPerRun(10, func() { f.Pack(data) }); n != 1 {
			t.Errorf("%s: Pack allocates %v times, want 1", name, n)
		}
		if n := testing.AllocsPerRun(10, func() { f.Unpack(s) }); n != 1 {
			t.Errorf("%s: Unpack allocates %v times, want 1", name, n)
		}
	}
}

func randomBytes(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(64)).Read(b)
	return b
}

// BenchmarkPack64K packs a 64 KiB file of random bytes, the save
// files of the tab-fs workload, two bytes per character.
func BenchmarkPack64K(b *testing.B) {
	f, data := factories["typed"], randomBytes(64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Pack(data)
	}
}

// BenchmarkUnpack64K unpacks the string BenchmarkPack64K writes.
func BenchmarkUnpack64K(b *testing.B) {
	f, data := factories["typed"], randomBytes(64<<10)
	s := f.Pack(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Unpack(s); err != nil {
			b.Fatal(err)
		}
	}
}
