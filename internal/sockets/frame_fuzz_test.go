package sockets

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// frameSeeds encodes frames as both writers emit them: WriteFrame's
// masked and unmasked text, binary, control and continuation frames at
// each length encoding, and WriteBinaryFrame's header-plus-chunk DATA
// frames, one past the eager-allocation bound.
func frameSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, f := range []*Frame{
		{Fin: true, Op: OpText, Payload: []byte("hello")},
		{Fin: true, Op: OpBinary, Masked: true, MaskKey: [4]byte{1, 2, 3, 4}, Payload: []byte("masked")},
		{Fin: false, Op: OpBinary, Payload: bytes.Repeat([]byte{7}, 126)},
		{Fin: true, Op: OpContinuation, Masked: true, MaskKey: [4]byte{9, 8, 7, 6}, Payload: bytes.Repeat([]byte{1}, 300)},
		{Fin: true, Op: OpPing, Payload: []byte("p")},
		{Fin: true, Op: OpClose},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	muxHdr := make([]byte, 13)
	for _, n := range []int{0, 100, maxDataChunk, eagerPayload + 1} {
		var buf bytes.Buffer
		if err := WriteBinaryFrame(&buf, muxHdr, bytes.Repeat([]byte{0xAB}, n)); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// claim64MiB is a header announcing a 64 MiB binary payload, followed
// by n payload bytes.
func claim64MiB(n int) []byte {
	hdr := []byte{0x80 | byte(OpBinary), 127, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint64(hdr[2:], maxFramePayload)
	return append(hdr, make([]byte, n)...)
}

// allocDuring reports the bytes the Go heap allocated while fn ran.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what decoding an input of n bytes may allocate: a
// full eager payload, plus a small multiple of the bytes that arrived.
func allocBound(n int) uint64 { return eagerPayload + 4*uint64(n) + 4096 }

// FuzzReadFrame feeds arbitrary bytes to the frame decoder the gateway
// reads every client frame with. No input may panic; decoding may
// allocate only in proportion to the bytes that arrived, whatever
// length the header claims; and a frame that decodes re-encodes with
// WriteFrame to exactly the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	for _, s := range frameSeeds(f) {
		f.Add(s)
	}
	f.Add(claim64MiB(3))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var fr *Frame
		var err error
		if grew := allocDuring(func() { fr, err = ReadFrame(r) }); grew > allocBound(len(data)) {
			t.Fatalf("decoding %d input bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatal(err)
		}
		if read := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), read) {
			t.Fatalf("frame read from % x re-encodes as % x", read, buf.Bytes())
		}
	})
}

// TestReadFrameLengthClaimAllocatesOnArrival sends headers claiming
// 64 MiB: a few payload bytes cost a few bytes, not the claim, and the
// short payload is an EOF.
func TestReadFrameLengthClaimAllocatesOnArrival(t *testing.T) {
	for _, n := range []int{0, 3, 100 << 10} {
		in := claim64MiB(n)
		var err error
		if grew := allocDuring(func() { _, err = ReadFrame(bytes.NewReader(in)) }); grew > allocBound(len(in)) {
			t.Errorf("%d payload bytes after a 64 MiB claim allocated %d bytes", n, grew)
		}
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Errorf("%d payload bytes after a 64 MiB claim: %v, want EOF", n, err)
		}
	}
}

// TestReadFrameRejectsMalformedHeaders pins the RFC 6455 §5.2 checks:
// reserved bits and lengths not in their shortest encoding.
func TestReadFrameRejectsMalformedHeaders(t *testing.T) {
	for name, in := range map[string][]byte{
		"rsv1":               {0x80 | 0x40 | byte(OpText), 1, 'x'},
		"16-bit length 5":    {0x80 | byte(OpText), 126, 0, 5, 'a', 'b', 'c', 'd', 'e'},
		"64-bit length 1000": append([]byte{0x80 | byte(OpBinary), 127, 0, 0, 0, 0, 0, 0, 0x03, 0xE8}, make([]byte, 1000)...),
	} {
		if _, err := ReadFrame(bytes.NewReader(in)); err != ErrBadFrame {
			t.Errorf("%s: %v, want ErrBadFrame", name, err)
		}
	}
}
