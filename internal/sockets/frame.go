// Package sockets implements Doppio's TCP socket support (§5.3).
//
// Browsers only expose outgoing WebSocket connections, so Doppio
// emulates a Unix socket API for client programs in terms of
// WebSockets, while the freely-available Websockify program bridges
// the server side, translating incoming WebSocket connections into
// normal TCP connections for unmodified native servers.
//
// This package contains all three pieces: RFC 6455 framing and
// handshakes (over real TCP via the net package), the asynchronous
// browser-side WebSocket client API delivering events on the event
// loop, and a Websockify proxy.
package sockets

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// Opcode is a WebSocket frame opcode.
type Opcode byte

// The RFC 6455 opcodes used here.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// Frame is one WebSocket data frame.
type Frame struct {
	Fin     bool
	Op      Opcode
	Masked  bool
	MaskKey [4]byte
	Payload []byte
}

// ErrFrameTooLarge guards against absurd frame lengths.
var ErrFrameTooLarge = fmt.Errorf("sockets: frame exceeds maximum size")

// ErrBadFrame reports a header RFC 6455 §5.2 forbids: a reserved bit
// set with no extension negotiated, or a length not in its shortest
// encoding.
var ErrBadFrame = fmt.Errorf("sockets: malformed frame header")

const maxFramePayload = 64 << 20

// eagerPayload is the longest payload ReadFrame allocates in full on
// the header's word alone; every frame the mux sends fits (a DATA
// frame carries at most maxDataChunk, 16 KiB). A longer payload's
// buffer grows only as its bytes arrive, so a header that claims
// 64 MiB and sends none costs nothing.
const eagerPayload = 64 << 10

// WriteFrame encodes f to w. Client-to-server frames must be masked.
func WriteFrame(w io.Writer, f *Frame) error {
	b0 := byte(f.Op)
	if f.Fin {
		b0 |= 0x80
	}
	header := []byte{b0, 0}
	n := len(f.Payload)
	switch {
	case n <= 125:
		header[1] = byte(n)
	case n <= 0xFFFF:
		header[1] = 126
		var ext [2]byte
		binary.BigEndian.PutUint16(ext[:], uint16(n))
		header = append(header, ext[:]...)
	default:
		header[1] = 127
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(n))
		header = append(header, ext[:]...)
	}
	if f.Masked {
		header[1] |= 0x80
		header = append(header, f.MaskKey[:]...)
	}
	if _, err := w.Write(header); err != nil {
		return err
	}
	payload := f.Payload
	if f.Masked {
		payload = make([]byte, n)
		for i, c := range f.Payload {
			payload[i] = c ^ f.MaskKey[i%4]
		}
	}
	_, err := w.Write(payload)
	return err
}

// appendFrameHeader appends the wire header for an unmasked frame of
// n payload bytes.
func appendFrameHeader(dst []byte, op Opcode, n int) []byte {
	dst = append(dst, 0x80|byte(op))
	switch {
	case n <= 125:
		dst = append(dst, byte(n))
	case n <= 0xFFFF:
		dst = append(dst, 126, byte(n>>8), byte(n))
	default:
		dst = append(dst, 127)
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(n))
		dst = append(dst, ext[:]...)
	}
	return dst
}

// WriteBinaryFrame writes one unmasked FIN binary frame whose payload
// is the concatenation of parts, in a single writev (net.Buffers) when
// w is a net.Conn — the gateway's zero-copy hot path. The parts are
// never copied or concatenated: the mux layer passes its 13-byte
// header and the stream's send-queue slice straight through to the
// kernel. Unmasked client frames deviate from RFC 6455 §5.2 by
// design; both ends are ours and masking would force a payload copy
// per frame (see WriteFrame), defeating the zero-copy path.
func WriteBinaryFrame(w io.Writer, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	bufs := make(net.Buffers, 0, len(parts)+1)
	bufs = append(bufs, appendFrameHeader(make([]byte, 0, 10), OpBinary, n))
	for _, p := range parts {
		if len(p) > 0 {
			bufs = append(bufs, p)
		}
	}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame decodes one frame from r, unmasking the payload. A
// decoded frame re-encodes with WriteFrame to the bytes it was read
// from.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0]&0x70 != 0 {
		return nil, ErrBadFrame
	}
	f := &Frame{
		Fin:    hdr[0]&0x80 != 0,
		Op:     Opcode(hdr[0] & 0x0F),
		Masked: hdr[1]&0x80 != 0,
	}
	n := uint64(hdr[1] & 0x7F)
	switch n {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return nil, err
		}
		n = uint64(binary.BigEndian.Uint16(ext[:]))
		if n <= 125 {
			return nil, ErrBadFrame
		}
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return nil, err
		}
		n = binary.BigEndian.Uint64(ext[:])
		if n <= 0xFFFF {
			return nil, ErrBadFrame
		}
	}
	if n > maxFramePayload {
		return nil, ErrFrameTooLarge
	}
	if f.Masked {
		if _, err := io.ReadFull(r, f.MaskKey[:]); err != nil {
			return nil, err
		}
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return nil, err
	}
	f.Payload = payload
	if f.Masked {
		for i := range f.Payload {
			f.Payload[i] ^= f.MaskKey[i%4]
		}
	}
	return f, nil
}

// readPayload reads an n-byte payload. Its buffer starts at n bytes or
// eagerPayload, whichever is less, and doubles only when full, so the
// memory it takes stays within twice the bytes that arrived.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, eagerPayload))
	got := 0
	for {
		m, err := io.ReadFull(r, buf[got:])
		got += m
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*len(buf)))
		copy(grown, buf)
		buf = grown
	}
}
