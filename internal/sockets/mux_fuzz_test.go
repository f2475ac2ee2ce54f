package sockets

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"doppio/internal/vfs"
)

// muxTestFrames records the frames both ends of a directly wired pair
// send while one stream echoes a short message and a second is reset —
// a SYN, SYN-ACK, DATA, CREDIT, FIN and RST as the mux really emits
// them.
func muxTestFrames(t testing.TB) [][]byte {
	var cl, sv *Mux
	var mu sync.Mutex
	var frames [][]byte
	record := func(to **Mux) func(hdr, payload []byte) error {
		return func(hdr, payload []byte) error {
			frame := append(append([]byte{}, hdr...), payload...)
			mu.Lock()
			frames = append(frames, frame)
			mu.Unlock()
			(*to).HandleFrame(frame)
			return nil
		}
	}
	sv = NewMux(MuxConfig{
		Window: 64,
		AcceptStream: func(st *MuxStream) {
			st.Accept()
			go func() {
				buf := make([]byte, 64)
				for {
					n, err := st.ReadBlocking(buf)
					if err != nil {
						st.Close()
						return
					}
					st.WriteBlocking(buf[:n])
				}
			}()
		},
		Send: record(&cl),
	})
	cl = NewMux(MuxConfig{Window: 64, Send: record(&sv)})
	defer cl.CloseSession(nil)
	defer sv.CloseSession(nil)

	st, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	msg := streamPattern(1, 100) // past the 64-byte window: draws CREDIT
	if err := st.WriteBlocking(msg); err != nil {
		t.Fatal(err)
	}
	st.Close()
	buf := make([]byte, len(msg))
	for n := 0; n < len(msg); {
		k, err := st.ReadBlocking(buf[n:])
		if err != nil {
			t.Fatal(err)
		}
		n += k
	}
	reset, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := reset.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	reset.Reset(vfs.ECONNRESET)
	// The writers hand frames over asynchronously; let the tail land.
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	return append([][]byte(nil), frames...)
}

// splitMuxFrames cuts fuzz input into frames by their declared dlen;
// the last frame takes whatever is left, so it may be short or long.
func splitMuxFrames(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 && len(out) < 64 {
		n := len(b)
		if n >= MuxHeaderLen {
			if d := uint64(binary.BigEndian.Uint32(b[9:13])); MuxHeaderLen+d < uint64(n) {
				n = MuxHeaderLen + int(d)
			}
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

// FuzzMuxHandleFrame feeds arbitrary frame sequences to a server-side
// session that already holds two open streams with data in both
// directions. No input may panic or hang, and a frame may change only
// the stream it names — or fail the whole session: every other stream
// must come out of it untouched.
//
//	go test ./internal/sockets -run '^$' -fuzz FuzzMuxHandleFrame -fuzztime 20s
func FuzzMuxHandleFrame(f *testing.F) {
	frames := muxTestFrames(f)
	var all []byte
	for _, fr := range frames {
		f.Add(fr)
		all = append(all, fr...)
	}
	f.Add(all)
	f.Add([]byte{0, 0, 0, 7})                                                      // short header
	f.Add(append(muxHeader(7, muxData, 99, 3), "abc"...))                          // offset gap
	f.Add(append(muxHeader(7, muxData, 5, 9), "abc"...))                           // dlen mismatch
	f.Add(muxHeader(8, 0x3, 0, 0))                                                 // unassigned kind
	f.Add(append(muxHeader(10, muxSyn, 1<<31, 0), muxHeader(10, muxFin, 0, 0)...)) // open, then FIN

	f.Fuzz(func(t *testing.T, in []byte) {
		open := map[uint32]*MuxStream{}
		m := NewMux(MuxConfig{
			Window:     256,
			MaxStreams: 8,
			Send:       func(hdr, payload []byte) error { return nil },
			AcceptStream: func(st *MuxStream) {
				if st.ID()%3 == 0 {
					st.Reject(vfs.EAGAIN)
					return
				}
				st.Accept()
				open[st.ID()] = st
			},
		})
		defer m.CloseSession(nil)
		// Streams 7 and 8: 7 holds unread data, 8 has bytes queued
		// past its send window.
		m.HandleFrame(muxHeader(7, muxSyn, 256, 0))
		m.HandleFrame(muxHeader(8, muxSyn, 256, 0))
		m.HandleFrame(append(muxHeader(7, muxData, 0, 5), "hello"...))
		if open[8] == nil {
			t.Fatal("setup stream 8 was not accepted")
		}
		open[8].Write(make([]byte, 300), nil)

		for _, frame := range splitMuxFrames(in) {
			before := streamStates(m)
			done := make(chan struct{})
			go func() {
				defer close(done)
				m.HandleFrame(frame)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("HandleFrame hung on %x", frame)
			}
			if m.Dead() {
				return
			}
			id := uint32(0)
			if len(frame) >= 4 {
				id = binary.BigEndian.Uint32(frame)
			}
			after := streamStates(m)
			for sid, was := range before {
				if sid == id {
					continue
				}
				if now, ok := after[sid]; !ok || now != was {
					t.Fatalf("frame %x for stream %d changed stream %d: %+v -> %+v (present %v)",
						frame, id, sid, was, now, ok)
				}
			}
		}
	})
}

func streamStates(m *Mux) map[uint32]StreamSnapshot {
	out := map[uint32]StreamSnapshot{}
	for _, st := range m.Snapshot().Streams {
		out[st.ID] = st
	}
	return out
}
