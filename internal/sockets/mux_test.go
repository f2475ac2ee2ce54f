package sockets

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
)

// streamPattern builds the deterministic byte sequence stream i sends.
func streamPattern(i, n int) []byte {
	out := make([]byte, n)
	for j := range out {
		out[j] = byte(i*31 + j*7 + 3)
	}
	return out
}

// echoOverStack dials len(got) sockets through conn (from the loop
// thread), writes each stream's pattern in chunkSize pieces and reads
// the echo back into got. A failed stream keeps the bytes it received
// and records its first error in errs. allDone runs once every stream
// has its full transcript or an error.
func echoOverStack(conn *Conn, got [][]byte, errs []error, total, chunkSize int, allDone func()) {
	nStreams := len(got)
	done := 0
	finish := func(i int, err error) {
		if errs[i] == nil {
			errs[i] = err
		}
		done++
		if done == nStreams {
			allDone()
		}
	}
	for i := 0; i < nStreams; i++ {
		i := i
		want := streamPattern(i, total)
		conn.Dial(func(s *Socket, err error) {
			if err != nil {
				finish(i, err)
				return
			}
			for off := 0; off < total; off += chunkSize {
				s.Write(want[off:min(off+chunkSize, total)]).Then(func(_ interface{}, err error) {
					if err != nil && errs[i] == nil {
						errs[i] = err
					}
				})
			}
			var pump func()
			pump = func() {
				s.Read(4096).Then(func(v interface{}, err error) {
					if err != nil {
						finish(i, err)
						return
					}
					data, _ := v.([]byte)
					got[i] = append(got[i], data...)
					if len(got[i]) < total {
						pump()
						return
					}
					s.Close()
					finish(i, nil)
				})
			}
			pump()
		})
	}
}

// TestMuxEquivalence pins the gateway redesign's core claim: N
// logical streams multiplexed over one WebSocket are byte-identical
// to N plain one-connection-per-stream sockets. Under connection-level
// faults — the only kind TCP produces — a stream may fail instead, but
// only transiently and only after delivering a prefix of the same
// bytes, and a redial recovers.
func TestMuxEquivalence(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()

	const (
		nStreams = 6
		total    = 8 << 10
		chunk    = 512
	)

	// Reference arm: plain connections, no faults.
	plainGW, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer plainGW.Close()
	var plain [][]byte
	{
		w := browser.NewWindow(browser.Chrome28)
		conns := make([]*Conn, nStreams)
		w.Loop.Post("main", func() {
			// One plain Conn per stream (a plain Conn carries one Dial).
			results := make([][]byte, nStreams)
			finished := 0
			for i := 0; i < nStreams; i++ {
				i := i
				conns[i] = Stack(w, plainGW.Addr())
				want := streamPattern(i, total)
				conns[i].Dial(func(s *Socket, err error) {
					if err != nil {
						t.Errorf("plain %d: dial: %v", i, err)
						return
					}
					s.Write(want).Then(func(_ interface{}, err error) {
						if err != nil {
							t.Errorf("plain %d: write: %v", i, err)
						}
					})
					var pump func()
					pump = func() {
						s.Read(4096).Then(func(v interface{}, err error) {
							if err != nil {
								t.Errorf("plain %d: read: %v", i, err)
								return
							}
							data, _ := v.([]byte)
							results[i] = append(results[i], data...)
							if len(results[i]) < total {
								pump()
								return
							}
							s.Close()
							finished++
							if finished == nStreams {
								plain = results
							}
						})
					}
					pump()
				})
			}
		})
		if err := w.Loop.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if plain == nil {
		t.Fatal("plain arm did not finish")
	}

	t.Run("clean", func(t *testing.T) {
		muxGW, err := NewGateway("127.0.0.1:0", echoAddr, GatewayOptions{Window: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer muxGW.Close()

		w := browser.NewWindow(browser.Chrome28)
		got := make([][]byte, nStreams)
		errs := make([]error, nStreams)
		finished := false
		w.Loop.Post("main", func() {
			conn := Stack(w, muxGW.Addr(), WithMux(0), WithWindow(4<<10))
			echoOverStack(conn, got, errs, total, chunk, func() {
				finished = true
				conn.Close()
			})
		})
		if err := w.Loop.Run(); err != nil {
			t.Fatal(err)
		}
		if !finished {
			t.Fatal("mux arm did not finish")
		}
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("stream %d: %v", i, errs[i])
			}
			if !bytes.Equal(got[i], plain[i]) {
				t.Fatalf("stream %d: mux transcript (%d bytes) != plain transcript (%d bytes)",
					i, len(got[i]), len(plain[i]))
			}
		}
	})

	// The gateway resets, truncates mid-frame and stalls the connection
	// on any mux frame, control frames included, in both directions.
	t.Run("connfaults", func(t *testing.T) {
		muxGW, err := NewGateway("127.0.0.1:0", echoAddr, GatewayOptions{
			Window: 4 << 10,
			Faults: faultfs.Plan{Seed: 7, ErrRate: 0.004, PostFrac: 0.5, ShortRate: 0.002,
				LatencyRate: 0.05, Latency: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer muxGW.Close()

		const rounds, redialLen, maxRedials = 8, 64, 200
		w := browser.NewWindow(browser.Chrome28)
		got := make([][][]byte, rounds)
		errs := make([][]error, rounds)
		for r := range got {
			got[r], errs[r] = make([][]byte, nStreams), make([]error, nStreams)
		}
		var rws *ReconnectingWS
		redialed, redials := false, 0
		w.Loop.Post("main", func() {
			conn := Stack(w, muxGW.Addr(), WithMux(0), WithWindow(4<<10),
				WithReconnect(fastPolicy(50)))
			link, _ := Find[*rwsLink](conn.Link())
			rws = link.rws
			// After the echo rounds, echo a short message until one
			// completes over a session that a redial opened.
			var redial func()
			redial = func() {
				redials++
				one, oneErr := make([][]byte, 1), make([]error, 1)
				echoOverStack(conn, one, oneErr, redialLen, redialLen, func() {
					if oneErr[0] == nil && rws.Stats().Reconnects > 0 {
						if !bytes.Equal(one[0], streamPattern(0, redialLen)) {
							t.Errorf("redial echo corrupted: %x", one[0])
						}
						redialed = true
					}
					if redialed || redials == maxRedials {
						conn.Close()
						return
					}
					w.Loop.SetTimeout(redial, time.Millisecond)
				})
			}
			// Each round starts on a live session, so a round that
			// follows a reset waits for the redial instead of failing
			// against the dead one.
			var round func(r int)
			round = func(r int) {
				if m := conn.Mux(); m == nil || m.Dead() {
					if rws.Stats().GaveUp > 0 {
						t.Errorf("round %d: the reconnecting transport gave up", r)
						return
					}
					w.Loop.SetTimeout(func() { round(r) }, time.Millisecond)
					return
				}
				echoOverStack(conn, got[r], errs[r], total, chunk, func() {
					if r+1 < rounds {
						round(r + 1)
					} else {
						redial()
					}
				})
			}
			round(0)
		})
		if err := w.Loop.Run(); err != nil {
			t.Fatal(err)
		}
		fs := muxGW.FaultStats()
		if fs.ErrsPre+fs.ErrsPost+fs.Shorts == 0 {
			t.Fatal("fault plan enabled but no faults were injected")
		}
		completed := 0
		for r := range got {
			for i, b := range got[r] {
				err := errs[r][i]
				if err == nil {
					completed++
					if !bytes.Equal(b, plain[i]) {
						t.Errorf("round %d stream %d: completed transcript (%d bytes) != plain transcript (%d bytes)",
							r, i, len(b), len(plain[i]))
					}
					continue
				}
				if errno, ok := vfs.Classify(err); !ok || !errno.Transient() {
					t.Errorf("round %d stream %d: error %v is not transient", r, i, err)
				}
				if !bytes.HasPrefix(plain[i], b) {
					t.Errorf("round %d stream %d: failed after %d bytes that are not a prefix of the plain transcript",
						r, i, len(b))
				}
			}
		}
		if !redialed {
			t.Fatalf("no echo completed after a redial in %d tries (reconnect stats %+v, faults %+v)",
				redials, rws.Stats(), fs)
		}
		t.Logf("faults %+v; %d of %d streams completed; %d reconnects; %d redial echoes tried",
			fs, completed, rounds*nStreams, rws.Stats().Reconnects, redials)
	})
}

// wirePair builds two directly-wired mux endpoints: every frame one
// side sends is handed to the other's HandleFrame. accept configures
// the server side's AcceptStream handler.
func wirePair(window int, accept func(st *MuxStream)) (client, server *Mux) {
	var cl, sv *Mux
	sv = NewMux(MuxConfig{
		Window:       window,
		AcceptStream: accept,
		Send: func(hdr, payload []byte) error {
			cl.HandleFrame(append(append([]byte{}, hdr...), payload...))
			return nil
		},
	})
	cl = NewMux(MuxConfig{
		Window: window,
		Send: func(hdr, payload []byte) error {
			sv.HandleFrame(append(append([]byte{}, hdr...), payload...))
			return nil
		},
	})
	return cl, sv
}

// TestMuxZeroWindowBackpressure pins the flow-control contract: a
// writer that exhausts the peer's receive window parks until the
// reader drains and credit flows back.
func TestMuxZeroWindowBackpressure(t *testing.T) {
	const window = 1024
	acceptCh := make(chan *MuxStream, 1)
	client, server := wirePair(window, func(st *MuxStream) {
		st.Accept()
		acceptCh <- st
	})
	defer client.CloseSession(nil)
	defer server.CloseSession(nil)

	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	peer := <-acceptCh

	// First write fills the whole window: admitted immediately.
	first := make(chan error, 1)
	st.Write(streamPattern(1, window), func(err error) { first <- err })
	select {
	case err := <-first:
		if err != nil {
			t.Fatalf("window-filling write failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("window-filling write did not complete")
	}

	// Second write has zero window left: its completion must hold.
	var fired atomic.Bool
	second := make(chan error, 1)
	st.Write([]byte("overflow"), func(err error) {
		fired.Store(true)
		second <- err
	})
	time.Sleep(50 * time.Millisecond)
	if fired.Load() {
		t.Fatal("write completed with zero window — flow control is not engaging")
	}

	// Reader drains; credit flows back; the parked write resumes.
	buf := make([]byte, window)
	n := 0
	for n < window {
		k, err := peer.ReadBlocking(buf[n:])
		if err != nil {
			t.Fatalf("peer read: %v", err)
		}
		n += k
	}
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("resumed write failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write did not resume after credit returned")
	}
	if client.Stats().Credits+server.Stats().Credits == 0 {
		t.Error("no CREDIT frames recorded")
	}
}

// TestMuxPauseCreditSheds pins the gateway's backpressure lever:
// PauseCredit withholds grants (so a remote writer stalls) and
// ResumeCredit releases the accumulated credit in one batch.
func TestMuxPauseCreditSheds(t *testing.T) {
	const window = 1024
	acceptCh := make(chan *MuxStream, 1)
	client, server := wirePair(window, func(st *MuxStream) {
		st.Accept()
		acceptCh <- st
	})
	defer client.CloseSession(nil)
	defer server.CloseSession(nil)

	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	peer := <-acceptCh
	peer.PauseCredit()

	if err := st.WriteBlocking(streamPattern(2, window)); err != nil {
		t.Fatal(err)
	}
	// Drain while paused: no credit may flow.
	buf := make([]byte, window)
	n := 0
	for n < window {
		k, err := peer.ReadBlocking(buf[n:])
		if err != nil {
			t.Fatalf("peer read: %v", err)
		}
		n += k
	}
	var blocked atomic.Bool
	done := make(chan error, 1)
	st.Write([]byte("stalled"), func(err error) {
		blocked.Store(true)
		done <- err
	})
	time.Sleep(50 * time.Millisecond)
	if blocked.Load() {
		t.Fatal("write completed while credit was paused")
	}

	peer.ResumeCredit()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after resume failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write did not resume after ResumeCredit")
	}
}

// TestMuxShedStream pins load shedding end to end: a gateway whose
// depth probe reports overload refuses new streams with EAGAIN, which
// classifies transient (back off and redial).
func TestMuxShedStream(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	depth := atomic.Int64{}
	gw, err := NewGateway("127.0.0.1:0", echoAddr, GatewayOptions{
		ShedDepth:  4,
		QueueDepth: func() int { return int(depth.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	depth.Store(100) // hopelessly behind from the start

	// Give the overload sweep a tick to notice.
	time.Sleep(30 * time.Millisecond)

	w := browser.NewWindow(browser.Chrome28)
	var dialErr error
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithMux(0))
		conn.Dial(func(s *Socket, err error) {
			dialErr = err
			if s != nil {
				s.Close()
			}
			conn.Close()
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if dialErr == nil {
		t.Fatal("dial succeeded through an overloaded gateway")
	}
	if !IsShed(dialErr) {
		t.Fatalf("dial error = %v, want a shed (EAGAIN) StreamError", dialErr)
	}
	errno, ok := vfs.Classify(dialErr)
	if !ok || errno != vfs.EAGAIN || !errno.Transient() {
		t.Fatalf("Classify(%v) = %v, %v; want transient EAGAIN", dialErr, errno, ok)
	}
	if gw.Snapshot().Stats.Shed == 0 {
		t.Error("gateway shed counter is zero")
	}
}

// TestMuxErrorClassification pins satellite 3: gateway failures
// classify through vfs.Classify exactly like VFS errors.
func TestMuxErrorClassification(t *testing.T) {
	cases := []struct {
		err       error
		errno     vfs.Errno
		transient bool
	}{
		{&StreamError{StreamID: 1, Code: vfs.EAGAIN}, vfs.EAGAIN, true},
		{&StreamError{StreamID: 2, Code: vfs.ECONNRESET}, vfs.ECONNRESET, true},
		{&StreamError{StreamID: 3, Code: vfs.ECONNREFUSED}, vfs.ECONNREFUSED, false},
		{&StreamError{StreamID: 4, Code: vfs.EPROTO}, vfs.EPROTO, false},
		{&DialError{Addr: "x:1", Refused: true, Err: io.EOF}, vfs.ECONNREFUSED, false},
		{&DialError{Addr: "x:1", Refused: false, Err: io.EOF}, vfs.ECONNRESET, true},
	}
	for _, tc := range cases {
		errno, ok := vfs.Classify(tc.err)
		if !ok {
			t.Errorf("Classify(%v): not classified", tc.err)
			continue
		}
		if errno != tc.errno {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, errno, tc.errno)
		}
		if errno.Transient() != tc.transient {
			t.Errorf("%v: Transient() = %v, want %v", tc.err, errno.Transient(), tc.transient)
		}
	}
	// The RST code mapping round-trips.
	for _, e := range []vfs.Errno{vfs.EAGAIN, vfs.ECONNREFUSED, vfs.ECONNRESET, vfs.EPROTO} {
		if got := rstErrno(rstCode(e)); got != e {
			t.Errorf("rstErrno(rstCode(%v)) = %v", e, got)
		}
	}
}

// TestMuxRefusedTarget pins the ECONNREFUSED path: a gateway whose
// target is not listening refuses each stream with a final errno.
func TestMuxRefusedTarget(t *testing.T) {
	// A listener we immediately close gives us an address with
	// nothing behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	gw, err := NewWebsockify("127.0.0.1:0", deadAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	w := browser.NewWindow(browser.Chrome28)
	var dialErr error
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithMux(0))
		conn.Dial(func(s *Socket, err error) {
			dialErr = err
			conn.Close()
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	var se *StreamError
	if !errors.As(dialErr, &se) || se.Code != vfs.ECONNREFUSED {
		t.Fatalf("dial error = %v, want StreamError(ECONNREFUSED)", dialErr)
	}
}

// TestMuxHeartbeatConcurrentWriters pins write serialization on both
// ends of a mux session: heartbeat pings fire on the event loop while
// the mux session's writer goroutine sends data frames on the same
// WebSocket, and the gateway's reader answers those pings while its
// session writer streams data back. Before the conn writers were
// serialized, a ping or pong could land mid-data-frame (net.Conn.Write
// splits frames across syscalls under backpressure) and desync the WS
// framing layer; the client's transport handle was also read off-loop
// without synchronization, which -race trips on here.
func TestMuxHeartbeatConcurrentWriters(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	const (
		nStreams = 4
		total    = 16 << 10
		chunk    = 512
	)
	w := browser.NewWindow(browser.Chrome28)
	var rws *ReconnectingWS
	w.Loop.Post("main", func() {
		rws = NewReconnectingWS(w, gw.Addr(), ReconnectOptions{
			HeartbeatInterval: time.Millisecond,
			HeartbeatTimeout:  10 * time.Second, // never declare the conn dead mid-test
			Path:              MuxPath,
		})
		var m *Mux
		rws.OnMessage = func(data []byte) {
			if m != nil {
				m.HandleFrame(data)
			}
		}
		rws.OnOpen = func(bool) {
			// The small window keeps credit and data frames flowing for
			// the whole transfer, maximizing overlap with the pings.
			m = NewMux(MuxConfig{
				Window: 1 << 10,
				Send:   func(hdr, payload []byte) error { return rws.SendParts(hdr, payload) },
			})
			go func() {
				var wg sync.WaitGroup
				for i := 0; i < nStreams; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						st, err := m.Open()
						if err != nil {
							t.Errorf("stream %d: open: %v", i, err)
							return
						}
						if err := st.WaitOpen(); err != nil {
							t.Errorf("stream %d: wait open: %v", i, err)
							return
						}
						want := streamPattern(i, total)
						buf := make([]byte, 4096)
						// The transfer repeats until a heartbeat has fired:
						// one round can finish before the first ping, since
						// Chrome 28 clamps the 1 ms interval to 4 ms.
						deadline := time.Now().Add(10 * time.Second)
						for round := 0; ; round++ {
							go func() {
								// A write error means the stream died; the
								// reader below sees the same error and reports.
								for off := 0; off < total; off += chunk {
									if st.WriteBlocking(want[off:min(off+chunk, total)]) != nil {
										return
									}
								}
							}()
							got := make([]byte, 0, total)
							for len(got) < total {
								n, err := st.ReadBlocking(buf)
								if err != nil {
									t.Errorf("stream %d: round %d: read after %d bytes: %v", i, round, len(got), err)
									return
								}
								got = append(got, buf[:n]...)
							}
							if !bytes.Equal(got, want) {
								t.Errorf("stream %d: round %d: transcript corrupted", i, round)
								return
							}
							if rws.Stats().Heartbeats > 0 || time.Now().After(deadline) {
								break
							}
						}
					}(i)
				}
				wg.Wait()
				w.Loop.InvokeExternal("test-shutdown", func() {
					m.CloseSession(nil)
					rws.Close()
				})
			}()
		}
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	stats := rws.Stats()
	if stats.Heartbeats == 0 {
		t.Error("no heartbeats fired during the transfer — ping and mux writes never overlapped")
	}
	if stats.HeartbeatTimeouts != 0 {
		t.Errorf("%d heartbeat timeouts — pongs were lost or corrupted", stats.HeartbeatTimeouts)
	}
}

// TestMuxSynCollision pins the symmetric-API id-space guards: Open
// skips ids held by peer-opened streams, and a peer SYN colliding with
// a locally opened stream is rejected with RST(EPROTO) instead of
// being silently ignored.
func TestMuxSynCollision(t *testing.T) {
	acceptCh := make(chan *MuxStream, 4)
	var cl, sv *Mux
	sv = NewMux(MuxConfig{
		Window: 4 << 10,
		AcceptStream: func(st *MuxStream) {
			st.Accept()
			acceptCh <- st
		},
		Send: func(hdr, payload []byte) error {
			cl.HandleFrame(append(append([]byte{}, hdr...), payload...))
			return nil
		},
	})
	cl = NewMux(MuxConfig{
		Window: 4 << 10,
		AcceptStream: func(st *MuxStream) {
			st.Accept()
			acceptCh <- st
		},
		Send: func(hdr, payload []byte) error {
			sv.HandleFrame(append(append([]byte{}, hdr...), payload...))
			return nil
		},
	})
	defer cl.CloseSession(nil)
	defer sv.CloseSession(nil)

	// Client opens stream 1; once WaitOpen returns, the server has a
	// peer-opened stream 1 in its map.
	stC, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := stC.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	svRemote := <-acceptCh

	// The server now opens its own stream: it must skip id 1.
	stS, err := sv.Open()
	if err != nil {
		t.Fatal(err)
	}
	if stS.ID() == stC.ID() {
		t.Fatalf("server Open allocated id %d, colliding with the peer-opened stream", stS.ID())
	}
	if err := stS.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	<-acceptCh

	before := cl.StreamCount()
	// A buggy peer SYN colliding with the client's locally opened
	// stream 1 — injected directly, as if both sides allocated id 1.
	cl.HandleFrame(muxHeader(stC.ID(), muxSyn, 1024, 0))
	if got := cl.StreamCount(); got != before {
		t.Errorf("colliding SYN changed the stream map: %d -> %d streams", before, got)
	}
	// The RST(EPROTO) reply kills the sender's stream with a protocol
	// error, not a silent desync.
	buf := make([]byte, 8)
	if _, err := svRemote.ReadBlocking(buf); !vfs.IsErrno(err, vfs.EPROTO) {
		t.Fatalf("peer stream error after colliding SYN = %v, want EPROTO", err)
	}
}

// TestMuxDataViolationResetsStream pins the receiver's checks on
// network input: over an ordered transport a DATA frame starts at the
// next expected offset and carries exactly its declared length. Either
// violation resets that stream with EPROTO on both ends, and the
// session's other streams keep working.
func TestMuxDataViolationResetsStream(t *testing.T) {
	acceptCh := make(chan *MuxStream, 4)
	client, server := wirePair(4<<10, func(st *MuxStream) {
		st.Accept()
		acceptCh <- st
	})
	defer client.CloseSession(nil)
	defer server.CloseSession(nil)
	open := func() (*MuxStream, *MuxStream) {
		st, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WaitOpen(); err != nil {
			t.Fatal(err)
		}
		return st, <-acceptCh
	}

	buf := make([]byte, 64)
	for _, tc := range []struct {
		name  string
		frame func(id uint32) []byte
	}{
		{"offset gap", func(id uint32) []byte { return append(muxHeader(id, muxData, 99, 3), "abc"...) }},
		{"dlen mismatch", func(id uint32) []byte { return append(muxHeader(id, muxData, 0, 9), "abc"...) }},
	} {
		st, peer := open()
		server.HandleFrame(tc.frame(st.ID()))
		if _, err := peer.ReadBlocking(buf); !vfs.IsErrno(err, vfs.EPROTO) {
			t.Errorf("%s: receiving stream error = %v, want EPROTO", tc.name, err)
		}
		if _, err := st.ReadBlocking(buf); !vfs.IsErrno(err, vfs.EPROTO) {
			t.Errorf("%s: sending stream error = %v, want EPROTO from the RST", tc.name, err)
		}
	}

	st, peer := open()
	if err := st.WriteBlocking([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	n, err := peer.ReadBlocking(buf)
	if err != nil || string(buf[:n]) != "still here" {
		t.Fatalf("sibling stream read %q, %v", buf[:n], err)
	}
}

// TestGatewayCloseWaitsForConnections pins the teardown contract:
// Close tears down live connections (not just the listener) and waits
// for every per-connection handler to exit, so no serve goroutine is
// still mutating gateway state after it returns.
func TestGatewayCloseWaitsForConnections(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}

	// A raw mux client that completes the handshake and then idles —
	// its handler is parked in ReadFrame when Close runs.
	conn, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := ClientHandshake(conn, gw.Addr(), MuxPath); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for gw.Snapshot().MuxConns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gateway never registered the mux connection")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- gw.Close() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung with an idle live connection")
	}
	// Close waited for the handler, so its teardown bookkeeping is
	// complete — not merely in flight.
	if n := gw.Snapshot().MuxConns; n != 0 {
		t.Errorf("MuxConns = %d after Close returned, want 0", n)
	}
}

// TestGatewaySelfDepthNoDeadlock pins the standalone wiring from
// cmd/websockify: the gateway's own LiveStreams as its QueueDepth
// signal. LiveStreams takes the gateway mutex, so the overload ticker
// must sample the callback outside the lock — a regression here wedges
// Snapshot, Close, and /debug/sock on the first 5ms tick.
func TestGatewaySelfDepthNoDeadlock(t *testing.T) {
	var self atomic.Pointer[Websockify]
	gw, err := NewGateway("127.0.0.1:0", "127.0.0.1:1", GatewayOptions{
		ShedDepth: 4,
		QueueDepth: func() int {
			if p := self.Load(); p != nil {
				return p.LiveStreams()
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	self.Store(gw)
	defer gw.Close()

	time.Sleep(20 * time.Millisecond) // let the overload ticker fire
	done := make(chan GatewaySnapshot, 1)
	go func() { done <- gw.Snapshot() }()
	select {
	case snap := <-done:
		if snap.Paused {
			t.Fatalf("idle gateway reports paused: %+v", snap)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Snapshot deadlocked against the overload ticker")
	}
}
