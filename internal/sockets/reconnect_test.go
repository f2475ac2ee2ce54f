package sockets

import (
	"bytes"
	"net"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// fastPolicy keeps reconnect tests quick and deterministic.
func fastPolicy(attempts int) retry.Policy {
	return retry.Policy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Multiplier: 2}
}

func TestDialErrorRefused(t *testing.T) {
	// Grab a port nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	w := browser.NewWindow(browser.Chrome28)
	var gotErr error
	w.Loop.Post("main", func() {
		ws := DialWebSocket(w, addr)
		ws.OnError = func(err error) { gotErr = err }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !IsRefused(gotErr) {
		t.Errorf("dial to closed port: err = %v, want refused DialError", gotErr)
	}
}

func TestDialErrorDroppedDuringHandshake(t *testing.T) {
	// A listener that accepts and immediately hangs up: the TCP dial
	// succeeds, so the failure must classify as dropped, not refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	w := browser.NewWindow(browser.Chrome28)
	var gotErr error
	w.Loop.Post("main", func() {
		ws := DialWebSocket(w, ln.Addr().String())
		ws.OnError = func(err error) { gotErr = err }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("handshake against hang-up listener succeeded")
	}
	if IsRefused(gotErr) {
		t.Errorf("mid-handshake hang-up classified as refused: %v", gotErr)
	}
}

// TestReconnectAfterReset drives the full outage cycle: the proxy is
// armed to reset the bridge on the first data frame, the client loses
// the connection, redials with backoff, and completes the exchange on
// a clean second connection.
func TestReconnectAfterReset(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	proxy, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// Every frame commits and then resets the bridge (ErrPost).
	proxy.SetFaults(faultfs.Plan{Seed: 1, ErrRate: 1, PostFrac: 1})

	w := browser.NewWindow(browser.Chrome28)
	var got []byte
	downs := 0
	var r *ReconnectingWS
	w.Loop.Post("main", func() {
		r = NewReconnectingWS(w, proxy.Addr(), ReconnectOptions{Policy: fastPolicy(6)})
		r.OnOpen = func(reconnected bool) {
			if !reconnected {
				if err := r.Send([]byte("first")); err != nil {
					t.Errorf("Send on first open: %v", err)
				}
				return
			}
			// Second connection: heal the proxy and retry the exchange.
			if err := r.Send([]byte("second")); err != nil {
				t.Errorf("Send on reconnect: %v", err)
			}
		}
		r.OnDown = func(error) {
			downs++
			proxy.SetFaults(faultfs.Plan{}) // future connections are clean
		}
		r.OnMessage = func(data []byte) {
			// ErrPost forwards "first" before resetting the bridge, so
			// its echo may beat the reset back; only the reconnected
			// connection's reply counts.
			if r.Stats().Reconnects == 0 {
				return
			}
			got = data
			r.Close()
		}
		r.OnGiveUp = func(err error) { t.Errorf("gave up: %v", err) }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Errorf("echo after reconnect = %q", got)
	}
	if downs == 0 {
		t.Error("connection was never lost despite reset injection")
	}
	st := r.Stats()
	if st.Reconnects < 1 || st.Dials < 2 || st.Opens < 2 {
		t.Errorf("stats = %+v, want ≥1 reconnect over ≥2 dials", st)
	}
}

func TestReconnectGiveUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: every dial is refused

	w := browser.NewWindow(browser.Chrome28)
	var gaveUp error
	var r *ReconnectingWS
	w.Loop.Post("main", func() {
		r = NewReconnectingWS(w, addr, ReconnectOptions{Policy: fastPolicy(3)})
		r.OnGiveUp = func(err error) { gaveUp = err }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if gaveUp == nil {
		t.Fatal("redial budget never exhausted")
	}
	if !IsRefused(gaveUp) {
		t.Errorf("give-up error = %v, want refused DialError", gaveUp)
	}
	st := r.Stats()
	if st.Dials != 3 || st.GaveUp != 1 || st.BackoffNanos <= 0 {
		t.Errorf("stats = %+v, want 3 dials, 1 give-up, nonzero backoff", st)
	}
}

// startDeafServer accepts WebSocket connections and then ignores every
// frame — including pings — modelling a half-dead peer that only a
// heartbeat timeout can detect.
func startDeafServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, br, err := ServerHandshake(c)
				if err != nil {
					return
				}
				for {
					if _, err := ReadFrame(br); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func TestHeartbeatTimeoutDetectsDeadPeer(t *testing.T) {
	addr, stop := startDeafServer(t)
	defer stop()

	w := browser.NewWindow(browser.Chrome28)
	var r *ReconnectingWS
	w.Loop.Post("main", func() {
		r = NewReconnectingWS(w, addr, ReconnectOptions{
			Policy:            fastPolicy(2),
			HeartbeatInterval: 10 * time.Millisecond,
			HeartbeatTimeout:  10 * time.Millisecond,
		})
		r.OnDown = func(error) { r.Close() } // one detection is enough
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Heartbeats < 1 || st.HeartbeatTimeouts < 1 {
		t.Errorf("stats = %+v, want ≥1 heartbeat and ≥1 timeout", st)
	}
}

func TestHeartbeatPongKeepsConnectionAlive(t *testing.T) {
	// The echo path answers pings (Websockify pongs them itself), so a
	// heartbeating client must see pongs, not timeouts.
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	proxy, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	w := browser.NewWindow(browser.Chrome28)
	var r *ReconnectingWS
	w.Loop.Post("main", func() {
		r = NewReconnectingWS(w, proxy.Addr(), ReconnectOptions{
			Policy:            fastPolicy(2),
			HeartbeatInterval: 10 * time.Millisecond,
			HeartbeatTimeout:  200 * time.Millisecond,
		})
		r.OnOpen = func(bool) {
			// Let a few heartbeat cycles run, then shut down.
			w.Loop.SetTimeout(func() { r.Close() }, 60*time.Millisecond)
		}
		r.OnDown = func(err error) { t.Errorf("connection dropped: %v", err) }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Heartbeats < 2 {
		t.Errorf("heartbeats = %d, want ≥2", st.Heartbeats)
	}
	if st.HeartbeatTimeouts != 0 {
		t.Errorf("heartbeat timeouts = %d on a live path", st.HeartbeatTimeouts)
	}
}

func TestWebsockifyShortFrameTruncates(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	proxy, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetFaults(faultfs.Plan{Seed: 7, ShortRate: 1})

	sent := []byte("twelve bytes")
	w := browser.NewWindow(browser.Chrome28)
	var got []byte
	w.Loop.Post("main", func() {
		ws := DialWebSocket(w, proxy.Addr())
		ws.OnOpen = func() { ws.Send(sent) }
		ws.OnMessage = func(data []byte) {
			got = data
			ws.Close()
		}
		ws.OnError = func(err error) { t.Errorf("ws error: %v", err) }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(sent) {
		t.Fatalf("truncated echo length = %d, want in (0, %d)", len(got), len(sent))
	}
	if !bytes.HasPrefix(sent, got) {
		t.Errorf("truncated echo %q is not a prefix of %q", got, sent)
	}
	fs := proxy.FaultStats()
	if fs.Shorts < 1 {
		t.Errorf("fault stats = %+v, want ≥1 short", fs)
	}
}

func TestWebsockifyFrameDropIsSilent(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	proxy, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// Every frame is dropped pre-commit: the message never reaches the
	// echo server and no reply ever comes back.
	proxy.SetFaults(faultfs.Plan{Seed: 3, ErrRate: 1})

	w := browser.NewWindow(browser.Chrome28)
	got := false
	w.Loop.Post("main", func() {
		ws := DialWebSocket(w, proxy.Addr())
		ws.OnOpen = func() {
			ws.Send([]byte("into the void"))
			// The drop is silent, so only a deadline ends the wait.
			w.Loop.SetTimeout(func() { ws.Close() }, 50*time.Millisecond)
		}
		ws.OnMessage = func([]byte) { got = true }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("message delivered despite 100% drop rate")
	}
	if fs := proxy.FaultStats(); fs.ErrsPre < 1 {
		t.Errorf("fault stats = %+v, want ≥1 pre-commit drop", fs)
	}
}
