package sockets

import (
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/telemetry"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// TestStackLayerOrder pins the builder's enforced order — telemetry
// outermost, directly over the transport — independent of the order
// options are passed, mirroring vfs.Stack's contract.
func TestStackLayerOrder(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	hub := telemetry.NewHub()
	orders := [][]Option{
		{WithReconnect(fastPolicy(3)), WithTelemetry(hub)},
		{WithTelemetry(hub), WithReconnect(fastPolicy(3))},
	}
	for i, opts := range orders {
		w := browser.NewWindow(browser.Chrome28)
		var conn *Conn
		w.Loop.Post("main", func() {
			conn = Stack(w, gw.Addr(), opts...)
			defer conn.Close()

			// Outermost must be telemetry regardless of option order.
			tel, ok := conn.Link().(*TelLink)
			if !ok {
				t.Errorf("order %d: outermost layer is %T, want *TelLink", i, conn.Link())
				return
			}
			if _, ok := tel.Unwrap().(*rwsLink); !ok {
				t.Errorf("order %d: under telemetry is %T, want *rwsLink", i, tel.Unwrap())
			}
			// Find walks the chain from the top.
			if _, ok := Find[*TelLink](conn.Link()); !ok {
				t.Errorf("order %d: Find[*TelLink] failed", i)
			}
			if _, ok := Find[*rwsLink](conn.Link()); !ok {
				t.Errorf("order %d: Find[*rwsLink] failed", i)
			}
			if _, ok := Find[*wsLink](conn.Link()); ok {
				t.Errorf("order %d: Find[*wsLink] found a plain transport under a reconnecting one", i)
			}
		})
		if err := w.Loop.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStackHeartbeatImpliesReconnect pins the option dependency: a
// heartbeat needs somewhere to live, so WithHeartbeat pulls in the
// reconnecting transport with the default policy.
func TestStackHeartbeatImpliesReconnect(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	w := browser.NewWindow(browser.Chrome28)
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithHeartbeat(time.Minute))
		defer conn.Close()
		if _, ok := Find[*rwsLink](conn.Link()); !ok {
			t.Errorf("WithHeartbeat did not add the reconnecting transport (got %T)", conn.Link())
		}
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStackMuxEcho exercises the full option set together: reconnect
// policy, mux, window and telemetry, over one echo round trip through
// a gateway whose fault plan stalls the connection on half the frames.
func TestStackMuxEcho(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewGateway("127.0.0.1:0", echoAddr, GatewayOptions{
		Faults: faultfs.Plan{Seed: 3, LatencyRate: 0.5, Latency: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	hub := telemetry.NewHub()
	w := browser.NewWindow(browser.Chrome28)
	var got []byte
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(),
			WithReconnect(retry.Defaults()),
			WithMux(8),
			WithWindow(2048),
			WithTelemetry(hub),
		)
		conn.Dial(func(s *Socket, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			s.Write([]byte("stacked echo")).Then(func(_ interface{}, err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
			})
			var pump func()
			pump = func() {
				s.Read(64).Then(func(v interface{}, err error) {
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					data, _ := v.([]byte)
					got = append(got, data...)
					if len(got) < len("stacked echo") {
						pump()
						return
					}
					s.Close()
					conn.Close()
				})
			}
			pump()
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "stacked echo" {
		t.Fatalf("echo = %q", got)
	}
	// Telemetry flowed through every layer that was asked to report.
	for _, m := range []struct{ sub, name string }{
		{"sockstack", "frames_out"},
		{"sockmux", "streams"},
		{"sockretry", "dials"},
	} {
		if hub.Registry.Counter(m.sub, m.name).Value() == 0 {
			t.Errorf("%s/%s is zero", m.sub, m.name)
		}
	}
	if gw.FaultStats().Delays == 0 {
		t.Error("no stalls were injected")
	}
}
