package sockets

import (
	"errors"
	"sync"
	"time"

	"doppio/internal/browser"
	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/telemetry"
	"doppio/internal/vfs/retry"
)

// ErrNotConnected reports a Send on a ReconnectingWS that is currently
// between connections.
var ErrNotConnected = errors.New("sockets: not connected")

// errHeartbeatTimeout is the cause recorded when a pong misses its
// deadline.
var errHeartbeatTimeout = errors.New("sockets: heartbeat timed out")

// ReconnectOptions configures NewReconnectingWS.
type ReconnectOptions struct {
	// Policy shapes the redial backoff; a zero Policy gets
	// retry.Defaults(). Policy.MaxAttempts bounds consecutive failed
	// dials within one outage (a successful open resets the count).
	Policy retry.Policy
	// HeartbeatInterval, when positive, pings the server at this period
	// while the connection is open, catching half-dead connections that
	// TCP alone would let linger.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a pong may take before the
	// connection is declared dead and redialed. Zero means
	// HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// Hub, when non-nil, receives dial/reconnect/heartbeat counters
	// under the subsystem "sockretry".
	Hub *telemetry.Hub
	// Path is the handshake request path (""/"/" = plain websockify;
	// MuxPath selects the gateway's multiplexed mode).
	Path string
}

// ReconnectStats is a point-in-time snapshot of a ReconnectingWS's
// counters.
type ReconnectStats struct {
	Dials             int64 // connection attempts issued
	Opens             int64 // attempts that reached the open state
	Reconnects        int64 // opens after a previous connection was lost
	Heartbeats        int64 // pings sent
	HeartbeatTimeouts int64 // connections declared dead by a missed pong
	GaveUp            int64 // outages that exhausted the redial budget
	BackoffNanos      int64 // total time waited between redials
}

// ReconnectingWS maintains a WebSocket to one address across
// connection failures: when the link drops (reset, handshake failure,
// missed heartbeat), it redials with the policy's exponential backoff
// until the attempt budget for the outage is exhausted. It is the
// socket layer's analogue of the VFS retry decorator — the piece that
// keeps a long-lived browser connection (§5.3) alive over the flaky
// transport the fault injector models.
//
// All callbacks fire on the window's event loop, and all methods must
// be called from it (or before Loop.Run starts) — except Send,
// SendParts, and Connected, which are safe from any goroutine: the mux
// session's writer calls them off-loop while reconnects mutate the
// transport on the loop.
type ReconnectingWS struct {
	// OnOpen fires each time a connection reaches the open state;
	// reconnected is false only for the first open.
	OnOpen func(reconnected bool)
	// OnMessage receives each incoming message.
	OnMessage func(data []byte)
	// OnDown fires when an established connection is lost (a redial is
	// already scheduled unless the budget is exhausted).
	OnDown func(err error)
	// OnGiveUp fires when an outage exhausts the redial budget; the
	// last error is passed. The client is idle afterwards.
	OnGiveUp func(err error)

	win  *browser.Window
	loop *eventloop.Loop
	addr string
	opts ReconnectOptions
	rnd  func() float64

	// stateMu guards ws, open, and closed: all three are mutated on
	// the event loop (dial, open/close events, Close) and read from
	// the mux writer goroutine via Send/SendParts/Connected.
	stateMu sync.Mutex
	ws      *WebSocket
	open    bool
	closed  bool

	everOpened bool // loop thread only
	attempt    int  // failed dials in the current outage
	lastErr    error

	hbPing, hbWatch       eventloop.TimerID
	hasPing, hasWatch     bool
	pongPending           bool
	dials, opens          *telemetry.Counter
	reconnects, gaveUp    *telemetry.Counter
	heartbeats, hbExpired *telemetry.Counter
	backoffNs             *telemetry.Counter
}

// NewReconnectingWS builds a reconnecting client for addr and starts
// the first dial. Assign the On* handlers before running the loop.
func NewReconnectingWS(w *browser.Window, addr string, opts ReconnectOptions) *ReconnectingWS {
	if opts.Policy == (retry.Policy{}) {
		opts.Policy = retry.Defaults()
	}
	r := &ReconnectingWS{
		win:  w,
		loop: w.Loop,
		addr: addr,
		opts: opts,
		rnd:  opts.Policy.Rand(),
	}
	if opts.Hub != nil {
		reg := opts.Hub.Registry
		r.dials = reg.Counter("sockretry", "dials")
		r.opens = reg.Counter("sockretry", "opens")
		r.reconnects = reg.Counter("sockretry", "reconnects")
		r.gaveUp = reg.Counter("sockretry", "gave_up")
		r.heartbeats = reg.Counter("sockretry", "heartbeats")
		r.hbExpired = reg.Counter("sockretry", "heartbeat_timeouts")
		r.backoffNs = reg.Counter("sockretry", "backoff_ns")
	} else {
		r.dials = &telemetry.Counter{}
		r.opens = &telemetry.Counter{}
		r.reconnects = &telemetry.Counter{}
		r.gaveUp = &telemetry.Counter{}
		r.heartbeats = &telemetry.Counter{}
		r.hbExpired = &telemetry.Counter{}
		r.backoffNs = &telemetry.Counter{}
	}
	r.dial()
	return r
}

// Stats snapshots the counters.
func (r *ReconnectingWS) Stats() ReconnectStats {
	return ReconnectStats{
		Dials:             r.dials.Value(),
		Opens:             r.opens.Value(),
		Reconnects:        r.reconnects.Value(),
		Heartbeats:        r.heartbeats.Value(),
		HeartbeatTimeouts: r.hbExpired.Value(),
		GaveUp:            r.gaveUp.Value(),
		BackoffNanos:      r.backoffNs.Value(),
	}
}

// Connected reports whether a connection is currently open. Safe from
// any goroutine.
func (r *ReconnectingWS) Connected() bool {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	return r.open && !r.closed
}

// transport returns the live WebSocket, or nil between connections.
// The handle is read under stateMu so a redial reassigning r.ws on the
// loop cannot race a sender on another goroutine; the returned socket
// may still be torn down concurrently, in which case its own writes
// fail and the caller sees an ordinary send error.
func (r *ReconnectingWS) transport() *WebSocket {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	if !r.open || r.closed || r.ws == nil {
		return nil
	}
	return r.ws
}

// Send transmits data on the current connection, or fails with
// ErrNotConnected between connections (callers may buffer and resend
// from OnOpen). Safe from any goroutine.
func (r *ReconnectingWS) Send(data []byte) error {
	ws := r.transport()
	if ws == nil {
		return ErrNotConnected
	}
	return ws.Send(data)
}

// SendParts transmits one unmasked frame in a single writev (the mux
// hot path; see WebSocket.SendParts), or fails with ErrNotConnected
// between connections. Safe from any goroutine.
func (r *ReconnectingWS) SendParts(parts ...[]byte) error {
	ws := r.transport()
	if ws == nil {
		return ErrNotConnected
	}
	return ws.SendParts(parts...)
}

// Close shuts the client down for good: no further redials, heartbeats
// or callbacks.
func (r *ReconnectingWS) Close() error {
	if r.closed {
		return nil
	}
	r.stateMu.Lock()
	r.closed = true
	r.stateMu.Unlock()
	r.stopHeartbeat()
	if r.ws != nil {
		// Safe even mid-handshake: WebSocket.Close finishes the
		// teardown once the dial settles.
		return r.ws.Close()
	}
	return nil
}

func (r *ReconnectingWS) dial() {
	r.dials.Inc()
	path := r.opts.Path
	if path == "" {
		path = "/"
	}
	ws := DialWebSocketPath(r.win, r.addr, path)
	r.stateMu.Lock()
	r.ws = ws
	r.stateMu.Unlock()
	ws.OnOpen = func() {
		if r.closed {
			ws.Close()
			return
		}
		reconnected := r.everOpened
		r.stateMu.Lock()
		r.open = true
		r.stateMu.Unlock()
		r.everOpened = true
		r.attempt = 0
		r.opens.Inc()
		if reconnected {
			r.reconnects.Inc()
		}
		r.startHeartbeat()
		if r.OnOpen != nil {
			r.OnOpen(reconnected)
		}
	}
	ws.OnMessage = func(data []byte) {
		if r.closed {
			return
		}
		if r.OnMessage != nil {
			r.OnMessage(data)
		}
	}
	ws.OnError = func(err error) { r.lastErr = err }
	ws.OnPong = func([]byte) { r.pongPending = false }
	ws.OnClose = func() {
		r.stopHeartbeat()
		wasOpen := r.open
		r.stateMu.Lock()
		r.open = false
		r.stateMu.Unlock()
		if r.closed {
			return
		}
		if wasOpen && r.OnDown != nil {
			r.OnDown(r.lastErr)
			if r.closed { // the handler shut us down
				return
			}
		}
		r.scheduleRedial()
	}
}

// scheduleRedial books the next dial after the policy's backoff, or
// gives up when the outage has consumed the attempt budget.
func (r *ReconnectingWS) scheduleRedial() {
	r.attempt++
	if r.attempt >= r.opts.Policy.Attempts() {
		r.gaveUp.Inc()
		if r.OnGiveUp != nil {
			r.OnGiveUp(r.lastErr)
		}
		return
	}
	d := r.opts.Policy.Backoff(r.attempt, r.rnd)
	r.backoffNs.Add(int64(d))
	// Same scheme as the VFS retry decorator: core.After's completion
	// holds a pending slot across the wait, and the redial lands on
	// the loop thread as an external event.
	core.After(r.loop, "ws-redial", d, func() {
		if !r.closed {
			r.dial()
		}
	})
}

// ---- heartbeat ----

func (r *ReconnectingWS) startHeartbeat() {
	if r.opts.HeartbeatInterval <= 0 {
		return
	}
	r.hbPing = r.loop.SetTimeout(r.heartbeat, r.opts.HeartbeatInterval)
	r.hasPing = true
}

func (r *ReconnectingWS) stopHeartbeat() {
	if r.hasPing {
		r.loop.ClearTimeout(r.hbPing)
		r.hasPing = false
	}
	if r.hasWatch {
		r.loop.ClearTimeout(r.hbWatch)
		r.hasWatch = false
	}
	r.pongPending = false
}

// heartbeat sends one ping, arms the pong watchdog, and books the next
// beat.
func (r *ReconnectingWS) heartbeat() {
	r.hasPing = false
	if r.closed || !r.open {
		return
	}
	r.heartbeats.Inc()
	r.pongPending = true
	if err := r.ws.Ping(nil); err != nil {
		r.dropDead(err)
		return
	}
	timeout := r.opts.HeartbeatTimeout
	if timeout <= 0 {
		timeout = r.opts.HeartbeatInterval
	}
	// One watchdog outstanding at a time: arming a fresh one per ping
	// would pile up a live timer per beat whenever timeout > interval
	// (keeping the loop busy for a full timeout after Close, since
	// stopHeartbeat can only clear the latest), and a missed pong is
	// still caught within interval+timeout by the next arm.
	if !r.hasWatch {
		r.hbWatch = r.loop.SetTimeout(func() {
			r.hasWatch = false
			if r.pongPending && r.open && !r.closed {
				r.hbExpired.Inc()
				r.dropDead(errHeartbeatTimeout)
			}
		}, timeout)
		r.hasWatch = true
	}
	r.startHeartbeat()
}

// dropDead tears down a connection the heartbeat has declared dead;
// the WebSocket's close event then drives the normal redial path.
func (r *ReconnectingWS) dropDead(err error) {
	r.lastErr = err
	r.stopHeartbeat()
	if r.ws != nil {
		r.ws.Close()
	}
}
