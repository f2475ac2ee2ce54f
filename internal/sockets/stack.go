package sockets

import (
	"fmt"
	"time"

	"doppio/internal/browser"
	"doppio/internal/eventloop"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
	"doppio/internal/vfs/retry"
)

// The client-side construction story, redesigned: instead of the
// ad-hoc trio (raw WebSocket + ReconnectingWS + post-hoc mutators), a
// connection is assembled by Stack with the same enforced-decorator-
// order discipline as vfs.Stack:
//
//	transport (ws | reconnecting ws) → telemetry (outermost),
//	with the mux session — when enabled — consuming the whole chain.
//
// Telemetry sits outermost so its counters see what the application
// sees. Options are order-independent; Find walks the chain. Faults
// live at the gateway (GatewayOptions.Faults), which injects in both
// directions.

// Link is one layer of the client transport chain: it sends one
// message (the concatenation of parts, zero-copy where the transport
// allows) and is torn down by Close. Events flow up the chain through
// the LinkEvents bound at assembly.
type Link interface {
	Send(parts ...[]byte) error
	Close() error
}

// LinkUnwrapper is implemented by every decorating link; it exposes
// the wrapped layer so callers can walk the chain.
type LinkUnwrapper interface {
	Unwrap() Link
}

// Find walks a link chain outermost-in (via Unwrap) and returns the
// first layer satisfying T — a concrete type like *TelLink, or a
// capability interface.
func Find[T any](l Link) (T, bool) {
	for l != nil {
		if t, ok := any(l).(T); ok {
			return t, true
		}
		u, ok := l.(LinkUnwrapper)
		if !ok {
			break
		}
		l = u.Unwrap()
	}
	var zero T
	return zero, false
}

// linkEvents is the upward event flow of a link chain.
type linkEvents struct {
	onOpen    func(reconnected bool)
	onMessage func(data []byte)
	onClosed  func(err error) // terminal: no further events
}

// Option selects and configures one layer of a socket stack.
type Option func(*stackConfig)

type stackConfig struct {
	reconnect *retry.Policy
	heartbeat time.Duration
	mux       bool
	maxStream int
	window    int
	hub       *telemetry.Hub
	shedFn    func() int
	shedDepth int
}

// WithReconnect adds the reconnecting transport: connection drops
// redial with the policy's exponential backoff (a zero Policy gets
// retry.Defaults()).
func WithReconnect(policy retry.Policy) Option {
	return func(c *stackConfig) { c.reconnect = &policy }
}

// WithHeartbeat enables ping/pong liveness probing at the given
// period. Heartbeats live in the reconnecting transport, so this
// implies WithReconnect (with default policy) if it was not given.
func WithHeartbeat(d time.Duration) Option {
	return func(c *stackConfig) { c.heartbeat = d }
}

// WithMux multiplexes up to n concurrent logical streams over the one
// connection (n <= 0 means the gateway default, 1024). Each Dial
// opens one flow-controlled stream; without WithMux, a Conn carries
// exactly one Dial.
func WithMux(n int) Option {
	return func(c *stackConfig) { c.mux = true; c.maxStream = n }
}

// WithWindow sets the per-stream receive window (bytes) advertised to
// the gateway; 0 means 64 KiB. Only meaningful with WithMux.
func WithWindow(bytes int) Option {
	return func(c *stackConfig) { c.window = bytes }
}

// WithTelemetry instruments the stack (outermost): frame/byte
// counters under "sockstack", plus the hub flows into the transport
// ("sockretry") and mux ("sockmux") layers.
func WithTelemetry(hub *telemetry.Hub) Option {
	return func(c *stackConfig) { c.hub = hub }
}

// WithShed adds client-side load shedding: when depthFn (typically
// the owning runtime's QueueDepth) exceeds maxDepth at Dial time, the
// dial fails immediately with a shed StreamError (EAGAIN — transient,
// so retry policies back off) instead of adding work to a loop that
// is already behind.
func WithShed(depthFn func() int, maxDepth int) Option {
	return func(c *stackConfig) { c.shedFn = depthFn; c.shedDepth = maxDepth }
}

// ---- link layers ----

// wsLink is the base transport over a single WebSocket.
type wsLink struct {
	ws  *WebSocket
	mux bool
}

func (l *wsLink) Send(parts ...[]byte) error {
	if l.mux {
		return l.ws.SendParts(parts...)
	}
	return l.ws.Send(concat(parts))
}

func (l *wsLink) Close() error { return l.ws.Close() }

// rwsLink is the base transport over a reconnecting WebSocket.
type rwsLink struct {
	rws *ReconnectingWS
	mux bool
}

func (l *rwsLink) Send(parts ...[]byte) error {
	if l.mux {
		return l.rws.SendParts(parts...)
	}
	return l.rws.Send(concat(parts))
}

func (l *rwsLink) Close() error { return l.rws.Close() }

func concat(parts [][]byte) []byte {
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]byte, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TelLink counts frames and bytes through the stack under the
// "sockstack" subsystem — the outermost layer, so it measures what
// the application sees.
type TelLink struct {
	inner               Link
	framesIn, framesOut *telemetry.Counter
	bytesIn, bytesOut   *telemetry.Counter
}

// Unwrap exposes the wrapped layer.
func (l *TelLink) Unwrap() Link { return l.inner }

func (l *TelLink) Send(parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	l.framesOut.Inc()
	l.bytesOut.Add(int64(n))
	return l.inner.Send(parts...)
}

func (l *TelLink) Close() error { return l.inner.Close() }

func (l *TelLink) recv(data []byte) {
	l.framesIn.Inc()
	l.bytesIn.Add(int64(len(data)))
}

// ---- the assembled connection ----

// Conn is an assembled client connection: the link chain plus, in mux
// mode, the session. All methods and callbacks run on the window's
// event loop (sessions additionally run internal goroutines, but
// their callbacks are routed loop-safely through completions).
type Conn struct {
	win  *browser.Window
	loop *eventloop.Loop
	addr string
	cfg  stackConfig

	link Link
	tel  *TelLink

	mux       *Mux
	open      bool
	closed    bool
	err       error
	waitOpen  []func() // dials queued before the link opened
	plainUsed bool
	plain     *plainStream
	shedLocal int64
}

// Stack assembles a client connection to addr from the window's event
// loop, in the one layer order that is correct regardless of option
// order (see the package comment above). The zero-option stack is a
// plain single-stream WebSocket connection.
func Stack(w *browser.Window, addr string, opts ...Option) *Conn {
	var cfg stackConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.heartbeat > 0 && cfg.reconnect == nil {
		p := retry.Defaults()
		cfg.reconnect = &p
	}
	c := &Conn{win: w, loop: w.Loop, addr: addr, cfg: cfg}

	path := "/"
	if cfg.mux {
		path = MuxPath
	}

	// Incoming events route through the chain top-down: telemetry
	// counts, then the Conn dispatches.
	deliver := func(data []byte) {
		if c.tel != nil {
			c.tel.recv(data)
		}
		c.dispatch(data)
	}

	// Base transport.
	var base Link
	if cfg.reconnect != nil {
		rws := NewReconnectingWS(w, addr, ReconnectOptions{
			Policy:            *cfg.reconnect,
			HeartbeatInterval: cfg.heartbeat,
			Hub:               cfg.hub,
			Path:              path,
		})
		rws.OnOpen = func(reconnected bool) { c.onOpen(reconnected) }
		rws.OnMessage = deliver
		rws.OnDown = func(err error) { c.onDown(err) }
		rws.OnGiveUp = func(err error) { c.onClosed(err) }
		base = &rwsLink{rws: rws, mux: cfg.mux}
	} else {
		ws := DialWebSocketPath(w, addr, path)
		var lastErr error
		ws.OnOpen = func() { c.onOpen(false) }
		ws.OnMessage = deliver
		ws.OnError = func(err error) { lastErr = err }
		ws.OnClose = func() { c.onClosed(lastErr) }
		base = &wsLink{ws: ws, mux: cfg.mux}
	}

	// Telemetry outermost.
	link := base
	if cfg.hub != nil {
		reg := cfg.hub.Registry
		c.tel = &TelLink{
			inner:     link,
			framesIn:  reg.Counter("sockstack", "frames_in"),
			framesOut: reg.Counter("sockstack", "frames_out"),
			bytesIn:   reg.Counter("sockstack", "bytes_in"),
			bytesOut:  reg.Counter("sockstack", "bytes_out"),
		}
		link = c.tel
	}
	c.link = link
	if !cfg.mux {
		// The plain stream exists from the start so messages arriving
		// before Dial (a server that talks first) are buffered, not
		// dropped. Closing the socket closes the connection: in plain
		// mode they are the same thing.
		c.plain = &plainStream{
			send:    func(b []byte) error { return c.link.Send(b) },
			closeFn: func() error { return c.Close() },
		}
	}
	return c
}

// Link returns the top of the link chain (walk it with Find).
func (c *Conn) Link() Link { return c.link }

// Mux returns the current mux session (nil in plain mode or before
// the connection opens).
func (c *Conn) Mux() *Mux { return c.mux }

// ShedCount reports dials refused locally by WithShed.
func (c *Conn) ShedCount() int64 { return c.shedLocal }

func (c *Conn) onOpen(reconnected bool) {
	if c.closed {
		return
	}
	if c.cfg.mux {
		// A (re)connection starts a fresh session: the gateway's state
		// for the old one died with the old transport. Streams of the
		// old session error with ECONNRESET (transient; redial).
		if c.mux != nil {
			c.mux.CloseSession(nil)
		}
		c.mux = NewMux(MuxConfig{
			Window:     c.cfg.window,
			MaxStreams: c.cfg.maxStream,
			Hub:        c.cfg.hub,
			Send: func(hdr, payload []byte) error {
				return c.link.Send(hdr, payload)
			},
		})
	}
	c.open = true
	waiters := c.waitOpen
	c.waitOpen = nil
	for _, fn := range waiters {
		fn()
	}
}

func (c *Conn) onDown(err error) {
	// Reconnecting transport lost the link; a redial is in flight.
	c.open = false
	if c.mux != nil {
		c.mux.CloseSession(err)
		c.mux = nil
	}
	if c.plain != nil {
		c.plain.finish(err)
	}
}

func (c *Conn) onClosed(err error) {
	c.open = false
	if c.mux != nil {
		c.mux.CloseSession(err)
		c.mux = nil
	}
	if c.plain != nil {
		c.plain.finish(err)
	}
	c.err = err
	waiters := c.waitOpen
	c.waitOpen = nil
	for _, fn := range waiters {
		fn()
	}
}

func (c *Conn) dispatch(data []byte) {
	if c.cfg.mux {
		if c.mux != nil {
			c.mux.HandleFrame(data)
		}
		return
	}
	if c.plain != nil {
		c.plain.deliver(data)
	}
}

// Dial opens one logical stream and calls cb on the event loop with
// its Socket. In mux mode every Dial is a new flow-controlled stream
// over the shared connection; in plain mode the Conn carries exactly
// one Dial (the whole connection is the stream) and a second Dial
// fails. A WithShed stack refuses the dial locally (EAGAIN) when the
// owning loop is over its depth threshold.
func (c *Conn) Dial(cb func(*Socket, error)) {
	if c.closed {
		cb(nil, ErrSocketClosed)
		return
	}
	if c.cfg.shedFn != nil && c.cfg.shedDepth > 0 && c.cfg.shedFn() > c.cfg.shedDepth {
		c.shedLocal++
		cb(nil, &StreamError{Code: vfs.EAGAIN})
		return
	}
	if !c.open {
		if c.err != nil {
			cb(nil, c.err)
			return
		}
		c.waitOpen = append(c.waitOpen, func() { c.Dial(cb) })
		return
	}
	if c.cfg.mux {
		st, err := c.mux.Open()
		if err != nil {
			cb(nil, err)
			return
		}
		st.SetOpened(func(err error) {
			// May fire on a session goroutine; marshal to the loop.
			c.loop.InvokeExternal("sock-dial", func() {
				if err != nil {
					cb(nil, err)
					return
				}
				cb(newSocket(c.loop, muxByteStream{st: st}), nil)
			})
		})
		return
	}
	if c.plainUsed {
		cb(nil, fmt.Errorf("sockets: plain connection already dialed (use WithMux for multiple streams)"))
		return
	}
	c.plainUsed = true
	cb(newSocket(c.loop, c.plain), nil)
}

// Close tears the whole connection down: the session (if any), then
// the link chain.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.mux != nil {
		c.mux.CloseSession(nil)
		c.mux = nil
	}
	if c.plain != nil {
		c.plain.finish(nil)
	}
	return c.link.Close()
}
