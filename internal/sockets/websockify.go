package sockets

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"doppio/internal/telemetry"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
)

// Websockify is the production gateway grown out of the
// kanaka/websockify program the paper relies on for the server side
// of socket support (§5.3). It still "wraps unmodified programs, and
// translates incoming WebSocket connections into normal TCP
// connections", but a connection now picks its mode by handshake
// path:
//
//   - any path but MuxPath: classic websockify — the whole WebSocket
//     is one TCP stream, no flow control (kept for compatibility and
//     as the A/B baseline in sockload);
//   - MuxPath ("/mux"): a multiplexed session — many logical streams
//     over the one WebSocket, each with its own credit window, shed
//     with RST(EAGAIN) when the owning tenant's event loop falls
//     behind (GatewayOptions.QueueDepth over ShedDepth) or the
//     session hits MaxStreams.
type Websockify struct {
	listener net.Listener
	target   string
	opts     GatewayOptions
	wg       sync.WaitGroup

	mu         sync.Mutex
	closed     bool
	inj        *faultfs.Injector
	plainConns int64
	muxConns   int64
	paused     bool
	pauses     int64
	retired    MuxStats // counters of closed mux sessions
	sessions   map[*Mux]struct{}
	conns      map[net.Conn]struct{} // live accepted conns, closed by Close

	tel *proxyTelemetry
}

// GatewayOptions configures NewGateway. The zero value is a plain
// websockify: 64 KiB windows, 1024 streams per session, no shedding,
// no faults, no telemetry.
type GatewayOptions struct {
	// Window is the per-stream receive window advertised to clients
	// (bytes); 0 means 64 KiB.
	Window int
	// MaxStreams caps concurrently open streams per session; a SYN
	// past it is shed. 0 means 1024.
	MaxStreams int
	// ShedDepth is the QueueDepth reading past which new streams are
	// refused with RST(EAGAIN) and open streams stop earning credit.
	// 0 disables depth-based shedding.
	ShedDepth int
	// QueueDepth reports the owning tenant's event-loop run-queue
	// depth (core.Runtime.QueueDepth is safe cross-goroutine). Nil
	// disables depth-based shedding.
	QueueDepth func() int
	// DisableMux serves every path in plain one-stream-per-connection
	// mode, MuxPath included — the -mux=false escape hatch for
	// debugging against clients that cannot speak the framing.
	DisableMux bool
	// Hub, when non-nil, receives gateway counters ("websockify") and
	// mux counters ("sockmux").
	Hub *telemetry.Hub
	// Faults arms deterministic fault injection at construction
	// (SetFaults can retoggle it at runtime; see there for what each
	// fault does in plain and mux mode).
	Faults faultfs.Plan
	// Listener overrides the TCP listen (sockload's in-memory
	// transport); when set, listenAddr is ignored.
	Listener net.Listener
	// Dial overrides how the gateway reaches the target (in-memory
	// transport again); nil means net.Dial("tcp", target).
	Dial func(target string) (net.Conn, error)
}

// proxyTelemetry holds the proxy-side metric handles; all counters are
// atomic since the per-connection pumps run on their own goroutines.
type proxyTelemetry struct {
	connections *telemetry.Counter
	framesIn    *telemetry.Counter // WebSocket → TCP
	bytesIn     *telemetry.Counter
	framesOut   *telemetry.Counter // TCP → WebSocket
	bytesOut    *telemetry.Counter
	handshake   *telemetry.Histogram
	flight      *telemetry.FlightRecorder
}

func newProxyTelemetry(h *telemetry.Hub) *proxyTelemetry {
	if h == nil {
		return nil
	}
	return &proxyTelemetry{
		connections: h.Registry.Counter("websockify", "connections"),
		framesIn:    h.Registry.Counter("websockify", "frames_in"),
		bytesIn:     h.Registry.Counter("websockify", "bytes_in"),
		framesOut:   h.Registry.Counter("websockify", "frames_out"),
		bytesOut:    h.Registry.Counter("websockify", "bytes_out"),
		handshake:   h.Registry.Histogram("websockify", "handshake"),
		flight:      h.Flight,
	}
}

// NewGateway starts a gateway on listenAddr (or opts.Listener)
// forwarding every stream to the TCP server at target.
func NewGateway(listenAddr, target string, opts GatewayOptions) (*Websockify, error) {
	ln := opts.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", listenAddr)
		if err != nil {
			return nil, err
		}
	}
	w := &Websockify{
		listener: ln,
		target:   target,
		opts:     opts,
		tel:      newProxyTelemetry(opts.Hub),
		sessions: make(map[*Mux]struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	if opts.Faults.Enabled() {
		w.inj = faultfs.New(opts.Faults)
	}
	w.wg.Add(1)
	go w.acceptLoop()
	if opts.QueueDepth != nil && opts.ShedDepth > 0 {
		w.wg.Add(1)
		go w.overloadLoop()
	}
	return w, nil
}

// NewWebsockify starts a zero-config gateway — the classic proxy.
func NewWebsockify(listenAddr, target string) (*Websockify, error) {
	return NewGateway(listenAddr, target, GatewayOptions{})
}

// SetFaults toggles deterministic fault injection at runtime (a plan
// that cannot inject disarms it) — the chaos lever the reconnect tests
// flip mid-run. Faults apply per frame, in both directions, reusing
// the VFS fault model's kinds. In plain mode:
//
//   - ErrPre drops the frame on the floor — it is never forwarded, the
//     silent loss a reconnecting client's heartbeat must catch.
//   - ErrPost forwards the frame and then resets the bridge, tearing
//     down both the WebSocket and TCP sides abruptly.
//   - Short truncates the frame's payload to Keep of its bytes.
//   - A latency spike stalls the pump before forwarding.
//
// In mux mode the WebSocket runs over TCP, so faults take only the
// forms TCP can: every mux frame, control frames included, may end
// the connection, never just itself.
//
//   - ErrPre and ErrPost reset the WebSocket connection; the frame is
//     lost with it.
//   - Short writes the first Keep of an outgoing frame's bytes and
//     then closes the connection — a truncation mid-frame. An incoming
//     frame cut short never parses, so it resets the connection too.
//   - A latency spike stalls the connection before the frame.
//
// Every stream of the session then fails with ECONNRESET (transient);
// a reconnecting client redials into a fresh session. Connections
// already past their handshake keep their previous injector.
func (w *Websockify) SetFaults(plan faultfs.Plan) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !plan.Enabled() {
		w.inj = nil
		return
	}
	w.inj = faultfs.New(plan)
}

// FaultStats snapshots the injector's decision counters (zero when
// fault injection is off).
func (w *Websockify) FaultStats() faultfs.Stats {
	w.mu.Lock()
	inj := w.inj
	w.mu.Unlock()
	if inj == nil {
		return faultfs.Stats{}
	}
	return inj.Stats()
}

// Addr returns the gateway's listen address.
func (w *Websockify) Addr() string { return w.listener.Addr().String() }

// LiveStreams counts open mux streams across all live sessions — the
// standalone gateway's load signal when no tenant run queue exists.
func (w *Websockify) LiveStreams() int {
	w.mu.Lock()
	sessions := make([]*Mux, 0, len(w.sessions))
	for m := range w.sessions {
		sessions = append(sessions, m)
	}
	w.mu.Unlock()
	n := 0
	for _, m := range sessions {
		n += m.StreamCount()
	}
	return n
}

// Close stops accepting, tears down the listener, all sessions, and
// all live connections, and waits for every per-connection handler to
// exit — no serve goroutine is still mutating gateway state when it
// returns.
func (w *Websockify) Close() error {
	w.mu.Lock()
	w.closed = true
	sessions := make([]*Mux, 0, len(w.sessions))
	for m := range w.sessions {
		sessions = append(sessions, m)
	}
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	err := w.listener.Close()
	for _, m := range sessions {
		m.CloseSession(nil)
	}
	// Closing the conns unblocks handlers parked in ReadFrame so the
	// Wait below cannot hang on an idle client.
	for _, c := range conns {
		c.Close()
	}
	w.wg.Wait()
	return err
}

// track registers an accepted connection for Close's teardown; it
// refuses (false) when the gateway is already closed.
func (w *Websockify) track(conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.conns[conn] = struct{}{}
	return true
}

func (w *Websockify) untrack(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

// overloaded reports whether the owning tenant is past the shed
// threshold right now.
func (w *Websockify) overloaded() bool {
	if w.opts.QueueDepth == nil || w.opts.ShedDepth <= 0 {
		return false
	}
	return w.opts.QueueDepth() > w.opts.ShedDepth
}

// overloadLoop applies backpressure to *open* streams: while the
// tenant's loop is past ShedDepth, every stream's credit is withheld
// (senders run out of window and stall); on recovery the accumulated
// credit is released. New SYNs are shed in handleSyn independently.
func (w *Websockify) overloadLoop() {
	defer w.wg.Done()
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for range t.C {
		// The depth callback is caller-supplied and may take locks of
		// its own — the standalone gateway's is LiveStreams, which
		// takes w.mu — so it must be sampled before w.mu is held.
		over := w.overloaded()
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return
		}
		changed := over != w.paused
		if changed {
			w.paused = over
			if over {
				w.pauses++
			}
		}
		sessions := make([]*Mux, 0, len(w.sessions))
		for m := range w.sessions {
			sessions = append(sessions, m)
		}
		w.mu.Unlock()
		if !changed {
			continue
		}
		for _, m := range sessions {
			m.ForEachStream(func(st *MuxStream) {
				if over {
					st.PauseCredit()
				} else {
					st.ResumeCredit()
				}
			})
		}
	}
}

func (w *Websockify) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.listener.Accept()
		if err != nil {
			return
		}
		if !w.track(conn) {
			conn.Close()
			return
		}
		w.wg.Add(1)
		go w.serve(conn)
	}
}

func (w *Websockify) dialTarget() (net.Conn, error) {
	if w.opts.Dial != nil {
		return w.opts.Dial(w.target)
	}
	return net.Dial("tcp", w.target)
}

// drawFault draws one decision for a frame heading through the proxy
// and applies its latency spike (a nil injector never faults).
func drawFault(inj *faultfs.Injector, op string) faultfs.Fault {
	if inj == nil {
		return faultfs.Fault{}
	}
	ft := inj.Next(op)
	if ft.Delay > 0 {
		time.Sleep(ft.Delay)
	}
	return ft
}

// applyFault draws one decision for a plain-mode frame payload. It
// reports the (possibly truncated) payload, whether to forward it, and
// whether to reset the bridge after forwarding.
func applyFault(inj *faultfs.Injector, op string, payload []byte) (out []byte, forward, reset bool) {
	switch ft := drawFault(inj, op); ft.Kind {
	case faultfs.ErrPre:
		return nil, false, false
	case faultfs.ErrPost:
		return payload, true, true
	case faultfs.Short:
		return payload[:int(float64(len(payload))*ft.Keep)], true, false
	}
	return payload, true, false
}

// errInjectedReset is the send error of a mux connection the fault
// injector ended.
var errInjectedReset = errors.New("sockets: injected connection reset")

// connWriter serializes every writer of one WebSocket connection: the
// mux session's writer goroutine, the reader's pong/close replies, and
// plain mode's two pumps all target the same conn. net.Conn.Write may
// split a frame across several syscalls under backpressure, so
// unserialized writers can interleave mid-frame and desync the WS
// framing layer itself — corruption no layer above can repair.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

func (cw *connWriter) writeFrame(f *Frame) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return WriteFrame(cw.conn, f)
}

func (cw *connWriter) writeBinary(hdr, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return WriteBinaryFrame(cw.conn, hdr, payload)
}

// writeCut writes the first keep fraction of one binary frame's wire
// bytes and closes the connection: a TCP connection dying mid-frame.
func (cw *connWriter) writeCut(keep float64, hdr, payload []byte) {
	var buf bytes.Buffer
	WriteBinaryFrame(&buf, hdr, payload)
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.conn.Write(buf.Bytes()[:int(float64(buf.Len())*keep)]) // the conn dies either way
	cw.conn.Close()
}

func (w *Websockify) serve(wsConn net.Conn) {
	defer w.wg.Done()
	defer w.untrack(wsConn)
	defer wsConn.Close()
	w.mu.Lock()
	tel := w.tel
	inj := w.inj
	w.mu.Unlock()
	var hsStart time.Time
	if tel != nil {
		hsStart = time.Now()
	}
	path, br, err := ServerHandshake(wsConn)
	if err != nil {
		return
	}
	peer := wsConn.RemoteAddr().String()
	if tel != nil {
		tel.handshake.ObserveSince(hsStart)
		tel.connections.Inc()
		tel.flight.Record("sock", "conn", peer, 0)
	}
	cw := &connWriter{conn: wsConn}
	if path == MuxPath && !w.opts.DisableMux {
		w.serveMux(wsConn, cw, br, inj)
		return
	}
	w.servePlain(wsConn, cw, br, tel, inj)
}

// ---- mux mode ----

func (w *Websockify) serveMux(wsConn net.Conn, cw *connWriter, br io.Reader, inj *faultfs.Injector) {
	w.mu.Lock()
	w.muxConns++
	w.mu.Unlock()
	var m *Mux
	m = NewMux(MuxConfig{
		Window:     w.opts.Window,
		MaxStreams: w.opts.MaxStreams,
		Hub:        w.opts.Hub,
		Send: func(hdr, payload []byte) error {
			switch ft := drawFault(inj, "tcp2ws"); ft.Kind {
			case faultfs.ErrPre, faultfs.ErrPost:
				wsConn.Close()
				return errInjectedReset
			case faultfs.Short:
				cw.writeCut(ft.Keep, hdr, payload)
				return errInjectedReset
			}
			return cw.writeBinary(hdr, payload)
		},
		AcceptStream: func(st *MuxStream) {
			// Admission control: a tenant past the shed threshold
			// refuses the stream outright — RST(EAGAIN), which
			// classifies transient so well-behaved clients back off
			// and redial.
			if w.overloaded() {
				st.Reject(vfs.EAGAIN)
				return
			}
			go w.bridgeStream(st)
		},
	})
	w.mu.Lock()
	w.sessions[m] = struct{}{}
	w.mu.Unlock()

	for {
		f, err := ReadFrame(br)
		if err != nil {
			break
		}
		switch f.Op {
		case OpClose:
			cw.writeFrame(&Frame{Fin: true, Op: OpClose})
			goto done
		case OpPing:
			cw.writeFrame(&Frame{Fin: true, Op: OpPong, Payload: f.Payload})
		case OpBinary:
			if drawFault(inj, "ws2tcp").Faulty() {
				// Reset, or cut short mid-frame: either way the frame
				// is lost with the connection, which serve closes.
				goto done
			}
			m.HandleFrame(f.Payload)
		}
	}
done:
	stats := m.Stats()
	m.CloseSession(nil)
	w.mu.Lock()
	delete(w.sessions, m)
	w.muxConns--
	w.retired.Add(stats)
	w.mu.Unlock()
}

// bridgeStream connects one accepted mux stream to the TCP target and
// pumps both directions until either side finishes.
func (w *Websockify) bridgeStream(st *MuxStream) {
	tcp, err := w.dialTarget()
	if err != nil {
		st.Reject(vfs.ECONNREFUSED)
		return
	}
	st.Accept()
	// The overload sweep only fires on pause/resume transitions, so a
	// stream admitted between the sweep's session snapshot and the flag
	// flip would otherwise earn credit for the whole episode. Checking
	// the flag here — after the stream is registered — closes the hole
	// from both sides: either the sweep's snapshot saw this stream, or
	// this read sees the flag (and the post-pause re-check undoes a
	// pause that lost the race with the resume sweep).
	w.mu.Lock()
	paused := w.paused
	w.mu.Unlock()
	if paused {
		st.PauseCredit()
		w.mu.Lock()
		paused = w.paused
		w.mu.Unlock()
		if !paused {
			st.ResumeCredit()
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	// stream → TCP.
	go func() {
		defer wg.Done()
		buf := make([]byte, 16<<10)
		for {
			n, err := st.ReadBlocking(buf)
			if n > 0 {
				if _, werr := tcp.Write(buf[:n]); werr != nil {
					st.Reset(vfs.ECONNRESET)
					tcp.Close()
					return
				}
			}
			if err != nil {
				if err == io.EOF {
					// Client finished sending: half-close toward the
					// target so its reply can still drain back.
					type closeWriter interface{ CloseWrite() error }
					if cw, ok := tcp.(closeWriter); ok {
						cw.CloseWrite()
					} else {
						tcp.Close()
					}
				} else {
					tcp.Close()
				}
				return
			}
		}
	}()
	// TCP → stream.
	buf := make([]byte, 16<<10)
	for {
		n, err := tcp.Read(buf)
		if n > 0 {
			if werr := st.WriteBlocking(buf[:n]); werr != nil {
				tcp.Close()
				break
			}
		}
		if err != nil {
			if err == io.EOF {
				st.Close()
			} else {
				st.Reset(vfs.ECONNRESET)
			}
			break
		}
	}
	wg.Wait()
	tcp.Close()
}

// ---- plain mode (classic websockify) ----

func (w *Websockify) servePlain(wsConn net.Conn, cw *connWriter, br io.Reader, tel *proxyTelemetry, inj *faultfs.Injector) {
	w.mu.Lock()
	w.plainConns++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.plainConns--
		w.mu.Unlock()
	}()
	tcpConn, err := w.dialTarget()
	if err != nil {
		cw.writeFrame(&Frame{Fin: true, Op: OpClose})
		return
	}
	defer tcpConn.Close()

	done := make(chan struct{}, 2)
	// WebSocket → TCP: unwrap frames into the byte stream.
	go func() {
		defer func() { done <- struct{}{} }()
		for {
			f, err := ReadFrame(br)
			if err != nil {
				return
			}
			switch f.Op {
			case OpClose:
				return
			case OpBinary, OpText, OpContinuation:
				payload, forward, reset := applyFault(inj, "ws2tcp", f.Payload)
				if !forward {
					continue
				}
				if tel != nil {
					tel.framesIn.Inc()
					tel.bytesIn.Add(int64(len(payload)))
				}
				if _, err := tcpConn.Write(payload); err != nil {
					return
				}
				if reset {
					tcpConn.Close()
					wsConn.Close()
					return
				}
			case OpPing:
				cw.writeFrame(&Frame{Fin: true, Op: OpPong, Payload: f.Payload})
			}
		}
	}()
	// TCP → WebSocket: wrap the byte stream into binary frames.
	go func() {
		defer func() { done <- struct{}{} }()
		buf := make([]byte, 16*1024)
		for {
			n, err := tcpConn.Read(buf)
			if n > 0 {
				payload, forward, reset := applyFault(inj, "tcp2ws", buf[:n])
				if forward {
					f := &Frame{Fin: true, Op: OpBinary, Payload: payload}
					if tel != nil {
						tel.framesOut.Inc()
						tel.bytesOut.Add(int64(len(payload)))
					}
					if werr := cw.writeFrame(f); werr != nil {
						return
					}
					if reset {
						tcpConn.Close()
						wsConn.Close()
						return
					}
				}
			}
			if err != nil {
				if err != io.EOF {
					return
				}
				cw.writeFrame(&Frame{Fin: true, Op: OpClose})
				return
			}
		}
	}()
	<-done
}

// GatewaySnapshot is the gateway's state for /debug/sock.
type GatewaySnapshot struct {
	Target     string        `json:"target"`
	PlainConns int64         `json:"plain_conns"`
	MuxConns   int64         `json:"mux_conns"`
	Paused     bool          `json:"paused"` // shedding backpressure right now
	Pauses     int64         `json:"pauses"` // times the gateway entered pause
	Stats      MuxStats      `json:"stats"`  // live + retired sessions
	Sessions   []MuxSnapshot `json:"sessions"`
	Faults     faultfs.Stats `json:"faults"`
}

// Snapshot captures per-session stream windows and the shed/reset
// counters — the /debug/sock source.
func (w *Websockify) Snapshot() GatewaySnapshot {
	w.mu.Lock()
	snap := GatewaySnapshot{
		Target:     w.target,
		PlainConns: w.plainConns,
		MuxConns:   w.muxConns,
		Paused:     w.paused,
		Pauses:     w.pauses,
		Stats:      w.retired,
	}
	sessions := make([]*Mux, 0, len(w.sessions))
	for m := range w.sessions {
		sessions = append(sessions, m)
	}
	inj := w.inj
	w.mu.Unlock()
	for _, m := range sessions {
		ms := m.Snapshot()
		snap.Sessions = append(snap.Sessions, ms)
		snap.Stats.Add(ms.Stats)
	}
	if inj != nil {
		snap.Faults = inj.Stats()
	}
	return snap
}
