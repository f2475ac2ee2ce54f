// Gateway soak benchmark: N logical echo connections through the
// websockify gateway, once as N plain one-stream WebSocket
// connections and once as N mux streams packed onto N/StreamsPerConn
// multiplexed sessions — equal work, same transport, so the A/B
// isolates what the framing and flow control cost (BENCH_sock.json).
// A separate shed phase drives the gateway past its ShedDepth and
// measures the refusal/recovery behavior the fleet layer depends on.
package bench

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doppio/internal/sockets"
)

// SockParams tunes the soak.
type SockParams struct {
	// Conns is the sweep of logical connection counts; default
	// {1000, 5000, 10000}.
	Conns []int
	// StreamsPerConn is how many mux streams ride one WebSocket
	// session in the mux arm; default 100 (so 10k conns = 100
	// sessions). The plain arm always uses one connection per stream.
	StreamsPerConn int
	// Msgs is echo round trips per stream; default 4.
	Msgs int
	// Size is the echo message size in bytes; default 256.
	Size int
	// Window is the per-stream credit window; 0 = the 64 KiB default.
	Window int
	// ShedDepth is the shed phase's queue-depth threshold; default 8.
	ShedDepth int
	// Transport picks how bytes move: "mem" (default) runs the whole
	// soak over in-memory pipes — a 10k-connection sweep on real TCP
	// needs ~4 fds per connection, past typical fd limits — while "tcp"
	// uses real loopback TCP (sensible up to ~2k conns).
	Transport string
	// Check verifies every echoed byte against the sent pattern and
	// is the CI smoke's gate (zero lost frames, nonzero shed).
	Check bool
}

func (p SockParams) withDefaults() SockParams {
	if len(p.Conns) == 0 {
		p.Conns = []int{1000, 5000, 10000}
	}
	if p.StreamsPerConn <= 0 {
		p.StreamsPerConn = 100
	}
	if p.Msgs <= 0 {
		p.Msgs = 4
	}
	if p.Size <= 0 {
		p.Size = 256
	}
	if p.ShedDepth <= 0 {
		p.ShedDepth = 8
	}
	if p.Transport == "" {
		p.Transport = "mem"
	}
	return p
}

// SockArm is one mode's measurement at one connection count.
type SockArm struct {
	Mode string `json:"mode"` // "plain" or "mux"
	// Transports is WebSocket connections actually opened (== streams
	// in plain mode, streams/StreamsPerConn sessions in mux mode).
	Transports int `json:"transports"`
	Streams    int `json:"streams"`
	// Wall is first-dial to last-echo.
	Wall       time.Duration `json:"wall_ns"`
	Throughput float64       `json:"msgs_per_sec"`
	// Latency percentiles over per-message echo round trips,
	// nearest-rank on the raw sample (no interpolation).
	P50  time.Duration `json:"p50_ns"`
	P95  time.Duration `json:"p95_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	// Lost counts streams whose echo came back short, corrupt, or
	// errored — must be zero on the lossless soak transport.
	Lost int64 `json:"lost"`
}

// SockPoint compares both arms at one connection count.
type SockPoint struct {
	Conns int     `json:"conns"`
	Plain SockArm `json:"plain"`
	Mux   SockArm `json:"mux"`
	// P50Ratio is plain p50 / mux p50 (>1 means mux is faster at the
	// median — fewer handshakes and transports for the same streams).
	P50Ratio float64 `json:"plain_over_mux_p50"`
}

// SockShed is the shed phase: a gateway with a deliberately low
// ShedDepth and a forced queue-depth reading, so admission control
// must refuse SYNs, then admit them again on recovery.
type SockShed struct {
	ShedDepth int `json:"shed_depth"`
	// Attempted streams while the gateway was overloaded; every one
	// must come back RST(EAGAIN).
	Attempted int   `json:"attempted"`
	Shed      int64 `json:"shed"`
	// Recovered streams opened after the depth reading dropped; every
	// one must succeed and echo.
	Recovered int `json:"recovered"`
	// GatewayShed and Pauses are the gateway's own counters —
	// admission refusals and credit-pause transitions.
	GatewayShed int64 `json:"gateway_shed"`
	Pauses      int64 `json:"gateway_pauses"`
}

// SockResult is the full report (BENCH_sock.json).
type SockResult struct {
	Transport      string      `json:"transport"`
	StreamsPerConn int         `json:"streams_per_conn"`
	Msgs           int         `json:"msgs"`
	Size           int         `json:"size_bytes"`
	Window         int         `json:"window_bytes"`
	Cores          int         `json:"cores"`
	Points         []SockPoint `json:"points"`
	Shed           SockShed    `json:"shed"`
}

// sockFabric abstracts the byte transport so both arms (and both
// transports) share one harness: how clients reach the gateway, and
// how the gateway reaches the echo target.
type sockFabric struct {
	dialGW func() (net.Conn, error)
	gw     *sockets.Websockify
	close  func()
}

// newSockFabric stands up echo target + gateway on the chosen
// transport.
func newSockFabric(transport string, opts sockets.GatewayOptions) (*sockFabric, error) {
	if transport == "mem" {
		echoLn := sockets.NewMemListener()
		go sockEchoAccept(echoLn)
		gwLn := sockets.NewMemListener()
		opts.Listener = gwLn
		opts.Dial = func(string) (net.Conn, error) { return echoLn.Dial() }
		gw, err := sockets.NewGateway("", "mem:echo", opts)
		if err != nil {
			echoLn.Close()
			gwLn.Close()
			return nil, err
		}
		return &sockFabric{
			dialGW: gwLn.Dial,
			gw:     gw,
			close: func() {
				gw.Close()
				echoLn.Close()
			},
		}, nil
	}
	echoLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go sockEchoAccept(echoLn)
	gw, err := sockets.NewGateway("127.0.0.1:0", echoLn.Addr().String(), opts)
	if err != nil {
		echoLn.Close()
		return nil, err
	}
	return &sockFabric{
		dialGW: func() (net.Conn, error) { return net.Dial("tcp", gw.Addr()) },
		gw:     gw,
		close: func() {
			gw.Close()
			echoLn.Close()
		},
	}, nil
}

// sockEchoAccept is the unmodified TCP echo server behind the gateway.
func sockEchoAccept(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			buf := make([]byte, 16<<10)
			for {
				n, err := c.Read(buf)
				if n > 0 {
					if _, werr := c.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}(c)
	}
}

// sockPattern fills one message: stream and message index baked into
// every byte, so a misrouted or replayed frame fails verification.
func sockPattern(buf []byte, stream, msg int) {
	b := byte(stream*31 + msg*7 + 1)
	for i := range buf {
		buf[i] = b
	}
}

// RunSockLoad runs the sweep and the shed phase.
func RunSockLoad(p SockParams) (*SockResult, error) {
	p = p.withDefaults()
	res := &SockResult{
		Transport:      p.Transport,
		StreamsPerConn: p.StreamsPerConn,
		Msgs:           p.Msgs,
		Size:           p.Size,
		Window:         p.Window,
		Cores:          runtime.GOMAXPROCS(0),
	}
	for _, n := range p.Conns {
		plain, err := runSockArm(p, n, false)
		if err != nil {
			return nil, fmt.Errorf("sockload %d conns plain: %w", n, err)
		}
		mux, err := runSockArm(p, n, true)
		if err != nil {
			return nil, fmt.Errorf("sockload %d conns mux: %w", n, err)
		}
		pt := SockPoint{Conns: n, Plain: plain, Mux: mux}
		if mux.P50 > 0 {
			pt.P50Ratio = float64(plain.P50) / float64(mux.P50)
		}
		res.Points = append(res.Points, pt)
	}
	shed, err := runSockShed(p)
	if err != nil {
		return nil, fmt.Errorf("sockload shed phase: %w", err)
	}
	res.Shed = shed
	return res, nil
}

// runSockArm measures n logical echo streams in one mode.
func runSockArm(p SockParams, n int, mux bool) (SockArm, error) {
	arm := SockArm{Streams: n}
	if mux {
		arm.Mode = "mux"
		arm.Transports = (n + p.StreamsPerConn - 1) / p.StreamsPerConn
	} else {
		arm.Mode = "plain"
		arm.Transports = n
	}
	fab, err := newSockFabric(p.Transport, sockets.GatewayOptions{
		Window:     p.Window,
		MaxStreams: p.StreamsPerConn + 16,
	})
	if err != nil {
		return arm, err
	}
	defer fab.close()

	// One latency slot per message, indexed by stream — no lock on the
	// hot path; zero slots (lost streams) are filtered before ranking.
	lats := make([]time.Duration, n*p.Msgs)
	var lost atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()

	if mux {
		for s0 := 0; s0 < n; s0 += p.StreamsPerConn {
			count := p.StreamsPerConn
			if s0+count > n {
				count = n - s0
			}
			wg.Add(1)
			go func(s0, count int) {
				defer wg.Done()
				m, closeSess, err := dialMuxSession(fab, p)
				if err != nil {
					lost.Add(int64(count))
					return
				}
				defer closeSess()
				var sw sync.WaitGroup
				for i := 0; i < count; i++ {
					sw.Add(1)
					go func(stream int) {
						defer sw.Done()
						if !runMuxStream(m, p, stream, lats) {
							lost.Add(1)
						}
					}(s0 + i)
				}
				sw.Wait()
			}(s0, count)
		}
		wg.Wait()
	} else {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(stream int) {
				defer wg.Done()
				if !runPlainStream(fab, p, stream, lats) {
					lost.Add(1)
				}
			}(i)
		}
		wg.Wait()
	}

	arm.Wall = time.Since(start)
	arm.Lost = lost.Load()
	sample := make([]time.Duration, 0, len(lats))
	for _, d := range lats {
		if d > 0 {
			sample = append(sample, d)
		}
	}
	if arm.Wall > 0 {
		arm.Throughput = float64(len(sample)) / arm.Wall.Seconds()
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	arm.P50 = nearestRank(sample, 0.50)
	arm.P95 = nearestRank(sample, 0.95)
	arm.P99 = nearestRank(sample, 0.99)
	arm.P999 = nearestRank(sample, 0.999)
	if p.Check && arm.Lost > 0 {
		return arm, fmt.Errorf("%s arm lost %d of %d streams", arm.Mode, arm.Lost, n)
	}
	return arm, nil
}

// dialMuxSession opens one multiplexed gateway session: WebSocket
// handshake on MuxPath, a client Mux over it, and a reader pump.
func dialMuxSession(fab *sockFabric, p SockParams) (*sockets.Mux, func(), error) {
	conn, err := fab.dialGW()
	if err != nil {
		return nil, nil, err
	}
	br, err := sockets.ClientHandshake(conn, "sockload", sockets.MuxPath)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	m := sockets.NewMux(sockets.MuxConfig{
		Window:     p.Window,
		MaxStreams: p.StreamsPerConn + 16,
		Send: func(hdr, payload []byte) error {
			return sockets.WriteBinaryFrame(conn, hdr, payload)
		},
	})
	go func() {
		for {
			f, err := sockets.ReadFrame(br)
			if err != nil {
				m.CloseSession(err)
				return
			}
			if f.Op == sockets.OpBinary {
				m.HandleFrame(f.Payload)
			} else if f.Op == sockets.OpClose {
				m.CloseSession(nil)
				return
			}
		}
	}()
	return m, func() {
		m.CloseSession(nil)
		conn.Close()
	}, nil
}

// runMuxStream drives one stream's echo round trips, recording one
// latency per message. Returns false on any loss or corruption.
func runMuxStream(m *sockets.Mux, p SockParams, stream int, lats []time.Duration) bool {
	st, err := m.Open()
	if err != nil {
		return false
	}
	defer st.Close()
	if err := st.WaitOpen(); err != nil {
		return false
	}
	msg := make([]byte, p.Size)
	want := make([]byte, p.Size)
	got := make([]byte, p.Size)
	for i := 0; i < p.Msgs; i++ {
		sockPattern(msg, stream, i)
		sockPattern(want, stream, i)
		t0 := time.Now()
		if err := st.WriteBlocking(msg); err != nil {
			return false
		}
		for off := 0; off < p.Size; {
			k, err := st.ReadBlocking(got[off:])
			if err != nil {
				return false
			}
			off += k
		}
		if p.Check && !bytes.Equal(got, want) {
			return false
		}
		lats[stream*p.Msgs+i] = time.Since(t0)
	}
	return true
}

// runPlainStream is the same work over a classic one-stream
// websockify connection.
func runPlainStream(fab *sockFabric, p SockParams, stream int, lats []time.Duration) bool {
	conn, err := fab.dialGW()
	if err != nil {
		return false
	}
	defer conn.Close()
	br, err := sockets.ClientHandshake(conn, "sockload", "/")
	if err != nil {
		return false
	}
	msg := make([]byte, p.Size)
	want := make([]byte, p.Size)
	got := make([]byte, 0, p.Size)
	for i := 0; i < p.Msgs; i++ {
		sockPattern(msg, stream, i)
		sockPattern(want, stream, i)
		got = got[:0]
		t0 := time.Now()
		if err := sockets.WriteBinaryFrame(conn, msg); err != nil {
			return false
		}
		for len(got) < p.Size {
			f, err := sockets.ReadFrame(br)
			if err != nil || f.Op == sockets.OpClose {
				return false
			}
			if f.Op == sockets.OpBinary {
				got = append(got, f.Payload...)
			}
		}
		if p.Check && !bytes.Equal(got, want) {
			return false
		}
		lats[stream*p.Msgs+i] = time.Since(t0)
	}
	return true
}

// runSockShed drives admission control: with the queue-depth reading
// forced past ShedDepth every SYN must be refused with RST(EAGAIN);
// with it back at zero every SYN must open and echo.
func runSockShed(p SockParams) (SockShed, error) {
	shed := SockShed{ShedDepth: p.ShedDepth}
	var depth atomic.Int64
	fab, err := newSockFabric(p.Transport, sockets.GatewayOptions{
		Window:     p.Window,
		MaxStreams: p.StreamsPerConn + 16,
		ShedDepth:  p.ShedDepth,
		QueueDepth: func() int { return int(depth.Load()) },
	})
	if err != nil {
		return shed, err
	}
	defer fab.close()
	m, closeSess, err := dialMuxSession(fab, p)
	if err != nil {
		return shed, err
	}
	defer closeSess()

	// Overload: every new stream must bounce with the shed errno.
	depth.Store(int64(p.ShedDepth) * 10)
	// Let the overload ticker observe the spike so the pause counter
	// moves too (admission refusal itself is immediate, not ticked).
	time.Sleep(20 * time.Millisecond)
	attempts := 32
	for i := 0; i < attempts; i++ {
		shed.Attempted++
		st, err := m.Open()
		if err == nil {
			err = st.WaitOpen()
		}
		if err != nil && sockets.IsShed(err) {
			shed.Shed++
		} else if err == nil {
			st.Close()
		}
	}

	// Recovery: the same dials must now be admitted and echo cleanly.
	depth.Store(0)
	time.Sleep(20 * time.Millisecond)
	lats := make([]time.Duration, attempts*p.Msgs)
	pp := p
	pp.Msgs = 1
	for i := 0; i < attempts; i++ {
		if runMuxStream(m, pp, i, lats) {
			shed.Recovered++
		}
	}
	snap := fab.gw.Snapshot()
	shed.GatewayShed = snap.Stats.Shed
	shed.Pauses = snap.Pauses
	if p.Check {
		if shed.Shed != int64(shed.Attempted) {
			return shed, fmt.Errorf("shed %d of %d overloaded dials (want all)", shed.Shed, shed.Attempted)
		}
		if shed.Recovered != attempts {
			return shed, fmt.Errorf("recovered %d of %d dials after resume", shed.Recovered, attempts)
		}
		if shed.GatewayShed == 0 || shed.Pauses == 0 {
			return shed, fmt.Errorf("gateway counters flat: shed=%d pauses=%d", shed.GatewayShed, shed.Pauses)
		}
	}
	return shed, nil
}

// FormatSock renders the report as a table.
func FormatSock(r *SockResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Gateway soak — %s transport, %d streams/session, %d×%dB echo, %d host cores\n",
		r.Transport, r.StreamsPerConn, r.Msgs, r.Size, r.Cores)
	fmt.Fprintf(&b, "  %6s  %5s  %6s  %9s  %9s  %9s  %9s  %9s  %9s  %4s\n",
		"conns", "mode", "wsconn", "wall", "p50", "p95", "p99", "p999", "msgs/s", "lost")
	// Latencies span µs (plain arm on the mem transport) to seconds
	// (10k-conn tails), so round to ~3 significant digits rather than
	// a fixed unit that would collapse the small end to 0s.
	lat := func(d time.Duration) string {
		unit := time.Microsecond
		for scaled := d; scaled >= 1000*unit; scaled = d.Round(unit) {
			unit *= 10
		}
		return d.Round(unit).String()
	}
	arm := func(n int, a SockArm) {
		fmt.Fprintf(&b, "  %6d  %5s  %6d  %9s  %9s  %9s  %9s  %9s  %9.0f  %4d\n",
			n, a.Mode, a.Transports, a.Wall.Round(time.Millisecond),
			lat(a.P50), lat(a.P95), lat(a.P99), lat(a.P999),
			a.Throughput, a.Lost)
	}
	for _, pt := range r.Points {
		arm(pt.Conns, pt.Plain)
		arm(pt.Conns, pt.Mux)
		fmt.Fprintf(&b, "  %6s  plain/mux p50 ×%.3g\n", "", pt.P50Ratio)
	}
	fmt.Fprintf(&b, "  shed: depth %d — %d/%d refused overloaded, %d/%d admitted after recovery, gateway shed=%d pauses=%d\n",
		r.Shed.ShedDepth, r.Shed.Shed, r.Shed.Attempted,
		r.Shed.Recovered, r.Shed.Attempted, r.Shed.GatewayShed, r.Shed.Pauses)
	return b.String()
}
