package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"doppio/internal/browser"
	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
	"doppio/internal/sockets"
)

// echoProgram is an unmodified Java echo program with two threads,
// each owning one java.net.Socket; it runs until the far side closes
// both connections, then prints how many bytes it echoed.
const echoProgram = `
import java.net.Socket;

class Echo extends Thread {
    int bytes;

    public void run() {
        Socket s = new Socket("gateway", 0);
        byte[] buf = s.read(65536);
        while (buf != null) {
            s.write(buf);
            bytes = bytes + buf.length;
            buf = s.read(65536);
        }
        s.close();
    }
}

public class EchoTab {
    public static void main(String[] args) {
        Echo a = new Echo();
        Echo b = new Echo();
        a.start();
        b.start();
        a.join();
        b.join();
        System.out.println("echoed " + (a.bytes + b.bytes));
    }
}
`

const (
	chunkSize  = 64 << 10 // stream B's message size
	nonceBytes = 8        // stream A's message prefix, unique per message
)

// gwSession is one tab-gateway set-up: the peer's listener, the
// gateway in front of it, and a tab running the echo program whose two
// sockets ride one multiplexed WebSocket session to the gateway.
type gwSession struct {
	ln     net.Listener
	gw     *sockets.Websockify
	tb     *tab
	vm     *jvm.DoppioVM
	conn   *sockets.Conn
	out    bytes.Buffer
	ended  chan error
	a, b   net.Conn // the peer's ends: A small messages, B bulk chunks
	sent   int64    // bytes the peer sent, to check the program's total
	tap    *wireTap // nil on an untraced run
	dials  []time.Duration
	pool   [][]byte // stream B chunk contents
	base   []byte   // stream A message filler
	echoes []time.Duration
	split  []echoSplit // traced stream-A echoes
	bulkB  int64
	bulkT  time.Duration
}

// echoSplit is one traced stream-A echo, and the part of it spent
// beyond the gateway's client-facing conn (in the tab).
type echoSplit struct{ echo, tab span }

// gwLoad sizes one round: k stream-A messages and l stream-B chunks.
type gwLoad struct{ k, l int }

// runTabGateway: the peer drives stream A as a closed loop of small
// seeded messages and stream B as a closed loop of 64 KiB chunks, both
// through the gateway and the tab's echo program, timing every echo.
func runTabGateway(c *runCtx) error {
	load := gwLoad{k: 200, l: 24}
	if c.opts.small {
		load = gwLoad{k: 10, l: 2}
	}
	pool := make([][]byte, 4)
	for i := range pool {
		pool[i] = make([]byte, chunkSize)
		c.rng.Read(pool[i])
	}
	base := make([]byte, 256)
	c.rng.Read(base)

	// The untraced phase runs on a session with nothing wrapped, as
	// an untraced run's does; a traced run's traced half gets a
	// session of its own whose gateway conns are wrapped.
	s, err := setupN(c, 25, func() (*gwSession, error) {
		return newGatewaySession(false)
	}, func(s *gwSession) { s.close(c) })
	if err != nil {
		return err
	}
	defer s.close(c)

	pr := c.newProber()
	roundOn := func(s *gwSession) func(i int) error {
		s.pool, s.base = pool, base
		return func(i int) error {
			pr.setLoops(s.tb.win.Loop)
			return s.round(c, load, rand.New(rand.NewSource(c.opts.seed*1_000_003+int64(i))))
		}
	}
	round := roundOn(s)
	if err := round(0); err != nil {
		return err
	}
	untracedLen, tracedLen := c.phaseLengths()
	s.echoes, s.bulkB, s.bulkT = nil, 0, 0
	ph, err := runPhase(untracedLen, 3, 1, pr, round)
	if err != nil {
		return err
	}
	c.layer["echo_p50_us"] = us(percentile(s.echoes, 0.50))
	c.layer["echo_p99_us"] = us(percentile(s.echoes, 0.99))
	if s.bulkT > 0 {
		c.layer["bulk_MBps"] = float64(s.bulkB) / 1e6 / s.bulkT.Seconds()
	}
	c.recordUntraced(ph)
	if !c.opts.traced {
		return nil
	}
	s.close(c)

	ts, err := newGatewaySession(true)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer ts.close(c)
	round = roundOn(ts)
	if err := round(0); err != nil {
		return err
	}

	// Counters are read on the loop at each traced round's edges, so
	// the gaps between rounds stay out of the ledger.
	var sum gwReadings
	traced := func(i int) error {
		r0, err := ts.readings()
		if err != nil {
			return err
		}
		if err := round(i); err != nil {
			return err
		}
		r1, err := ts.readings()
		sum.addDelta(r0, r1)
		return err
	}
	ts.tap.reset()
	ts.split = nil
	ts.tap.on.Store(true)
	tph, err := runPhase(tracedLen, 3, 1+len(ph.walls), pr, traced)
	ts.tap.on.Store(false)
	if err != nil {
		return err
	}
	c.recordTraced(tph)
	c.traceOverhead(ph, tph)
	n := len(tph.walls)
	per := func(v int64) float64 { return float64(v) / float64(n) }
	c.recordLoop(sum.loop, n)
	c.recordCore(sum.core, n)
	c.layer["jvm.bytecodes"] = per(sum.bytecodes)
	if sum.core.CPUTime > 0 {
		c.layer["jvm.bytecodes_per_s"] = float64(sum.bytecodes) / sum.core.CPUTime.Seconds()
	}
	c.layer["jvm.socket_dial_ms"] = ms(medianDur(ts.dials))
	c.layer["sockets.mux.data_frames"] = per(sum.dataFrames)
	c.layer["sockets.mux.retransmits"] = per(sum.retransmits)
	c.layer["sockets.mux.dup_acks"] = per(sum.dupAcks)
	c.layer["sockets.mux.credit_frames"] = per(sum.credits)
	wire, payload := ts.tap.wire.Load(), ts.tap.upstream.Load()
	c.layer["sockets.wire_bytes"] = per(wire)
	if wire > 0 {
		c.layer["sockets.wire_efficiency"] = float64(payload) / float64(wire)
	}
	var gws, tabs []time.Duration
	for _, sp := range ts.split {
		tab := sp.tab.end.Sub(sp.tab.start)
		gws, tabs = append(gws, sp.echo.end.Sub(sp.echo.start)-tab), append(tabs, tab)
		c.spans = append(c.spans, sp.echo, sp.tab)
	}
	c.layer["sockets.gateway_us"] = us(medianDur(gws))
	c.layer["sockets.tab_us"] = us(medianDur(tabs))
	pd := func(d time.Duration) float64 { return d.Seconds() / float64(n) }
	c.setLedger(tph, []ledgerEntry{
		{"jvm_slices", pd(sum.core.CPUTime), "core timeslices: echo threads' bytecode and socket natives"},
		{"loop_other", pd(sum.loop.BusyTime - sum.core.CPUTime), "other macrotasks: socket completions, mux frames, resumptions, probes"},
		{"loop_idle", pd(sum.loop.IdleTime), "event loop waiting on the network: gateway, loopback TCP and peer"},
	})
	return nil
}

// newGatewaySession starts the peer, the gateway and the tab, and
// waits until both of the program's sockets have reached the peer.
func newGatewaySession(traced bool) (*gwSession, error) {
	classes, err := rt.CompileWith(map[string]string{"EchoTab.mj": echoProgram})
	if err != nil {
		return nil, err
	}
	s := &gwSession{ended: make(chan error, 1)}
	s.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	accepted := make(chan net.Conn, 2)
	go func() {
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			select {
			case accepted <- conn:
			default:
				conn.Close() // only the program's two sockets belong here
			}
		}
	}()
	var opts sockets.GatewayOptions
	if traced {
		s.tap = &wireTap{}
		gl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.ln.Close()
			return nil, err
		}
		opts.Listener = &tapListener{Listener: gl, tap: s.tap}
		opts.Dial = func(target string) (net.Conn, error) {
			conn, err := net.Dial("tcp", target)
			if err != nil {
				return nil, err
			}
			return &countConn{Conn: conn, n: &s.tap.upstream, on: &s.tap.on}, nil
		}
	}
	s.gw, err = sockets.NewGateway("127.0.0.1:0", s.ln.Addr().String(), opts)
	if err != nil {
		s.ln.Close()
		return nil, err
	}
	win := browser.NewWindow(browser.Chrome28)
	s.tb = openTab(win)
	err = s.tb.do("perfbench-start", func(done func(error)) {
		s.conn = sockets.Stack(win, s.gw.Addr(), sockets.WithMux(2))
		dial := func(_ *browser.Window, _ string, cb func(*sockets.Socket, error)) { s.conn.Dial(cb) }
		if traced {
			dial = func(_ *browser.Window, _ string, cb func(*sockets.Socket, error)) {
				start := time.Now()
				s.conn.Dial(func(sock *sockets.Socket, err error) {
					s.dials = append(s.dials, time.Since(start))
					cb(sock, err)
				})
			}
		}
		s.vm = jvm.NewDoppioVM(win, jvm.DoppioOptions{
			Stdout:           &s.out,
			Provider:         jvm.MapProvider(classes),
			DisableEngineTax: true,
			SocketDialer:     dial,
		})
		s.vm.StartMain("EchoTab", nil, func(err error) {
			s.conn.Close()
			s.ended <- err
		})
		done(nil)
	})
	if err == nil {
		for i := 0; i < 2 && err == nil; i++ {
			select {
			case conn := <-accepted:
				if s.a == nil {
					s.a = conn
				} else {
					s.b = conn
				}
			case err = <-s.ended:
				err = fmt.Errorf("echo program ended before connecting: %v", err)
			case <-time.After(opTimeout):
				err = fmt.Errorf("echo program did not connect within %v", opTimeout)
			}
		}
	}
	if err != nil {
		s.shutdown()
		return nil, err
	}
	return s, nil
}

// close ends the session: closing the peer's connections makes both
// echo threads see end of stream, so the program finishes and prints
// its total, which is checked against what the peer sent.
func (s *gwSession) close(c *runCtx) {
	if s.a == nil {
		return
	}
	s.a.Close()
	s.b.Close()
	s.a, s.b = nil, nil
	select {
	case err := <-s.ended:
		want := fmt.Sprintf("echoed %d\n", s.sent)
		got := ""
		if err == nil {
			// The loop goroutine wrote out before it reported the end.
			got = s.out.String()
		}
		c.check(err == nil && got == want, "tab-gateway program: printed %q (err %v), want %q", got, err, want)
	case <-time.After(opTimeout):
		c.check(false, "tab-gateway program did not end within %v", opTimeout)
	}
	s.shutdown()
}

func (s *gwSession) shutdown() {
	if s.a != nil {
		s.a.Close()
		s.b.Close()
	}
	s.tb.close()
	s.gw.Close()
	s.ln.Close()
}

// round drives both streams at once: A sends l.k messages of 16-256
// bytes, B sends l.l chunks of 64 KiB, each waiting for its echo.
func (s *gwSession) round(c *runCtx, l gwLoad, rng *rand.Rand) error {
	sizes := make([]int, l.k)
	nonces := make([]uint64, l.k)
	for i := range sizes {
		sizes[i] = 16 + rng.Intn(241)
		nonces[i] = rng.Uint64()
	}
	chunks := make([]int, l.l)
	for i := range chunks {
		chunks[i] = rng.Intn(len(s.pool))
	}
	deadline := time.Now().Add(opTimeout)
	s.a.SetDeadline(deadline)
	s.b.SetDeadline(deadline)

	var wg sync.WaitGroup
	var errA, errB error
	var echoes []time.Duration
	var split []echoSplit
	var badA, badB int
	var bulkT time.Duration
	wg.Add(2)
	go func() {
		defer wg.Done()
		msg := make([]byte, 256)
		back := make([]byte, 256)
		for i, n := range sizes {
			m := msg[:n]
			putNonce(m, nonces[i])
			copy(m[nonceBytes:], s.base)
			if s.tap != nil {
				s.tap.arm(m[:nonceBytes])
			}
			start := time.Now()
			if _, errA = s.a.Write(m); errA != nil {
				return
			}
			if _, errA = io.ReadFull(s.a, back[:n]); errA != nil {
				return
			}
			end := time.Now()
			echoes = append(echoes, end.Sub(start))
			if !bytes.Equal(back[:n], m) {
				badA++
			}
			if s.tap != nil {
				if out, in, ok := s.tap.take(); ok {
					split = append(split, echoSplit{
						echo: span{layer: "sockets.echo", start: start, end: end},
						tab:  span{layer: "sockets.tab", start: out, end: in},
					})
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		back := make([]byte, chunkSize)
		start := time.Now()
		for _, k := range chunks {
			if _, errB = s.b.Write(s.pool[k]); errB != nil {
				return
			}
			if _, errB = io.ReadFull(s.b, back); errB != nil {
				return
			}
			if !bytes.Equal(back, s.pool[k]) {
				badB++
			}
		}
		bulkT = time.Since(start)
	}()
	wg.Wait()
	if errA != nil {
		return fmt.Errorf("stream A: %w", errA)
	}
	if errB != nil {
		return fmt.Errorf("stream B: %w", errB)
	}
	c.checkN(l.k, badA, "tab-gateway stream A: %d of %d echoes differ from what was sent", badA, l.k)
	c.checkN(l.l, badB, "tab-gateway stream B: %d of %d chunks differ from what was sent", badB, l.l)
	for _, n := range sizes {
		s.sent += int64(n)
	}
	s.sent += int64(l.l * chunkSize)
	s.echoes = append(s.echoes, echoes...)
	s.split = append(s.split, split...)
	s.bulkB += int64(l.l * chunkSize)
	s.bulkT += bulkT
	return nil
}

func putNonce(b []byte, v uint64) {
	for i := 0; i < nonceBytes; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// gwReadings are the counters read at a traced round's edges. The mux
// counters add the gateway's and the client's sessions, except data
// frames, which count each frame once, at the gateway.
type gwReadings struct {
	loop                                      eventloop.Stats
	core                                      core.Stats
	bytecodes                                 int64
	dataFrames, retransmits, dupAcks, credits int64
}

// readings reads the tab's counters on its loop goroutine, and the
// gateway's session counters.
func (s *gwSession) readings() (gwReadings, error) {
	var r gwReadings
	var cl sockets.MuxStats
	err := s.tb.do("perfbench-read", func(done func(error)) {
		r.loop = s.tb.win.Loop.Stats()
		r.core = s.vm.Runtime().Stats()
		r.bytecodes = s.vm.Instructions
		if m := s.conn.Mux(); m != nil {
			cl = m.Stats()
		}
		done(nil)
	})
	gw := s.gw.Snapshot().Stats
	r.dataFrames = gw.DataIn + gw.DataOut
	r.retransmits = gw.Retransmits + cl.Retransmits
	r.dupAcks = gw.DupAcks + cl.DupAcks
	r.credits = gw.Credits + cl.Credits
	return r, err
}

// addDelta adds the counters' growth from a to b.
func (r *gwReadings) addDelta(a, b gwReadings) {
	r.loop = addLoop(r.loop, loopDelta(a.loop, b.loop))
	addStats(&r.core, b.core)
	subStats(&r.core, a.core)
	r.bytecodes += b.bytecodes - a.bytecodes
	r.dataFrames += b.dataFrames - a.dataFrames
	r.retransmits += b.retransmits - a.retransmits
	r.dupAcks += b.dupAcks - a.dupAcks
	r.credits += b.credits - a.credits
}
