package main

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"doppio/internal/core"
	"doppio/internal/jvm"
	"doppio/internal/vfs"
)

// backendOps are the Backend methods whose call-to-callback latency
// is reported per method.
var backendOps = []string{"stat", "open", "sync", "readdir"}

// timedBackend is a vfs.Backend decorator recording, per call, a busy
// span (the synchronous part of the call, on the loop goroutine) and
// the latency from the call to its callback. It records only while on
// is set, so one seeded file system serves both halves of a traced
// run. All methods run on the file system's loop goroutine.
type timedBackend struct {
	inner vfs.Backend
	on    bool
	log   spanLog
	calls int
	wait  time.Duration
	lat   map[string][]time.Duration
}

func newTimedBackend(inner vfs.Backend) *timedBackend {
	return &timedBackend{inner: inner, lat: map[string][]time.Duration{}}
}

// reset clears the recorded calls.
func (b *timedBackend) reset() {
	b.log = spanLog{}
	b.calls, b.wait = 0, 0
	b.lat = map[string][]time.Duration{}
}

// call times one backend call: issue runs the call, handing it a
// function its callback must invoke first.
func (b *timedBackend) call(op string, issue func(returned func())) {
	if !b.on {
		issue(func() {})
		return
	}
	start := time.Now()
	var ret time.Time
	issue(func() {
		now := time.Now()
		b.lat[op] = append(b.lat[op], now.Sub(start))
		if !ret.IsZero() {
			b.wait += now.Sub(ret)
		}
	})
	ret = time.Now()
	b.calls++
	b.log.add(span{layer: "vfs.backend", start: start, end: ret})
}

func (b *timedBackend) Name() string   { return b.inner.Name() }
func (b *timedBackend) ReadOnly() bool { return b.inner.ReadOnly() }

func (b *timedBackend) Stat(p string, cb func(vfs.Stats, error)) {
	b.call("stat", func(returned func()) {
		b.inner.Stat(p, func(st vfs.Stats, err error) { returned(); cb(st, err) })
	})
}

func (b *timedBackend) Open(p string, cb func([]byte, error)) {
	b.call("open", func(returned func()) {
		b.inner.Open(p, func(data []byte, err error) { returned(); cb(data, err) })
	})
}

func (b *timedBackend) Sync(p string, data []byte, cb func(error)) {
	b.call("sync", func(returned func()) {
		b.inner.Sync(p, data, func(err error) { returned(); cb(err) })
	})
}

func (b *timedBackend) Unlink(p string, cb func(error)) {
	b.call("unlink", func(returned func()) {
		b.inner.Unlink(p, func(err error) { returned(); cb(err) })
	})
}

func (b *timedBackend) Rmdir(p string, cb func(error)) {
	b.call("rmdir", func(returned func()) {
		b.inner.Rmdir(p, func(err error) { returned(); cb(err) })
	})
}

func (b *timedBackend) Mkdir(p string, cb func(error)) {
	b.call("mkdir", func(returned func()) {
		b.inner.Mkdir(p, func(err error) { returned(); cb(err) })
	})
}

func (b *timedBackend) Readdir(p string, cb func([]string, error)) {
	b.call("readdir", func(returned func()) {
		b.inner.Readdir(p, func(names []string, err error) { returned(); cb(names, err) })
	})
}

func (b *timedBackend) Rename(oldPath, newPath string, cb func(error)) {
	b.call("rename", func(returned func()) {
		b.inner.Rename(oldPath, newPath, func(err error) { returned(); cb(err) })
	})
}

// timedProvider wraps a JVM class provider, recording one span per
// class fetch. With an in-memory provider the callback runs inside
// the call, so the span covers parsing and linking the class too.
type timedProvider struct {
	inner jvm.AsyncProvider
	log   *spanLog
	rt    *core.Runtime // set once the VM exists
}

func (p *timedProvider) BytesAsync(name string, cb func([]byte, error)) {
	sp := span{layer: "jvm.classload", start: time.Now(), inSlice: sliceRunning(p.rt)}
	p.inner.BytesAsync(name, cb)
	sp.end = time.Now()
	p.log.add(sp)
}

// wireTap observes the gateway's connections while on is set: bytes
// on the client-facing (WebSocket) side and the upstream (TCP) side,
// and when the armed stream-A message crosses the client-facing conn
// in each direction.
type wireTap struct {
	on       atomic.Bool
	wire     atomic.Int64
	upstream atomic.Int64

	mu      sync.Mutex
	nonce   []byte
	out, in time.Time // toward the tab, back from the tab
	armed   bool
}

func (t *wireTap) reset() {
	t.wire.Store(0)
	t.upstream.Store(0)
}

// arm starts watching for the next stream-A message, marked by nonce.
func (t *wireTap) arm(nonce []byte) {
	t.mu.Lock()
	t.nonce = append(t.nonce[:0], nonce...)
	t.out, t.in = time.Time{}, time.Time{}
	t.armed = true
	t.mu.Unlock()
}

// take returns when the armed message left the gateway toward the tab
// and when its echo came back.
func (t *wireTap) take() (out, in time.Time, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.armed = false
	return t.out, t.in, !t.out.IsZero() && !t.in.IsZero() && !t.in.Before(t.out)
}

// saw scans data crossing the client-facing conn for the armed nonce.
func (t *wireTap) saw(data []byte, toTab bool, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.armed || !bytes.Contains(data, t.nonce) {
		return
	}
	switch {
	case toTab && t.out.IsZero():
		t.out = at
	case !toTab && t.in.IsZero() && !t.out.IsZero():
		t.in = at
	}
}

// tapListener wraps the gateway's listener so every accepted
// client-facing conn is observed.
type tapListener struct {
	net.Listener
	tap *wireTap
}

func (l *tapListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: conn, tap: l.tap}, nil
}

type tapConn struct {
	net.Conn
	tap *wireTap
	// tail keeps the end of the previous read, so a nonce split
	// across two reads is still found. Only the gateway's reader
	// goroutine reads a conn.
	tail []byte
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.tap.on.Load() {
		at := time.Now()
		c.tap.wire.Add(int64(n))
		buf := append(c.tail, p[:n]...)
		c.tap.saw(buf, false, at)
		keep := nonceBytes - 1
		if len(buf) < keep {
			keep = len(buf)
		}
		c.tail = append(c.tail[:0], buf[len(buf)-keep:]...)
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	if c.tap.on.Load() {
		c.tap.saw(p, true, time.Now())
	}
	n, err := c.Conn.Write(p)
	if n > 0 && c.tap.on.Load() {
		c.tap.wire.Add(int64(n))
	}
	return n, err
}

// countConn counts the bytes of one upstream conn while on is set.
type countConn struct {
	net.Conn
	n  *atomic.Int64
	on *atomic.Bool
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.on.Load() {
		c.n.Add(int64(n))
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.on.Load() {
		c.n.Add(int64(n))
	}
	return n, err
}
