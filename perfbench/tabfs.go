package main

import (
	"bytes"
	"fmt"
	"time"

	"doppio/internal/buffer"
	"doppio/internal/eventloop"
	"doppio/internal/fleet"
	"doppio/internal/fstrace"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// saveFile is one file of the seeded save phase: rewritten with body,
// then extended with tail, then read back.
type saveFile struct {
	path       string
	body, tail []byte
}

// fsSession is one seeded tab-fs set-up: a tab whose file system is
// the IndexedDB-style backend holding the trace's file tree.
type fsSession struct {
	tb      *tab
	fs      *vfs.FS
	timed   *timedBackend // nil on an untraced run
	trace   *fstrace.Trace
	want    []fstrace.OpResult
	save    []saveFile
	fsOps   int            // vfs.FS calls per round
	hub     *telemetry.Hub // per-kind call latency of the measured rounds
	roundNo int
}

// runTabFS: one tab replays the paper's Figure 6 javac trace profile,
// scaled to a quarter, through vfs.FS on the IndexedDB-style backend, then a seeded save
// phase rewrites, appends and reads back files of 1-64 KiB.
func runTabFS(c *runCtx) error {
	// A quarter of the paper's javac trace keeps its mix of operations
	// and file sizes while one set-up (seeding the tree through
	// IndexedDB round trips) stays within a few seconds.
	scale, nSave := 4, 16
	if c.opts.small {
		scale, nSave = 40, 3
	}
	paper := fstrace.PaperParams()
	params := fstrace.GenerateParams{
		Ops:          paper.Ops / scale,
		UniqueFiles:  paper.UniqueFiles / scale,
		BytesRead:    paper.BytesRead / scale,
		BytesWritten: paper.BytesWritten / scale,
	}
	trace := fstrace.Generate(params)
	want, err := referenceLog(trace)
	if err != nil {
		return err
	}
	save := savePlan(c, nSave)

	s, err := setupN(c, 3, func() (*fsSession, error) {
		return newFSSession(trace, c.opts.traced)
	}, func(s *fsSession) { s.tb.close() })
	if err != nil {
		return err
	}
	s.want, s.save = want, save
	s.fsOps = len(trace.Ops) + 3*len(save)
	defer s.tb.close()

	pr := c.newProber()
	round := func(int) error {
		pr.setLoops(s.tb.win.Loop)
		return s.round(c)
	}
	if err := round(0); err != nil {
		return err
	}
	untracedLen, tracedLen := c.phaseLengths()
	s.hub = telemetry.NewHub()
	ph, err := runPhase(untracedLen, 3, 1, pr, round)
	if err != nil {
		return err
	}
	reads, writes := s.latency(fstrace.OpRead), s.latency(fstrace.OpWrite)
	c.layer["fs_read_p50_us"] = us(time.Duration(reads.Quantile(0.50)))
	c.layer["fs_read_p99_us"] = us(time.Duration(reads.Quantile(0.99)))
	c.layer["fs_write_p50_us"] = us(time.Duration(writes.Quantile(0.50)))
	c.layer["fs_write_p99_us"] = us(time.Duration(writes.Quantile(0.99)))
	c.recordUntraced(ph)
	if !c.opts.traced {
		return nil
	}

	// Loop counters are read on the loop at each traced round's edges,
	// so the gaps between rounds stay out of the ledger.
	var lp eventloop.Stats
	traced := func(i int) error {
		l0, err := s.tb.loopStats()
		if err != nil {
			return err
		}
		if err := round(i); err != nil {
			return err
		}
		l1, err := s.tb.loopStats()
		lp = addLoop(lp, loopDelta(l0, l1))
		return err
	}
	s.timed.reset()
	s.timed.on = true
	tph, err := runPhase(tracedLen, 3, 1+len(ph.walls), pr, traced)
	s.timed.on = false
	if err != nil {
		return err
	}
	c.recordTraced(tph)
	c.traceOverhead(ph, tph)
	n := len(tph.walls)
	c.recordLoop(lp, n)
	// The backend counters are read on the loop goroutine, where the
	// decorator writes them.
	var calls int
	var wait time.Duration
	var lat map[string][]time.Duration
	var tot spanTotals
	if err := s.tb.do("perfbench-read", func(done func(error)) {
		calls, wait, lat, tot = s.timed.calls, s.timed.wait, s.timed.lat, s.timed.log.totals()
		c.spans = s.timed.log.spans
		done(nil)
	}); err != nil {
		return err
	}
	busy := tot.outside["vfs.backend"] + tot.inside["vfs.backend"]
	c.layer["vfs.backend.calls"] = float64(calls) / float64(n)
	c.layer["vfs.backend.calls_per_op"] = float64(calls) / float64(n*s.fsOps)
	for _, op := range backendOps {
		c.layer["vfs.backend."+op+"_us"] = us(percentile(lat[op], 0.50))
	}
	c.layer["vfs.backend.busy_ms"] = ms(busy) / float64(n)
	c.layer["vfs.backend.wait_ms"] = ms(wait) / float64(n)
	per := func(d time.Duration) float64 { return d.Seconds() / float64(n) }
	c.setLedger(tph, []ledgerEntry{
		{"vfs_backend", per(busy), "synchronous part of IndexedDB backend calls, string packing included"},
		{"loop_other", per(lp.BusyTime - busy), "other macrotasks: vfs front end, store completions, unpacking, probes"},
		{"loop_idle", per(lp.IdleTime), "event loop waiting for storage completions"},
	})
	return nil
}

// newFSSession opens a Chrome 28 tab, mounts the IndexedDB-style
// backend (behind the timing decorator on a traced run) and seeds the
// trace's file tree through vfs.FS.
func newFSSession(trace *fstrace.Trace, traced bool) (*fsSession, error) {
	env := fleet.NewEnv(fleet.DefaultProfile(), nil)
	var root vfs.Backend = vfs.NewIndexedDBFS(env.Win.IndexedDB, env.Bufs)
	s := &fsSession{trace: trace, hub: telemetry.NewHub()}
	if traced {
		s.timed = newTimedBackend(root)
		root = s.timed
	}
	s.fs = env.NewFS(root)
	s.tb = openTab(env.Win)
	err := s.tb.do("perfbench-seed", func(done func(error)) {
		fstrace.SeedVFS(s.fs, trace, func(err error) {
			if err != nil {
				done(err)
				return
			}
			s.fs.MkdirAll("/save", done)
		})
	})
	if err != nil {
		s.tb.close()
		return nil, err
	}
	return s, nil
}

// round replays the trace through the library's recorder, which times
// every call into the session's hub, checks the operation log, then
// runs the save phase.
func (s *fsSession) round(c *runCtx) error {
	s.roundNo++
	var log []fstrace.OpResult
	err := s.tb.do("perfbench-replay", func(done func(error)) {
		fstrace.ReplayVFSRecord(s.tb.win.Loop, s.fs, s.trace, s.hub, func(_ int, l []fstrace.OpResult, err error) {
			log = l
			if err != nil {
				done(err)
				return
			}
			s.savePhase(c, 0, done)
		})
	})
	if err != nil {
		return err
	}
	diff := fstrace.DiffLogs(log, s.want)
	c.checkN(len(s.trace.Ops), boolInt(diff != ""), "tab-fs round %d: operation log differs from the reference: %s", s.roundNo, diff)
	return nil
}

// latency is the session hub's call-to-callback histogram for kind:
// the trace's calls of that kind and the save phase's.
func (s *fsSession) latency(kind fstrace.OpKind) *telemetry.Histogram {
	return s.hub.Registry.Histogram("fstrace", string(kind))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// savePhase rewrites, appends and reads back save file i onwards, in
// plan order, checking every byte read back.
func (s *fsSession) savePhase(c *runCtx, i int, done func(error)) {
	if i == len(s.save) {
		done(nil)
		return
	}
	f := s.save[i]
	reads, writes := s.latency(fstrace.OpRead), s.latency(fstrace.OpWrite)
	start := time.Now()
	s.fs.WriteFile(f.path, f.body, func(err error) {
		writes.ObserveSince(start)
		c.check(err == nil, "tab-fs save %s: write: %v", f.path, err)
		start = time.Now()
		s.fs.AppendFile(f.path, f.tail, func(err error) {
			writes.ObserveSince(start)
			c.check(err == nil, "tab-fs save %s: append: %v", f.path, err)
			start = time.Now()
			s.fs.ReadFile(f.path, func(b *buffer.Buffer, err error) {
				reads.ObserveSince(start)
				ok := err == nil && len(b.Bytes()) == len(f.body)+len(f.tail) &&
					bytes.Equal(b.Bytes()[:len(f.body)], f.body) && bytes.Equal(b.Bytes()[len(f.body):], f.tail)
				c.check(ok, "tab-fs save %s: read back differs (err %v)", f.path, err)
				s.savePhase(c, i+1, done)
			})
		})
	})
}

// savePlan draws the save phase from the seed: n files, each
// rewritten and then extended with seeded bytes. The 2n sizes are
// spread evenly over 1-64 KiB and dealt out in seeded order, so every
// seed saves the same number of bytes.
func savePlan(c *runCtx, n int) []saveFile {
	sizes := make([]int, 2*n)
	for i := range sizes {
		sizes[i] = 1024 + i*63*1024/(2*n-1)
	}
	c.rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	out := make([]saveFile, n)
	for i := range out {
		body := make([]byte, sizes[2*i])
		tail := make([]byte, sizes[2*i+1])
		c.rng.Read(body)
		c.rng.Read(tail)
		out[i] = saveFile{path: fmt.Sprintf("/save/doc%02d.bin", i), body: body, tail: tail}
	}
	return out
}

// referenceLog is the operation log the trace gives on a freshly
// seeded in-memory file system, the reference every IndexedDB replay
// must match. Every call of the trace succeeds there.
func referenceLog(t *fstrace.Trace) ([]fstrace.OpResult, error) {
	env := fleet.NewEnv(fleet.DefaultProfile(), nil)
	fs := env.NewFS(vfs.NewInMemory())
	tb := openTab(env.Win)
	var log []fstrace.OpResult
	err := tb.do("perfbench-reference", func(done func(error)) {
		fstrace.SeedVFS(fs, t, func(err error) {
			if err != nil {
				done(err)
				return
			}
			fstrace.ReplayVFSRecord(env.Win.Loop, fs, t, nil, func(_ int, l []fstrace.OpResult, err error) {
				log = l
				done(err)
			})
		})
	})
	if cerr := tb.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	for i, r := range log {
		if r.Errno != "" {
			return nil, fmt.Errorf("reference replay: op %d failed: %v", i, r)
		}
	}
	return log, nil
}
