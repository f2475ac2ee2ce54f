package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run (--trace 0) reports, on
// every workload. Each is a median over the rounds of the measured
// phase (or over the set-ups, for setup_s).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics a traced run (--trace 1) reports, on every
// workload; a layer the workload leaves idle reads 0. Counts and
// times are means per round unless the name says otherwise. See
// README.md for the end-to-end metric each should move.
var perLayer = []metricDef{
	{"eventloop.tasks", "count"},
	{"eventloop.busy_s", "s"},
	{"eventloop.idle_s", "s"},
	{"eventloop.longest_task_ms", "ms"},

	{"core.slices", "count"},
	{"core.suspensions", "count"},
	{"core.suspended_ms", "ms"},
	{"core.slice_cpu_s", "s"},
	{"core.context_switches", "count"},

	{"jvm.bytecodes", "count"},
	{"jvm.bytecodes_per_s", "1/s"},
	{"jvm.classloads", "count"},
	{"jvm.classload_ms", "ms"},
	{"jvm.socket_dial_ms", "ms"},

	{"vfs.backend.calls", "count"},
	{"vfs.backend.calls_per_op", "ratio"},
	{"vfs.backend.stat_us", "us"},
	{"vfs.backend.open_us", "us"},
	{"vfs.backend.sync_us", "us"},
	{"vfs.backend.readdir_us", "us"},
	{"vfs.backend.busy_ms", "ms"},
	{"vfs.backend.wait_ms", "ms"},

	{"sockets.mux.data_frames", "count"},
	{"sockets.mux.retransmits", "count"},
	{"sockets.mux.dup_acks", "count"},
	{"sockets.mux.credit_frames", "count"},
	{"sockets.wire_bytes", "bytes"},
	{"sockets.wire_efficiency", "ratio"},
	{"sockets.gateway_us", "us"},
	{"sockets.tab_us", "us"},

	{"fleet.tenants", "count"},
	{"fleet.submit_us", "us"},
	{"fleet.start_wait_ms", "ms"},
	{"fleet.run_ms", "ms"},
	{"fleet.evictions", "count"},
	{"fleet.refused", "count"},
	{"proc.spawn_us", "us"},
	{"proc.pipeline_ms", "ms"},
	{"minic.run_ms", "ms"},

	{"go.cpu_s", "s"},
	{"go.cpu_util", "ratio"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},

	{"error_rate", "ratio"},
	{"ui_delay_p50_ms", "ms"},
	{"ui_delay_p99_ms", "ms"},
	{"fs_read_p50_us", "us"},
	{"fs_read_p99_us", "us"},
	{"fs_write_p50_us", "us"},
	{"fs_write_p99_us", "us"},
	{"echo_p50_us", "us"},
	{"echo_p99_us", "us"},
	{"bulk_MBps", "MB/s"},
	{"tenant_p50_ms", "ms"},
	{"tenant_p99_ms", "ms"},

	{"ledger.run_s", "s"},
	{"ledger.jvm_slices_s", "s"},
	{"ledger.jvm_classload_s", "s"},
	{"ledger.vfs_backend_s", "s"},
	{"ledger.loop_other_s", "s"},
	{"ledger.loop_idle_s", "s"},
	{"ledger.residual_s", "s"},
	{"trace.overhead_pct", "%"},
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	// setups is how many times the workload is set up; setup_s is
	// the median. Zero means the workload's default.
	setups int
	// small shrinks every workload's unit of work, for self-tests.
	small bool
	// expect overrides expected outputs by key, for self-tests.
	expect map[string]string
}

// runCtx collects one workload run's checks and metrics.
type runCtx struct {
	opts options
	rng  *rand.Rand

	e2e   map[string]float64
	layer map[string]float64

	attempted  int64
	failed     int64
	mismatches []string
	rounds     int
	ledger     []ledgerEntry
	spans      []span // the traced phase's spans, written out at the end
}

func newRunCtx(o options) *runCtx {
	return &runCtx{
		opts:  o,
		rng:   rand.New(rand.NewSource(o.seed)),
		e2e:   map[string]float64{},
		layer: map[string]float64{},
	}
}

// check counts one checked operation; a false ok is a failure.
func (c *runCtx) check(ok bool, format string, args ...interface{}) {
	c.attempted++
	if !ok {
		c.failed++
		c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	}
}

// checkN counts n checked operations of which bad failed.
func (c *runCtx) checkN(n, bad int, format string, args ...interface{}) {
	c.attempted += int64(n)
	if bad > 0 {
		c.failed += int64(bad)
		c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	}
}

// result assembles the final line. A run error, any failed operation,
// or a missing metric makes the run incorrect.
func (c *runCtx) result(err error) result {
	if err != nil {
		c.attempted++
		c.failed++
		c.mismatches = append(c.mismatches, "error: "+err.Error())
	}
	res := result{Correct: c.failed == 0, Metrics: map[string]metricValue{}}
	if c.attempted > 0 {
		c.layer["error_rate"] = float64(c.failed) / float64(c.attempted)
	}
	defs, vals := endToEnd, c.e2e
	if c.opts.traced {
		defs, vals = perLayer, c.layer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !c.opts.traced && err == nil {
			res.Correct = false
			c.mismatches = append(c.mismatches, "metric not measured: "+d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Attempted = c.attempted
	res.Failed = c.failed
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	return res
}

// setupWarmUp is how long set-ups run untimed before the timed ones:
// a host that was idle runs the first fraction of a second of a
// process up to 1.5x slower, which would otherwise land in setup_s.
const setupWarmUp = time.Second

// setupN sets the workload up untimed for setupWarmUp (at least once),
// then n times timed, records the median of the timed ones as
// setup_s, tears all but the last set-up down, and returns the last.
func setupN[S any](c *runCtx, n int, setup func() (S, error), teardown func(S)) (S, error) {
	warm := setupWarmUp
	if c.opts.setups > 0 {
		n, warm = c.opts.setups, 0
	}
	var s S
	for start := time.Now(); ; {
		var err error
		if s, err = setup(); err != nil {
			return s, fmt.Errorf("set-up: %w", err)
		}
		teardown(s)
		if time.Since(start) >= warm {
			break
		}
	}
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		s, err = setup()
		if err != nil {
			return s, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			teardown(s)
		}
	}
	c.e2e["setup_s"] = medianF(times)
	return s, nil
}

// phase is one measured stretch of rounds.
type phase struct {
	walls  []time.Duration // wall time, per round
	allocs []uint64        // Go heap bytes allocated, per round
	total  time.Duration
	cpu    time.Duration // process user+system CPU
	gcs    uint32
	pause  time.Duration
	delays []time.Duration // probe delays
}

// runPhase runs round(i) back to back until d has elapsed (and at
// least minRounds times), numbering rounds from first, while pr
// samples the responsiveness of the workload's loops.
func runPhase(d time.Duration, minRounds, first int, pr *prober, round func(i int) error) (*phase, error) {
	ph := &phase{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	if pr != nil {
		pr.start()
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var err error
	for i := first; ; i++ {
		if i-first >= minRounds && time.Since(start) >= d {
			break
		}
		// Each round starts from a collected heap, so it pays for its
		// own garbage and not for what earlier rounds left behind.
		runtime.GC()
		metrics.Read(sample)
		a0 := sample[0].Value.Uint64()
		t0 := time.Now()
		err = round(i)
		wall := time.Since(t0)
		metrics.Read(sample)
		if err != nil {
			break
		}
		ph.walls = append(ph.walls, wall)
		ph.allocs = append(ph.allocs, sample[0].Value.Uint64()-a0)
	}
	if pr != nil {
		ph.delays = pr.stop()
	}
	ph.total = time.Since(start)
	ph.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.gcs = ms1.NumGC - ms0.NumGC
	ph.pause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return ph, err
}

// meanWall is the mean round wall time in seconds.
func (ph *phase) meanWall() float64 {
	if len(ph.walls) == 0 {
		return 0
	}
	var sum time.Duration
	for _, w := range ph.walls {
		sum += w
	}
	return sum.Seconds() / float64(len(ph.walls))
}

// recordUntraced stores what an untraced phase measures: the
// end-to-end metrics, and the probe delays (reported per layer, so a
// traced run takes them from its untraced half).
func (c *runCtx) recordUntraced(ph *phase) {
	c.rounds = len(ph.walls)
	c.e2e["run_s"] = medianDur(ph.walls).Seconds()
	allocs := make([]float64, len(ph.allocs))
	for i, a := range ph.allocs {
		allocs[i] = float64(a) / 1e6
	}
	c.e2e["alloc_mb"] = medianF(allocs)
	c.layer["ui_delay_p50_ms"] = ms(percentile(ph.delays, 0.50))
	c.layer["ui_delay_p99_ms"] = ms(percentile(ph.delays, 0.99))
}

// recordTraced stores the go.* layer of a traced phase, per round.
func (c *runCtx) recordTraced(ph *phase) {
	c.rounds = len(ph.walls)
	n := float64(len(ph.walls))
	c.layer["go.cpu_s"] = ph.cpu.Seconds() / n
	if ph.total > 0 {
		c.layer["go.cpu_util"] = ph.cpu.Seconds() / ph.total.Seconds() / float64(runtime.GOMAXPROCS(0))
	}
	c.layer["go.gc_cycles"] = float64(ph.gcs) / n
	c.layer["go.gc_pause_ms"] = ms(ph.pause) / n
}

// traceOverhead records how much slower traced rounds ran than
// untraced ones in the same run, by median round wall time.
func (c *runCtx) traceOverhead(untraced, traced *phase) {
	u, t := medianDur(untraced.walls), medianDur(traced.walls)
	if u > 0 {
		c.layer["trace.overhead_pct"] = (t.Seconds() - u.Seconds()) / u.Seconds() * 100
	}
}

// ledgerEntry is one layer's share of the mean traced round.
type ledgerEntry struct {
	name    string
	seconds float64
	what    string
}

// setLedger records per-layer self times (seconds per round) and the
// residual that makes them sum to the mean traced round wall time.
func (c *runCtx) setLedger(ph *phase, parts []ledgerEntry) {
	run := ph.meanWall()
	rest := run
	for _, p := range parts {
		rest -= p.seconds
		c.layer["ledger."+p.name+"_s"] = p.seconds
	}
	c.ledger = append(append([]ledgerEntry(nil), parts...),
		ledgerEntry{"residual", rest, "round wall time outside every part above"},
		ledgerEntry{"run", run, "mean traced round wall time"})
	c.layer["ledger.residual_s"] = rest
	c.layer["ledger.run_s"] = run
}

// phaseLengths splits --seconds: an untraced run measures for all of
// it; a traced run measures an untraced half (the overhead baseline
// and the workload-level latencies) and a traced half.
func (c *runCtx) phaseLengths() (untraced, traced time.Duration) {
	total := time.Duration(c.opts.seconds * float64(time.Second))
	if !c.opts.traced {
		return total, 0
	}
	return total / 2, total - total/2
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile is the nearest-rank q-quantile of an unsorted sample.
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func medianDur(xs []time.Duration) time.Duration { return percentile(xs, 0.5) }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
