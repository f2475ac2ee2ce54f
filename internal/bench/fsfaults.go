package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/fleet"
	"doppio/internal/fstrace"
	"doppio/internal/jvm"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// FSFaultsParams configures the fault-injection A/B harness: the same
// fstrace workload replayed through the full vfs.Stack once clean and
// once with deterministic faults injected under the retry layer. The
// harness's claim is behavioural, not statistical — the faulty pass
// must produce a bit-identical op log, proving the retry/backoff layer
// absorbed every injected fault.
type FSFaultsParams struct {
	// Backend selects the storage mechanism (same names as
	// FSCacheParams.Backend); remote-style backends ("cloud") are the
	// ones whose network the fault model stands in for.
	Backend string
	// Rate is the per-operation fault probability in [0, 1) — the
	// -fs-faults flag. FaultPlan maps it onto a mix of pre-commit
	// errors, lost acknowledgements, and short transfers.
	Rate float64
	// Seed fixes the fault sequence and retry jitter (-fault-seed).
	Seed int64
	// Latency is the simulated round trip for the cloud backend.
	Latency time.Duration
	// Trace shapes the generated workload.
	Trace fstrace.GenerateParams
}

// FaultPlan maps a single fault rate onto the harness's standard mix:
// errno faults at the full rate (a quarter of them post-commit, the
// lost-ack case), short transfers at half of it.
func FaultPlan(rate float64, seed int64) faultfs.Plan {
	if rate <= 0 {
		return faultfs.Plan{}
	}
	return faultfs.Plan{Seed: seed, ErrRate: rate, PostFrac: 0.25, ShortRate: rate / 2}
}

// faultRetryPolicy is the harness's retry policy: generous attempts so
// absorption is all but certain at the 1–25% rates the harness runs,
// short waits so the bench stays fast, jitter seeded for repeatability.
func faultRetryPolicy(seed int64) retry.Policy {
	return retry.Policy{
		MaxAttempts: 8,
		BaseDelay:   200 * time.Microsecond,
		MaxDelay:    4 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
		Seed:        seed,
	}
}

// FSFaultsPhase is one measured replay pass.
type FSFaultsPhase struct {
	Name  string
	OkOps int
	Wall  time.Duration
}

// FSFaultsResult is the full A/B comparison.
type FSFaultsResult struct {
	Backend  string
	Rate     float64
	Seed     int64
	TraceOps int
	Clean    FSFaultsPhase
	Faulty   FSFaultsPhase
	// Diff is empty when the two op logs are bit-identical, else the
	// first divergence.
	Diff   string
	Faults faultfs.Stats // injector decisions during the faulty pass
	Retry  vfs.RetryStats
	Cache  vfs.CacheStats
}

// BitIdentical reports whether the faulty replay matched the clean one
// operation for operation.
func (r *FSFaultsResult) BitIdentical() bool { return r.Diff == "" }

// RunFSFaults replays the generated trace through the full decorator
// stack — backend → faults → retry → cache (→ instrument) — once with
// a disabled plan and once at the requested rate, and compares the two
// op logs. Seeding happens through a separate fault-free front end so
// both passes start from identical trees.
func RunFSFaults(cfg Config, p FSFaultsParams) (*FSFaultsResult, error) {
	cfg = cfg.withDefaults()
	profile := cfg.Browsers[0]
	hub := cfg.Telemetry
	if hub == nil {
		hub = telemetry.NewHub()
	}
	if p.Backend == "" {
		p.Backend = "cloud"
	}
	trace := fstrace.Generate(p.Trace)
	res := &FSFaultsResult{Backend: p.Backend, Rate: p.Rate, Seed: p.Seed, TraceOps: len(trace.Ops)}

	run := func(label string, plan faultfs.Plan) (FSFaultsPhase, []fstrace.OpResult, vfs.Backend, error) {
		win, bufs := newWindowFS(profile)
		if cfg.Telemetry != nil {
			win.EnableTelemetry(cfg.Telemetry)
		}
		inner, err := NewFSCacheBackend(p.Backend, win, bufs, p.Latency)
		if err != nil {
			return FSFaultsPhase{}, nil, nil, err
		}
		// Instrument innermost so "vfs.<Name>" counts genuine backend
		// round trips (retries included); Stack's own telemetry layer is
		// deliberately omitted to keep that counter's meaning.
		instrumented := vfs.Instrument(inner, hub)
		opts := []vfs.StackOption{
			vfs.WithRetry(vfs.RetryOptions{Policy: faultRetryPolicy(p.Seed), Loop: win.Loop, Hub: hub}),
			vfs.WithCache(vfs.CacheOptions{Hub: hub}),
		}
		if plan.Enabled() {
			opts = append(opts, vfs.WithFaults(plan))
		}
		b := vfs.Stack(instrumented, opts...)
		seedFS := vfs.New(win.Loop, bufs, instrumented)
		fs := vfs.New(win.Loop, bufs, b)

		var phase FSFaultsPhase
		var log []fstrace.OpResult
		if err := fleet.Drive(win.Loop, "fsfaults", func(done func(error)) {
			fstrace.SeedVFS(seedFS, trace, func(err error) {
				if err != nil {
					done(err)
					return
				}
				start := time.Now()
				fstrace.ReplayVFSRecord(win.Loop, fs, trace, cfg.Telemetry, func(ok int, l []fstrace.OpResult, err error) {
					if err != nil {
						done(err)
						return
					}
					phase = FSFaultsPhase{Name: label, OkOps: ok, Wall: time.Since(start)}
					log = l
					done(nil)
				})
			})
		}); err != nil {
			return FSFaultsPhase{}, nil, nil, err
		}
		return phase, log, b, nil
	}

	clean, cleanLog, _, err := run("clean", faultfs.Plan{})
	if err != nil {
		return nil, err
	}
	faulty, faultyLog, b, err := run("faulty", FaultPlan(p.Rate, p.Seed))
	if err != nil {
		return nil, err
	}
	res.Clean, res.Faulty = clean, faulty
	res.Diff = fstrace.DiffLogs(cleanLog, faultyLog)
	if fs, ok := vfs.Find[vfs.FaultStatser](b); ok {
		res.Faults = fs.FaultStats()
	}
	if rs, ok := vfs.Find[vfs.RetryStatser](b); ok {
		res.Retry = rs.RetryStats()
	}
	if cs, ok := vfs.Find[vfs.CacheStatser](b); ok {
		res.Cache = cs.CacheStats()
	}
	return res, nil
}

// FormatFSFaults renders the comparison; the "bit-identical" verdict
// line is stable for grepping in CI smoke checks.
func FormatFSFaults(r *FSFaultsResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fault A/B: backend=%s trace=%d ops rate=%.0f%% seed=%d\n",
		r.Backend, r.TraceOps, r.Rate*100, r.Seed)
	for _, ph := range []FSFaultsPhase{r.Clean, r.Faulty} {
		fmt.Fprintf(&sb, "  %-7s %5d/%d ok in %v\n", ph.Name+":", ph.OkOps, r.TraceOps, ph.Wall.Round(time.Microsecond))
	}
	if r.BitIdentical() {
		fmt.Fprintf(&sb, "  op log: bit-identical to fault-free run\n")
	} else {
		fmt.Fprintf(&sb, "  op log: DIVERGED — %s\n", r.Diff)
	}
	f := r.Faults
	fmt.Fprintf(&sb, "  injected: %d pre / %d post / %d short / %d delays over %d backend calls\n",
		f.ErrsPre, f.ErrsPost, f.Shorts, f.Delays, f.Ops)
	rt := r.Retry
	fmt.Fprintf(&sb, "  retry: %d ops, %d attempts (%d retries), %d lost acks recovered via %d verify probes, %v backoff\n",
		rt.Ops, rt.Attempts, rt.Retries, rt.Recovered, rt.VerifyProbes,
		time.Duration(rt.BackoffNanos).Round(time.Microsecond))
	fmt.Fprintf(&sb, "  breaker: %s (%d fast-fails, %d deadline-exceeded, %d degraded serves)\n",
		rt.BreakerState, rt.FastFails, rt.DeadlineExceeded, r.Cache.DegradedServes)
	return sb.String()
}

// ClassloadFaultsResult reports JVM class loading through the faulty
// stack: every class must still load, with byte-exact contents.
type ClassloadFaultsResult struct {
	Backend    string
	Classes    int
	Rate       float64
	Seed       int64
	LoadErrors int
	Mismatches int // classes whose loaded bytes differed from the seed
	Faults     faultfs.Stats
	Retry      vfs.RetryStats
}

// RunClassloadFaults loads the compiled workload classes through a
// VFSClassProvider over the faulty stack — the §6.4 class-load path
// under an unreliable backend.
func RunClassloadFaults(cfg Config, backendName string, rate float64, seed int64, latency time.Duration) (*ClassloadFaultsResult, error) {
	cfg = cfg.withDefaults()
	profile := cfg.Browsers[0]
	hub := cfg.Telemetry
	if hub == nil {
		hub = telemetry.NewHub()
	}
	classes, err := workloads.Classes()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(classes))
	for n := range classes {
		names = append(names, n)
	}
	sort.Strings(names)

	win, bufs := newWindowFS(profile)
	if cfg.Telemetry != nil {
		win.EnableTelemetry(cfg.Telemetry)
	}
	inner, err := NewFSCacheBackend(backendName, win, bufs, latency)
	if err != nil {
		return nil, err
	}
	instrumented := vfs.Instrument(inner, hub)
	b := vfs.Stack(instrumented,
		vfs.WithFaults(FaultPlan(rate, seed)),
		vfs.WithRetry(vfs.RetryOptions{Policy: faultRetryPolicy(seed), Loop: win.Loop, Hub: hub}),
		vfs.WithCache(vfs.CacheOptions{Hub: hub}),
	)
	seedFS := vfs.New(win.Loop, bufs, instrumented)
	fs := vfs.New(win.Loop, bufs, b)
	provider := &jvm.VFSClassProvider{FS: fs, Dirs: []string{"/cp1", "/cp2"}}

	res := &ClassloadFaultsResult{Backend: backendName, Classes: len(names), Rate: rate, Seed: seed}
	if err := fleet.Drive(win.Loop, "classload-faults", func(done func(error)) {
		var seedStep func(i int, then func())
		seedStep = func(i int, then func()) {
			if i == len(names) {
				then()
				return
			}
			p := "/cp2/" + names[i] + ".class"
			dir := p[:strings.LastIndexByte(p, '/')]
			seedFS.MkdirAll(dir, func(err error) {
				if err != nil {
					done(err)
					return
				}
				seedFS.WriteFile(p, classes[names[i]], func(err error) {
					if err != nil {
						done(err)
						return
					}
					seedStep(i+1, then)
				})
			})
		}
		var load func(i int)
		load = func(i int) {
			if i == len(names) {
				done(nil)
				return
			}
			name := names[i]
			provider.BytesAsync(name, func(data []byte, err error) {
				switch {
				case err != nil:
					res.LoadErrors++
				case string(data) != string(classes[name]):
					res.Mismatches++
				}
				load(i + 1)
			})
		}
		seedFS.MkdirAll("/cp1", func(err error) {
			if err != nil {
				done(err)
				return
			}
			seedStep(0, func() { load(0) })
		})
	}); err != nil {
		return nil, err
	}
	if fs, ok := vfs.Find[vfs.FaultStatser](b); ok {
		res.Faults = fs.FaultStats()
	}
	if rs, ok := vfs.Find[vfs.RetryStatser](b); ok {
		res.Retry = rs.RetryStats()
	}
	return res, nil
}

// FormatClassloadFaults renders the class-load-under-faults report.
func FormatClassloadFaults(r *ClassloadFaultsResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "class-load under faults: backend=%s classes=%d rate=%.0f%% seed=%d\n",
		r.Backend, r.Classes, r.Rate*100, r.Seed)
	if r.LoadErrors == 0 && r.Mismatches == 0 {
		fmt.Fprintf(&sb, "  all classes loaded byte-exact through the faulty stack\n")
	} else {
		fmt.Fprintf(&sb, "  FAILED: %d load errors, %d byte mismatches\n", r.LoadErrors, r.Mismatches)
	}
	f := r.Faults
	rt := r.Retry
	fmt.Fprintf(&sb, "  injected: %d pre / %d post / %d short over %d backend calls; retry absorbed %d with %v backoff\n",
		f.ErrsPre, f.ErrsPost, f.Shorts, f.Ops, rt.Retries,
		time.Duration(rt.BackoffNanos).Round(time.Microsecond))
	return sb.String()
}
