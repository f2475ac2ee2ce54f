package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/fleet"
	"doppio/internal/fstrace"
	"doppio/internal/jvm"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// FSCacheParams configures an fstrace A/B comparison of a backend with
// and without the CachedBackend decorator.
type FSCacheParams struct {
	// Backend selects the storage mechanism: "inmemory",
	// "localstorage", "indexeddb", or "cloud".
	Backend string
	// WriteBack enables buffered (write-back) mode for the cached pass.
	WriteBack bool
	// Latency is the simulated round trip for the cloud backend.
	Latency time.Duration
	// Trace shapes the generated workload.
	Trace fstrace.GenerateParams
}

// FSCachePhase is one measured replay pass.
type FSCachePhase struct {
	Name       string
	BackendOps int64 // operations that reached the real backend
	OkOps      int   // trace operations that succeeded
	Wall       time.Duration
}

// FSCacheResult is the full A/B comparison: the same trace replayed
// against the bare backend, then twice against the cached backend
// (cold, then warm).
type FSCacheResult struct {
	Backend   string
	WriteBack bool
	TraceOps  int
	Uncached  FSCachePhase
	Cold      FSCachePhase
	Warm      FSCachePhase
	Cache     vfs.CacheStats
}

// NewFSCacheBackend constructs the named backend inside a window.
func NewFSCacheBackend(name string, w *browser.Window, bufs *buffer.Factory, latency time.Duration) (vfs.Backend, error) {
	switch name {
	case "inmemory":
		return vfs.NewInMemory(), nil
	case "localstorage":
		return vfs.NewLocalStorageFS(w.LocalStorage, bufs), nil
	case "indexeddb":
		return vfs.NewIndexedDBFS(w.IndexedDB, bufs), nil
	case "cloud":
		return vfs.NewCloudFS(w.Loop, vfs.NewCloudStore(latency)), nil
	}
	return nil, fmt.Errorf("unknown fs backend %q (want inmemory, localstorage, indexeddb, or cloud)", name)
}

func newWindowFS(profile browser.Profile) (*browser.Window, *buffer.Factory) {
	env := fleet.NewEnv(profile, nil)
	return env.Win, env.Bufs
}

// RunFSCache replays the generated trace against the selected backend
// bare and cached, counting backend round trips via the Instrument
// decorator's per-backend ops counter (so a cache hit is exactly "an
// operation that never reached the instrumented layer"). Seeding
// always happens through an uncached front end, keeping the cached
// pass honestly cold.
func RunFSCache(cfg Config, p FSCacheParams) (*FSCacheResult, error) {
	cfg = cfg.withDefaults()
	profile := cfg.Browsers[0]
	hub := cfg.Telemetry
	if hub == nil {
		// Backend-op counting rides on Instrument, which needs a hub.
		hub = telemetry.NewHub()
	}
	trace := fstrace.Generate(p.Trace)
	res := &FSCacheResult{Backend: p.Backend, WriteBack: p.WriteBack, TraceOps: len(trace.Ops)}

	run := func(label string, cached bool, replays int) ([]FSCachePhase, vfs.CacheStats, error) {
		win, bufs := newWindowFS(profile)
		if cfg.Telemetry != nil {
			// Attach the caller's hub to the event loop too, so a
			// -trace run of the A/B harness gets dispatch spans.
			win.EnableTelemetry(cfg.Telemetry)
		}
		inner, err := NewFSCacheBackend(p.Backend, win, bufs, p.Latency)
		if err != nil {
			return nil, vfs.CacheStats{}, err
		}
		// Instrument innermost (as the Stack base) so the ops counter
		// keeps meaning "backend round trips": the A/B comparison is
		// exactly the number of operations the cache absorbed.
		instrumented := vfs.Instrument(inner, hub)
		b := instrumented
		if cached {
			b = vfs.Stack(instrumented, vfs.WithCache(vfs.CacheOptions{WriteBack: p.WriteBack, Hub: hub}))
		}
		seedFS := vfs.New(win.Loop, bufs, instrumented)
		fs := vfs.New(win.Loop, bufs, b)
		ops := hub.Registry.Counter("vfs."+inner.Name(), "ops")
		var phases []FSCachePhase
		if err := fleet.Drive(win.Loop, "fscache", func(done func(error)) {
			var step func(i int)
			step = func(i int) {
				if i == replays {
					if fl, ok := b.(vfs.Flusher); ok {
						fl.Flush(done)
						return
					}
					done(nil)
					return
				}
				before := ops.Value()
				start := time.Now()
				fstrace.ReplayVFSWith(win.Loop, fs, trace, cfg.Telemetry, func(ok int, err error) {
					if err != nil {
						done(err)
						return
					}
					phases = append(phases, FSCachePhase{
						Name:       fmt.Sprintf("%s-%d", label, i),
						BackendOps: ops.Value() - before,
						OkOps:      ok,
						Wall:       time.Since(start),
					})
					step(i + 1)
				})
			}
			fstrace.SeedVFS(seedFS, trace, func(err error) {
				if err != nil {
					done(err)
					return
				}
				step(0)
			})
		}); err != nil {
			return nil, vfs.CacheStats{}, err
		}
		var cs vfs.CacheStats
		if s, ok := b.(vfs.CacheStatser); ok {
			cs = s.CacheStats()
		}
		return phases, cs, nil
	}

	uncached, _, err := run("uncached", false, 1)
	if err != nil {
		return nil, err
	}
	cachedPhases, cs, err := run("cached", true, 2)
	if err != nil {
		return nil, err
	}
	res.Uncached = uncached[0]
	res.Cold, res.Warm = cachedPhases[0], cachedPhases[1]
	res.Cache = cs
	return res, nil
}

// FormatFSCache renders the A/B comparison.
func FormatFSCache(r *FSCacheResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FS cache A/B: backend=%s writeback=%v trace=%d ops\n", r.Backend, r.WriteBack, r.TraceOps)
	fmt.Fprintf(&sb, "  %-12s %12s %8s %12s\n", "pass", "backend-ops", "ok-ops", "wall")
	for _, ph := range []FSCachePhase{r.Uncached, r.Cold, r.Warm} {
		fmt.Fprintf(&sb, "  %-12s %12d %8d %12v\n", ph.Name, ph.BackendOps, ph.OkOps, ph.Wall.Round(time.Microsecond))
	}
	if r.Warm.BackendOps > 0 {
		fmt.Fprintf(&sb, "  warm pass: %.1fx fewer backend ops than uncached\n",
			float64(r.Uncached.BackendOps)/float64(r.Warm.BackendOps))
	} else {
		fmt.Fprintf(&sb, "  warm pass: fully served from cache (0 backend ops)\n")
	}
	c := r.Cache
	fmt.Fprintf(&sb, "  cache: open %d/%d hit, stat %d/%d hit (%d negative), readdir %d/%d hit\n",
		c.Hits, c.Hits+c.Misses, c.StatHits, c.StatHits+c.StatMisses, c.NegativeHits,
		c.ReaddirHits, c.ReaddirHits+c.ReaddirMisses)
	fmt.Fprintf(&sb, "  cache: %d evictions, %d B resident, write-back %d queued / %d flushed\n",
		c.Evictions, c.BytesUsed, c.WritebackQueued, c.WritebackFlushed)
	return sb.String()
}

// ClassloadABResult compares JVM class-load probing (the §6.4
// VFSClassProvider path: every load stats-and-misses each classpath
// entry before the one that has the class) with and without the cache.
type ClassloadABResult struct {
	Backend     string
	Classes     int
	UncachedOps int64 // backend ops, second uncached round
	ColdOps     int64 // backend ops, first cached round
	WarmOps     int64 // backend ops, second cached round
	Cache       vfs.CacheStats
}

// RunClassloadFSCache loads the compiled workload classes through a
// VFSClassProvider whose classpath starts with an empty directory —
// the layout that makes negative stat caching matter — against the
// selected backend, bare and cached.
func RunClassloadFSCache(cfg Config, backendName string, writeBack bool, latency time.Duration) (*ClassloadABResult, error) {
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

	run := func(cached bool) (rounds []int64, cs vfs.CacheStats, err error) {
		win, bufs := newWindowFS(profile)
		if cfg.Telemetry != nil {
			win.EnableTelemetry(cfg.Telemetry)
		}
		inner, err := NewFSCacheBackend(backendName, win, bufs, latency)
		if err != nil {
			return nil, vfs.CacheStats{}, err
		}
		instrumented := vfs.Instrument(inner, hub)
		b := instrumented
		if cached {
			b = vfs.Stack(instrumented, vfs.WithCache(vfs.CacheOptions{WriteBack: writeBack, Hub: hub}))
		}
		seedFS := vfs.New(win.Loop, bufs, instrumented)
		fs := vfs.New(win.Loop, bufs, b)
		ops := hub.Registry.Counter("vfs."+inner.Name(), "ops")
		provider := &jvm.VFSClassProvider{FS: fs, Dirs: []string{"/cp1", "/cp2"}}

		if err := fleet.Drive(win.Loop, "classload", func(done func(error)) {
			var seed func(i int, then func())
			seed = func(i int, then func()) {
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
						seed(i+1, then)
					})
				})
			}
			var load func(i int, then func())
			load = func(i int, then func()) {
				if i == len(names) {
					then()
					return
				}
				provider.BytesAsync(names[i], func(_ []byte, err error) {
					if err != nil {
						done(err)
						return
					}
					load(i+1, then)
				})
			}
			round := func(then func()) {
				before := ops.Value()
				load(0, func() {
					rounds = append(rounds, ops.Value()-before)
					then()
				})
			}
			seedFS.MkdirAll("/cp1", func(err error) {
				if err != nil {
					done(err)
					return
				}
				seed(0, func() {
					round(func() { round(func() { done(nil) }) })
				})
			})
		}); err != nil {
			return nil, vfs.CacheStats{}, err
		}
		if s, ok := b.(vfs.CacheStatser); ok {
			cs = s.CacheStats()
		}
		return rounds, cs, nil
	}

	un, _, err := run(false)
	if err != nil {
		return nil, err
	}
	ca, cs, err := run(true)
	if err != nil {
		return nil, err
	}
	return &ClassloadABResult{
		Backend:     backendName,
		Classes:     len(names),
		UncachedOps: un[1],
		ColdOps:     ca[0],
		WarmOps:     ca[1],
		Cache:       cs,
	}, nil
}

// FormatClassloadAB renders the class-load comparison.
func FormatClassloadAB(r *ClassloadABResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "class-load A/B: backend=%s classes=%d (classpath probes /cp1 then /cp2)\n", r.Backend, r.Classes)
	fmt.Fprintf(&sb, "  uncached round: %d backend ops\n", r.UncachedOps)
	fmt.Fprintf(&sb, "  cached cold:    %d backend ops\n", r.ColdOps)
	fmt.Fprintf(&sb, "  cached warm:    %d backend ops (%d negative-stat hits absorbed)\n", r.WarmOps, r.Cache.NegativeHits)
	return sb.String()
}
