package bench

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"doppio/internal/browser"
	"doppio/internal/fleet"
	"doppio/internal/fstrace"
	"doppio/internal/vfs"
)

// Fig3Cell is one bar of Figure 3: a workload on a browser.
type Fig3Cell struct {
	Workload string
	Browser  string
	Doppio   time.Duration
	Native   time.Duration
	Slowdown float64
	Output   string // for cross-engine output verification
}

// Fig3Result aggregates the Figure 3 sweep.
type Fig3Result struct {
	Cells []Fig3Cell
	// GeoMean maps browser name to the geometric-mean slowdown across
	// workloads (the paper reports 32× for Chrome).
	GeoMean map[string]float64
}

// figurePairs is the number of native/Doppio pairs behind each Figure
// 3 and Figure 4 cell.
const figurePairs = 5

// runCell measures one (workload, browser) cell as figurePairs
// interleaved pairs (runPairs), native as arm A and Doppio as arm B.
// Native runs carry only Wall and Output. Every run's output must
// match the first run's, native's warm-up.
func runCell(spec WorkloadSpec, p browser.Profile, cfg Config) (pairs[*DoppioRun], error) {
	var want *string
	check := func(run *DoppioRun, err error) (*DoppioRun, error) {
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = &run.Output
		} else if run.Output != *want {
			return nil, fmt.Errorf("%s on %s: engines disagree:\nnative: %q\nthis run: %q",
				spec.ID, p.Name, *want, run.Output)
		}
		return run, nil
	}
	native := func() (*DoppioRun, error) {
		wall, out, err := RunNative(spec, cfg.Scale)
		if err != nil {
			return nil, fmt.Errorf("native %s: %w", spec.ID, err)
		}
		return check(&DoppioRun{Wall: wall, Output: out}, nil)
	}
	doppio := func() (*DoppioRun, error) { return check(RunDoppio(spec, cfg.Scale, p, cfg)) }
	return runPairs(figurePairs, native, doppio)
}

func runWall(r *DoppioRun) time.Duration { return r.Wall }
func runCPU(r *DoppioRun) time.Duration  { return r.CPU }

// medianRun is the run with the nearest-rank median wall time.
func medianRun(runs []*DoppioRun) *DoppioRun {
	s := append([]*DoppioRun(nil), runs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Wall < s[j].Wall })
	return s[(len(s)-1)/2]
}

// RunFig3 reproduces Figure 3: DoppioJVM vs the native baseline on the
// four macro workloads across the browser population. Each slowdown
// is the median per-pair wall ratio.
func RunFig3(cfg Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig3Result{GeoMean: map[string]float64{}}
	for _, spec := range Fig3Workloads {
		for _, p := range cfg.Browsers {
			pr, err := runCell(spec, p, cfg)
			if err != nil {
				return nil, err
			}
			run := medianRun(pr.B)
			res.Cells = append(res.Cells, Fig3Cell{
				Workload: spec.ID,
				Browser:  p.Name,
				Doppio:   run.Wall,
				Native:   medianRun(pr.A).Wall,
				Slowdown: median(pr.ratios(runWall, runWall)),
				Output:   run.Output,
			})
		}
	}
	for _, p := range cfg.Browsers {
		logSum, n := 0.0, 0
		for _, c := range res.Cells {
			if c.Browser == p.Name {
				logSum += math.Log(c.Slowdown)
				n++
			}
		}
		if n > 0 {
			res.GeoMean[p.Name] = math.Exp(logSum / float64(n))
		}
	}
	return res, nil
}

// MicroResult is one Figure 4/5 measurement. The time and suspension
// columns come from the Doppio run with the median wall; the
// slowdowns are median per-pair ratios.
type MicroResult struct {
	Workload     string
	Browser      string
	Native       time.Duration
	Wall         time.Duration
	CPU          time.Duration
	Suspended    time.Duration
	Suspensions  int
	WallSlowdown float64
	CPUSlowdown  float64
	SuspendPct   float64 // Figure 5: suspended time / wall time
}

// RunFig45 reproduces Figures 4 and 5: the DeltaBlue and pidigits
// microbenchmarks with CPU time, wall-clock time, and suspension
// accounting per browser. Both slowdowns divide by the native wall.
func RunFig45(cfg Config) ([]MicroResult, error) {
	cfg = cfg.withDefaults()
	var out []MicroResult
	for _, spec := range MicroWorkloads {
		for _, p := range cfg.Browsers {
			pr, err := runCell(spec, p, cfg)
			if err != nil {
				return nil, err
			}
			run := medianRun(pr.B)
			out = append(out, MicroResult{
				Workload:     spec.ID,
				Browser:      p.Name,
				Native:       medianRun(pr.A).Wall,
				Wall:         run.Wall,
				CPU:          run.CPU,
				Suspended:    run.Suspended,
				Suspensions:  run.Suspensions,
				WallSlowdown: median(pr.ratios(runWall, runWall)),
				CPUSlowdown:  median(pr.ratios(runCPU, runWall)),
				SuspendPct:   100 * float64(run.Suspended) / float64(run.Wall),
			})
		}
	}
	return out, nil
}

// Fig6Row is one bar of Figure 6.
type Fig6Row struct {
	Browser  string
	Doppio   time.Duration
	Native   time.Duration
	Slowdown float64
	Ops      int
}

// RunFig6 reproduces Figure 6: the recorded javac file system trace
// replayed against the Doppio file system per browser, versus the
// native OS file system baseline.
func RunFig6(cfg Config, params fstrace.GenerateParams) ([]Fig6Row, error) {
	cfg = cfg.withDefaults()
	trace := fstrace.Generate(params)

	// Baseline: the host OS file system.
	root, err := os.MkdirTemp("", "doppio-fig6-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	if err := fstrace.SeedOS(root, trace); err != nil {
		return nil, err
	}
	// Warm the page cache so the baseline measures file system call
	// overhead (what Figure 6 compares) rather than cold disk reads.
	if _, err := fstrace.ReplayOS(root, trace); err != nil {
		return nil, err
	}
	start := time.Now()
	nativeOK, err := fstrace.ReplayOS(root, trace)
	if err != nil {
		return nil, err
	}
	nativeT := time.Since(start)
	if nativeOK != len(trace.Ops) {
		return nil, fmt.Errorf("bench: native replay only completed %d/%d ops", nativeOK, len(trace.Ops))
	}

	var rows []Fig6Row
	for _, p := range cfg.Browsers {
		env := fleet.NewEnv(p, nil)
		win := env.Win
		// The Doppio file system runs over the same host directory as
		// the baseline (via the asynchronous OS backend), so the
		// comparison isolates Doppio's FS machinery — front-end
		// bookkeeping, buffer copies, and one event-loop round trip
		// per operation — exactly what Figure 6 measures.
		fs := vfs.New(win.Loop, env.Bufs, vfs.Instrument(vfs.NewOSBackend(win.Loop, root), cfg.Telemetry))
		// Warm pass (mirrors the baseline's warm page cache).
		if err := fleet.Drive(win.Loop, "warm", func(done func(error)) {
			fstrace.ReplayVFS(win.Loop, fs, trace, func(_ int, err error) { done(err) })
		}); err != nil {
			return nil, err
		}
		var okOps int
		t0 := time.Now()
		if err := fleet.Drive(win.Loop, "replay", func(done func(error)) {
			// The timed pass records per-op latencies when telemetry is
			// configured (the warm pass stays unobserved).
			fstrace.ReplayVFSWith(win.Loop, fs, trace, cfg.Telemetry, func(ok int, err error) {
				okOps = ok
				done(err)
			})
		}); err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		if okOps != len(trace.Ops) {
			return nil, fmt.Errorf("bench: %s replay only completed %d/%d ops", p.Name, okOps, len(trace.Ops))
		}
		rows = append(rows, Fig6Row{
			Browser:  p.Name,
			Doppio:   elapsed,
			Native:   nativeT,
			Slowdown: float64(elapsed) / float64(nativeT),
			Ops:      okOps,
		})
	}
	return rows, nil
}

// --- rendering ---

// FormatFig3 renders the Figure 3 result as a text table.
func FormatFig3(r *Fig3Result) string {
	var b strings.Builder
	b.WriteString("Figure 3: DoppioJVM slowdown vs native baseline (wall clock)\n")
	fmt.Fprintf(&b, "%-22s %-14s %12s %12s %9s\n", "workload", "browser", "doppio", "native", "slowdown")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-22s %-14s %12s %12s %8.1fx\n",
			c.Workload, c.Browser, c.Doppio.Round(time.Millisecond),
			c.Native.Round(time.Millisecond), c.Slowdown)
	}
	for _, p := range browser.Population() {
		if gm, ok := r.GeoMean[p.Name]; ok {
			fmt.Fprintf(&b, "geometric mean (%s): %.1fx\n", p.Name, gm)
		}
	}
	return b.String()
}

// FormatFig45 renders Figures 4 and 5 as text tables.
func FormatFig45(rows []MicroResult) string {
	var b strings.Builder
	b.WriteString("Figure 4: microbenchmark slowdown vs native (CPU and wall clock)\n")
	fmt.Fprintf(&b, "%-11s %-14s %10s %10s %10s %9s %9s\n",
		"workload", "browser", "native", "cpu", "wall", "cpu-x", "wall-x")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %-14s %10s %10s %10s %8.1fx %8.1fx\n",
			r.Workload, r.Browser, r.Native.Round(time.Millisecond),
			r.CPU.Round(time.Millisecond), r.Wall.Round(time.Millisecond),
			r.CPUSlowdown, r.WallSlowdown)
	}
	b.WriteString("\nFigure 5: suspension time as a percentage of total runtime\n")
	fmt.Fprintf(&b, "%-11s %-14s %12s %12s %10s\n", "workload", "browser", "suspended", "suspensions", "pct")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %-14s %12s %12d %9.2f%%\n",
			r.Workload, r.Browser, r.Suspended.Round(time.Millisecond), r.Suspensions, r.SuspendPct)
	}
	return b.String()
}

// FormatFig6 renders Figure 6 as a text table.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Figure 6: Doppio file system vs native FS on the javac trace\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %9s %8s\n", "browser", "doppio", "native", "slowdown", "ops")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12s %12s %8.2fx %8d\n",
			r.Browser, r.Doppio.Round(time.Millisecond), r.Native.Round(time.Millisecond),
			r.Slowdown, r.Ops)
	}
	return b.String()
}
