// Interpreter speed-tier benchmark: the same workload on the Doppio
// engine with the warm-up rewriter (quickened bytecodes, inline
// caches, superinstructions) on and off, at equal timeslice, with the
// engine-tax model disabled so the A/B isolates real dispatch work.
// The report (BENCH_interp.json) records nearest-rank p50/p95/p99
// wall times per arm, the quickening counters, and a "Not So Fast"-
// style per-opcode attribution table from a separate instrumented
// pass (telemetry itself costs a branch per bytecode, so the timed
// iterations run without it).
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/browser"
	"doppio/internal/fleet"
	"doppio/internal/jvm"
	"doppio/internal/telemetry"
)

// InterpParams tune the interpreter A/B run.
type InterpParams struct {
	// Scale is the workload scale (DeltaBlue iterations = 2*Scale).
	Scale int
	// Iters is the number of timed runs per arm (interleaved).
	Iters int
	// Timeslice applies to both arms equally.
	Timeslice time.Duration
}

func (p InterpParams) withDefaults() InterpParams {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Iters <= 0 {
		p.Iters = 5
	}
	if p.Timeslice <= 0 {
		p.Timeslice = 2 * time.Millisecond
	}
	return p
}

// OpCount is one row of the per-opcode attribution table.
type OpCount struct {
	Op    string  `json:"op"`
	Count int64   `json:"count"`
	Share float64 `json:"share"`
}

// InterpArm is one side of the A/B.
type InterpArm struct {
	Quicken bool `json:"quicken"`
	// Nearest-rank percentiles over the per-iteration wall times.
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	// Instructions is the bytecode count of one iteration (identical
	// across iterations — the workload is deterministic).
	Instructions int64 `json:"instructions"`
	// Stats are the engine's quickening counters after the last timed
	// iteration (zero-valued with Enabled=false on the generic arm).
	Stats jvm.QuickStats `json:"quick_stats"`
	// TopOps is the attribution table from the instrumented pass:
	// which opcodes dominate dynamic dispatch. On the quickened arm
	// the counts are raw opcodes at dispatched pcs (a fused pair
	// counts once, at its first opcode).
	TopOps []OpCount `json:"top_ops"`
}

// InterpResult is the BENCH_interp.json payload.
type InterpResult struct {
	Workload  string        `json:"workload"`
	Scale     int           `json:"scale"`
	Iters     int           `json:"iters"`
	Timeslice time.Duration `json:"timeslice_ns"`
	// Cores is the host's usable parallelism (GOMAXPROCS) when the
	// run happened — context for comparing reports across machines.
	Cores     int       `json:"cores"`
	Generic   InterpArm `json:"generic"`
	Quickened InterpArm `json:"quickened"`
	// SpeedupP50 is generic p50 / quickened p50 — the speed tier's
	// headline number (the CI gate requires >= 2).
	SpeedupP50 float64 `json:"speedup_p50"`
	// OutputMatch records that every quickened iteration produced
	// byte-identical stdout to the generic arm.
	OutputMatch bool `json:"output_match"`
}

// interpRun is one execution of the workload.
type interpRun struct {
	wall         time.Duration
	instructions int64
	stats        jvm.QuickStats
	output       string
}

func interpWall(r interpRun) time.Duration { return r.wall }

// runInterpOnce executes the workload once on a fresh window and VM.
func runInterpOnce(spec WorkloadSpec, p InterpParams, quicken bool, hub *telemetry.Hub) (interpRun, error) {
	classes, err := workloads.Classes()
	if err != nil {
		return interpRun{}, err
	}
	env := fleet.NewEnv(browser.Chrome28, hub)
	var stdout strings.Builder
	vm := jvm.NewDoppioVM(env.Win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		Timeslice:        p.Timeslice,
		DisableEngineTax: true,
		Quicken:          quicken,
	})
	start := time.Now()
	if err := vm.RunMain(spec.Main, spec.Args(p.Scale)); err != nil {
		return interpRun{}, fmt.Errorf("interp %s quicken=%v: %w\n%s", spec.ID, quicken, err, stdout.String())
	}
	return interpRun{time.Since(start), vm.Instructions, vm.QuickStats(), stdout.String()}, nil
}

// attribution runs one instrumented pass and extracts the top-K
// per-opcode execution counts the VM flushed into the hub registry.
func attribution(spec WorkloadSpec, p InterpParams, quicken bool, k int) ([]OpCount, error) {
	hub := telemetry.NewHub()
	if _, err := runInterpOnce(spec, p, quicken, hub); err != nil {
		return nil, err
	}
	var rows []OpCount
	var total int64
	for _, c := range hub.Registry.Snapshot().Counters {
		if c.Subsystem != "jvm" || !strings.HasPrefix(c.Name, "op.") {
			continue
		}
		rows = append(rows, OpCount{Op: strings.TrimPrefix(c.Name, "op."), Count: c.Value})
		total += c.Value
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Count > rows[j].Count })
	if len(rows) > k {
		rows = rows[:k]
	}
	for i := range rows {
		if total > 0 {
			rows[i].Share = float64(rows[i].Count) / float64(total)
		}
	}
	return rows, nil
}

// RunInterp runs the generic/quickened A/B as p.Iters interleaved
// pairs (runPairs) and assembles the report.
func RunInterp(p InterpParams) (*InterpResult, error) {
	p = p.withDefaults()
	spec := MicroWorkloads[0] // DeltaBlue: field- and virtual-call-heavy
	res := &InterpResult{
		Workload:    spec.ID,
		Scale:       p.Scale,
		Iters:       p.Iters,
		Timeslice:   p.Timeslice,
		Cores:       runtime.GOMAXPROCS(0),
		OutputMatch: true,
	}
	var want string // the first run's output; every later run must match it
	arm := func(quicken bool) func() (interpRun, error) {
		return func() (interpRun, error) {
			r, err := runInterpOnce(spec, p, quicken, nil)
			if err == nil {
				if want == "" {
					want = r.output
				} else if r.output != want {
					res.OutputMatch = false
				}
			}
			return r, err
		}
	}
	pr, err := runPairs(p.Iters, arm(false), arm(true))
	if err != nil {
		return nil, err
	}
	gen, quick := sortedBy(pr.A, interpWall), sortedBy(pr.B, interpWall)
	last := pr.B[len(pr.B)-1]
	res.Generic = InterpArm{
		P50:          nearestRank(gen, 0.50),
		P95:          nearestRank(gen, 0.95),
		P99:          nearestRank(gen, 0.99),
		Instructions: pr.A[len(pr.A)-1].instructions,
	}
	res.Quickened = InterpArm{
		Quicken:      true,
		P50:          nearestRank(quick, 0.50),
		P95:          nearestRank(quick, 0.95),
		P99:          nearestRank(quick, 0.99),
		Instructions: last.instructions,
		Stats:        last.stats,
	}
	if res.Quickened.P50 > 0 {
		res.SpeedupP50 = float64(res.Generic.P50) / float64(res.Quickened.P50)
	}
	const topK = 12
	if res.Generic.TopOps, err = attribution(spec, p, false, topK); err != nil {
		return nil, err
	}
	if res.Quickened.TopOps, err = attribution(spec, p, true, topK); err != nil {
		return nil, err
	}
	return res, nil
}

// FormatInterp renders the A/B as a table.
func FormatInterp(r *InterpResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Interpreter speed tier — %s scale %d, %d iters, %v timeslice, %d host cores, engine tax off\n",
		r.Workload, r.Scale, r.Iters, r.Timeslice, r.Cores)
	fmt.Fprintf(&b, "  %-9s  %10s  %10s  %10s  %12s\n", "arm", "p50", "p95", "p99", "bytecodes")
	arm := func(name string, a InterpArm) {
		fmt.Fprintf(&b, "  %-9s  %10s  %10s  %10s  %12d\n",
			name, a.P50.Round(time.Microsecond), a.P95.Round(time.Microsecond),
			a.P99.Round(time.Microsecond), a.Instructions)
	}
	arm("generic", r.Generic)
	arm("quickened", r.Quickened)
	st := r.Quickened.Stats
	fmt.Fprintf(&b, "  quickening: sites=%d ic-hits=%d ic-misses=%d deopts=%d fusions=%d fused-exec=%d\n",
		st.Sites, st.ICHits, st.ICMisses, st.Deopts, st.Fusions, st.FusedExec)
	fmt.Fprintf(&b, "  speedup p50: %.2fx   output match: %v\n", r.SpeedupP50, r.OutputMatch)
	b.WriteString("  attribution (generic arm, top dispatched opcodes):\n")
	for _, row := range r.Generic.TopOps {
		fmt.Fprintf(&b, "    %-16s %12d  %5.1f%%\n", row.Op, row.Count, 100*row.Share)
	}
	return b.String()
}
