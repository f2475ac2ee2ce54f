// Guest-profiler overhead harness: measures what the sampling
// profiler costs a running workload. DeltaBlue — field- and
// virtual-call-heavy, so the CPU sampler's stack walks are as deep as
// they get — runs with the profiler attached and detached; the report
// (BENCH_prof.json) records both arms so CI can hold the overhead
// under its budget — continuous profiling is only viable if sampling
// is nearly free.
package bench

import (
	"fmt"
	"strings"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/browser"
	"doppio/internal/fleet"
	"doppio/internal/jvm"
	"doppio/internal/profile"
)

// ProfArm is one arm of the profiler overhead comparison.
type ProfArm struct {
	Mode string `json:"mode"`
	// Wall is the best (minimum) wall time over Runs repetitions.
	Wall time.Duration `json:"wall_ns"`
	// CPU is the best per-run scheduler CPU time — thread execution
	// only, which is where sampling cost lands and what Overhead is
	// computed from (wall on a timeslice-batched workload is dominated
	// by timer jitter).
	CPU time.Duration `json:"cpu_ns"`
	// Samples is how many CPU samples the arm's profiler folded (zero
	// on the off arm — the profiler is nil, not merely idle).
	Samples int64 `json:"samples"`

	hotMethod string // the run's hottest guest method (on arm only)
}

// ProfOverheadResult is the profiler on/off A/B.
type ProfOverheadResult struct {
	Workload string        `json:"workload"`
	Browser  string        `json:"browser"`
	Runs     int           `json:"runs"`
	Off      ProfArm       `json:"off"`
	On       ProfArm       `json:"on"`
	Overhead float64       `json:"overhead_pct"`
	Budget   time.Duration `json:"timeslice_ns"`
	// HotMethod is the hottest guest method the on arm's profiler saw
	// in its last repetition — a fidelity check riding along with the
	// overhead numbers (CI asserts it is a DeltaBlue method).
	HotMethod string `json:"hot_method"`
}

// profOverheadRuns is the number of off/on pairs.
const profOverheadRuns = 15

// RunProfOverhead measures the sampling profiler's cost on DeltaBlue
// with the flight-recorder A/B's method: profOverheadRuns interleaved
// off/on pairs (runPairs), each arm keeping its best wall and CPU;
// Overhead is the interquartile mean of the per-pair CPU ratios, in
// percent.
func RunProfOverhead(cfg Config) (*ProfOverheadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 10 * time.Millisecond
	}
	classes, err := workloads.Classes()
	if err != nil {
		return nil, err
	}
	spec := MicroWorkloads[0] // DeltaBlue
	prof := cfg.Browsers[0]
	arm := func(profiling bool) func() (ProfArm, error) {
		return func() (ProfArm, error) { return runProfOnce(cfg, prof, spec, classes, profiling) }
	}
	p, err := runPairs(profOverheadRuns, arm(false), arm(true))
	if err != nil {
		return nil, err
	}
	last := p.B[len(p.B)-1]
	res := &ProfOverheadResult{
		Workload:  spec.ID,
		Browser:   prof.Name,
		Runs:      profOverheadRuns,
		Budget:    cfg.Timeslice,
		HotMethod: last.hotMethod,
	}
	res.Off = ProfArm{Mode: "prof-off", Wall: sortedBy(p.A, profWall)[0], CPU: sortedBy(p.A, profCPU)[0]}
	res.On = ProfArm{Mode: "prof-on", Wall: sortedBy(p.B, profWall)[0], CPU: sortedBy(p.B, profCPU)[0],
		Samples: last.Samples}
	if r := p.ratios(profCPU, profCPU); len(r) > 0 {
		res.Overhead = 100 * (iqMean(r) - 1)
	}
	return res, nil
}

func profCPU(a ProfArm) time.Duration  { return a.CPU }
func profWall(a ProfArm) time.Duration { return a.Wall }

// runProfOnce executes one run on a fresh window and VM.
func runProfOnce(cfg Config, prof browser.Profile, spec WorkloadSpec, classes map[string][]byte, profiling bool) (ProfArm, error) {
	arm := ProfArm{Mode: "prof-off"}
	var gp *profile.Profiler
	if profiling {
		arm.Mode = "prof-on"
		gp = profile.New(profile.Options{})
	}
	env := fleet.NewEnv(prof, nil)
	var stdout strings.Builder
	vm := jvm.NewDoppioVM(env.Win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		Timeslice:        cfg.Timeslice,
		DisableEngineTax: true,
		Profiler:         gp,
	})
	start := time.Now()
	if err := vm.RunMain(spec.Main, spec.Args(cfg.Scale)); err != nil {
		return arm, fmt.Errorf("%s arm: %w\n%s", arm.Mode, err, stdout.String())
	}
	arm.Wall = time.Since(start)
	if stdout.Len() == 0 {
		return arm, fmt.Errorf("%s arm produced no output", arm.Mode)
	}
	arm.CPU = vm.Runtime().Stats().CPUTime
	if gp != nil {
		arm.Samples = gp.Samples()
		if top := gp.TopMethods(profile.CPU, 1); len(top) > 0 {
			arm.hotMethod = top[0].Method
		}
	}
	return arm, nil
}

// FormatProfOverhead renders the comparison.
func FormatProfOverhead(r *ProfOverheadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Guest-profiler overhead — %s on %s (best of %d)\n",
		r.Workload, r.Browser, r.Runs)
	fmt.Fprintf(&b, "  %-9s wall %8s  cpu %8s\n",
		r.Off.Mode, r.Off.Wall.Round(time.Millisecond), r.Off.CPU.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-9s wall %8s  cpu %8s  (%d cpu samples; hottest: %s)\n",
		r.On.Mode, r.On.Wall.Round(time.Millisecond), r.On.CPU.Round(time.Millisecond),
		r.On.Samples, r.HotMethod)
	fmt.Fprintf(&b, "  overhead: %+.2f%% (cpu)\n", r.Overhead)
	return b.String()
}
