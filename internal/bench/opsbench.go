// Observability overhead harness: measures what the flight recorder
// costs a running workload. The same multithreaded CPU-bound program
// runs with the flight ring enabled and disabled; the report
// (BENCH_ops.json) records both walls so CI can hold the overhead
// under its budget — an always-on black box is only viable if
// recording is nearly free.
package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"doppio/internal/browser"
	"doppio/internal/fleet"
	"doppio/internal/jvm"
	"doppio/internal/telemetry"
)

// opsOverheadProgram keeps the scheduler busy: four CPU-bound workers
// plus a producer/consumer pair, so the flight ring sees the full
// event mix (spawns, batches, block/settle) while the wall clock is
// dominated by bytecode execution.
const opsOverheadProgram = `
class Cell {
    Object lock = new Object();
    int value;
    boolean full;

    void put(int v) {
        synchronized (lock) {
            while (full) { lock.wait(); }
            value = v;
            full = true;
            lock.notifyAll();
        }
    }

    int take() {
        synchronized (lock) {
            while (!full) { lock.wait(); }
            full = false;
            lock.notifyAll();
            return value;
        }
    }
}

class Burner extends Thread {
    int n;
    int acc;
    Burner(int n) { this.n = n; }
    public void run() {
        for (int i = 0; i < n; i++) {
            acc = (acc + i) %% 1000003;
        }
    }
}

class Feeder extends Thread {
    Cell c;
    int n;
    Feeder(Cell c, int n) { this.c = c; this.n = n; }
    public void run() {
        for (int i = 1; i <= n; i++) { c.put(i); }
    }
}

public class OpsBench {
    public static void main(String[] args) {
        int n = %d;
        Burner[] ws = new Burner[4];
        for (int i = 0; i < ws.length; i++) {
            ws[i] = new Burner(n);
            ws[i].start();
        }
        Cell c = new Cell();
        Feeder f = new Feeder(c, 32);
        f.start();
        int sum = 0;
        for (int i = 0; i < 32; i++) { sum += c.take(); }
        f.join();
        for (int i = 0; i < ws.length; i++) { ws[i].join(); }
        System.out.println("sum " + sum);
    }
}
`

// OpsArm is one arm of the flight-recorder overhead comparison.
type OpsArm struct {
	Mode string `json:"mode"`
	// Wall is the best (minimum) wall time over Runs repetitions —
	// minimum, because observability overhead adds to the floor while
	// scheduler noise only adds above it.
	Wall time.Duration `json:"wall_ns"`
	// CPU is the best per-run scheduler CPU time — thread execution
	// only, excluding event-loop waits and §4.4 resumption timers,
	// which is where recording cost lands and what Overhead is
	// computed from (wall on a timeslice-batched workload is dominated
	// by timer jitter).
	CPU time.Duration `json:"cpu_ns"`
	// FlightEvents is how many events the arm's ring recorded (zero on
	// the disabled arm — the recorder is nil, not merely idle).
	FlightEvents uint64 `json:"flight_events"`
}

// OpsOverheadResult is the flight-recorder on/off A/B.
type OpsOverheadResult struct {
	Workload string        `json:"workload"`
	Browser  string        `json:"browser"`
	Runs     int           `json:"runs"`
	Off      OpsArm        `json:"off"`
	On       OpsArm        `json:"on"`
	Overhead float64       `json:"overhead_pct"`
	Budget   time.Duration `json:"timeslice_ns"`
}

// opsOverheadRuns is the number of off/on pairs.
const opsOverheadRuns = 15

// RunOpsOverhead measures the flight recorder's cost on a CPU-bound
// multithreaded workload: opsOverheadRuns interleaved off/on pairs
// (runPairs), each arm keeping its best wall and CPU; Overhead is the
// interquartile mean of the per-pair CPU ratios, in percent.
func RunOpsOverhead(cfg Config) (*OpsOverheadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 10 * time.Millisecond
	}
	n := 40_000 * cfg.Scale
	src := fmt.Sprintf(opsOverheadProgram, n)
	classes, err := workloadsCompile(map[string]string{"OpsBench.mj": src})
	if err != nil {
		return nil, err
	}
	profile := cfg.Browsers[0]
	arm := func(flight bool) func() (OpsArm, error) {
		return func() (OpsArm, error) { return runOpsOnce(cfg, profile, classes, flight) }
	}
	p, err := runPairs(opsOverheadRuns, arm(false), arm(true))
	if err != nil {
		return nil, err
	}
	res := &OpsOverheadResult{
		Workload: fmt.Sprintf("burn+handoff n=%d", n),
		Browser:  profile.Name,
		Runs:     opsOverheadRuns,
		Budget:   cfg.Timeslice,
	}
	res.Off = OpsArm{Mode: "flight-off", Wall: sortedBy(p.A, opsWall)[0], CPU: sortedBy(p.A, opsCPU)[0]}
	res.On = OpsArm{Mode: "flight-on", Wall: sortedBy(p.B, opsWall)[0], CPU: sortedBy(p.B, opsCPU)[0],
		FlightEvents: p.B[len(p.B)-1].FlightEvents}
	if r := p.ratios(opsCPU, opsCPU); len(r) > 0 {
		res.Overhead = 100 * (iqMean(r) - 1)
	}
	return res, nil
}

func opsCPU(a OpsArm) time.Duration  { return a.CPU }
func opsWall(a OpsArm) time.Duration { return a.Wall }

// runOpsOnce executes one run on a fresh window and VM.
func runOpsOnce(cfg Config, profile browser.Profile, classes map[string][]byte, flight bool) (OpsArm, error) {
	arm := OpsArm{Mode: "flight-off"}
	if flight {
		arm.Mode = "flight-on"
	}
	hub := telemetry.NewHub()
	if flight {
		hub.EnableFlight(telemetry.DefaultFlightCapacity)
	}
	win := fleet.NewEnv(profile, hub).Win
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		Timeslice:        cfg.Timeslice,
		DisableEngineTax: true,
	})
	start := time.Now()
	if err := vm.RunMain("OpsBench", nil); err != nil {
		return arm, fmt.Errorf("%s arm: %w\n%s", arm.Mode, err, stdout.String())
	}
	arm.Wall = time.Since(start)
	if !strings.Contains(stdout.String(), "sum ") {
		return arm, fmt.Errorf("%s arm produced no output", arm.Mode)
	}
	arm.CPU = vm.Runtime().Stats().CPUTime
	if flight {
		arm.FlightEvents = hub.Flight.Total()
	}
	return arm, nil
}

// FormatOpsOverhead renders the comparison.
func FormatOpsOverhead(r *OpsOverheadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Flight-recorder overhead — %s on %s (best of %d)\n",
		r.Workload, r.Browser, r.Runs)
	fmt.Fprintf(&b, "  %-11s wall %8s  cpu %8s\n",
		r.Off.Mode, r.Off.Wall.Round(time.Millisecond), r.Off.CPU.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-11s wall %8s  cpu %8s  (%d events recorded)\n",
		r.On.Mode, r.On.Wall.Round(time.Millisecond), r.On.CPU.Round(time.Millisecond), r.On.FlightEvents)
	fmt.Fprintf(&b, "  overhead: %+.2f%% (cpu)\n", r.Overhead)
	return b.String()
}
