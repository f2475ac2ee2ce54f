// Scheduler A/B harness: quantifies the two scheduler-core features —
// macrotask slice batching (one §4.4 resumption round trip covering
// many timeslices) and the priority run queue — on JVM workloads, and
// writes the results to a JSON report (BENCH_sched.json).
package bench

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"doppio/internal/fleet"
	"doppio/internal/jvm"
)

// SchedRun captures the scheduler-relevant counters of one arm of an
// A/B comparison.
type SchedRun struct {
	Mode            string        `json:"mode"`
	Wall            time.Duration `json:"wall_ns"`
	Suspensions     int           `json:"suspensions"`
	SuspendedTime   time.Duration `json:"suspended_ns"`
	ContextSwitches int           `json:"context_switches"`
	Slices          int           `json:"slices"`
	Batches         int           `json:"batches"`
	MaxBatchSlices  int           `json:"max_batch_slices"`
	BudgetOverruns  int           `json:"budget_overruns"`
	LongestTask     time.Duration `json:"longest_task_ns"`
	FirstDone       time.Duration `json:"first_done_ns,omitempty"`
	Order           []string      `json:"order,omitempty"`

	output string
}

// SchedBatchResult is the slice-batching A/B: the same multithreaded
// producer/consumer workload (examples/multithread) with batching
// disabled (one timeslice per macrotask, the pre-batching scheduler)
// versus enabled, at the same timeslice — i.e. equal responsiveness,
// enforced by the watchdog on both arms.
type SchedBatchResult struct {
	Workload  string        `json:"workload"`
	Browser   string        `json:"browser"`
	Timeslice time.Duration `json:"timeslice_ns"`
	Watchdog  time.Duration `json:"watchdog_ns"`
	Unbatched SchedRun      `json:"unbatched"`
	Batched   SchedRun      `json:"batched"`
}

// SuspensionRatio is how many times fewer §4.4 round trips the batched
// arm paid.
func (r *SchedBatchResult) SuspensionRatio() float64 {
	if r.Batched.Suspensions == 0 {
		return float64(r.Unbatched.Suspensions)
	}
	return float64(r.Unbatched.Suspensions) / float64(r.Batched.Suspensions)
}

// schedBatchProgram is the examples/multithread producer/consumer
// (Object.wait/notify + Thread.sleep) with the item count templated.
const schedBatchProgram = `
class Queue {
    Object lock = new Object();
    int[] items = new int[4];
    int count;

    void put(int v) {
        synchronized (lock) {
            while (count == items.length) { lock.wait(); }
            items[count] = v;
            count++;
            lock.notifyAll();
        }
    }

    int take() {
        synchronized (lock) {
            while (count == 0) { lock.wait(); }
            count--;
            int v = items[count];
            lock.notifyAll();
            return v;
        }
    }
}

class Producer extends Thread {
    Queue q;
    int n;
    Producer(Queue q, int n) { this.q = q; this.n = n; }
    public void run() {
        for (int i = 1; i <= n; i++) {
            q.put(i);
            if (i %% 8 == 0) { Thread.sleep(1L); }
        }
    }
}

class Consumer extends Thread {
    Queue q;
    int n;
    int sum;
    Consumer(Queue q, int n) { this.q = q; this.n = n; }
    public void run() {
        for (int i = 0; i < n; i++) {
            sum += q.take();
        }
    }
}

public class Sched {
    public static void main(String[] args) {
        int n = %d;
        Queue q = new Queue();
        Producer p = new Producer(q, n);
        Consumer a = new Consumer(q, n / 2);
        Consumer b = new Consumer(q, n / 2);
        p.start();
        a.start();
        b.start();
        p.join();
        a.join();
        b.join();
        System.out.println("total " + (a.sum + b.sum));
    }
}
`

// schedPrioProgram spawns four equal CPU-bound workers; the
// prioritized variant ranks them by Thread.setPriority (spawn order is
// lowest-priority first, so priority — not spawn order — must explain
// a descending completion order).
const schedPrioProgram = `
class Worker extends Thread {
    int id;
    int n;
    Worker(int id, int n) { this.id = id; this.n = n; }
    int step(int acc, int i) {
        return acc + i;
    }
    public void run() {
        int acc = 0;
        for (int i = 0; i < n; i++) {
            acc = step(acc, i);
        }
        System.out.println("done " + id);
    }
}

public class Sched {
    public static void main(String[] args) {
        int n = %d;
        Worker w1 = new Worker(1, n);
        Worker w2 = new Worker(2, n);
        Worker w3 = new Worker(3, n);
        Worker w4 = new Worker(4, n);
%s        w1.start();
        w2.start();
        w3.start();
        w4.start();
        w1.join();
        w2.join();
        w3.join();
        w4.join();
    }
}
`

const schedPrioSetters = `        w1.setPriority(2);
        w2.setPriority(4);
        w3.setPriority(6);
        w4.setPriority(8);
`

// firstWriteWriter timestamps the first byte written through it — the
// completion print of the first thread to finish.
type firstWriteWriter struct {
	w     io.Writer
	start time.Time
	first time.Duration
}

func (f *firstWriteWriter) Write(p []byte) (int, error) {
	if f.first == 0 && len(p) > 0 {
		f.first = time.Since(f.start)
	}
	return f.w.Write(p)
}

// runSchedProgram executes one compiled arm and collects the
// scheduler counters.
func runSchedProgram(cfg Config, mode, src string, batchBudget, watchdog time.Duration) (SchedRun, error) {
	classes, err := workloadsCompile(map[string]string{"Sched.mj": src})
	if err != nil {
		return SchedRun{}, err
	}
	profile := cfg.Browsers[0]
	profile.WatchdogLimit = watchdog
	win := fleet.NewEnv(profile, cfg.Telemetry).Win
	var stdout bytes.Buffer
	fw := &firstWriteWriter{w: &stdout, start: time.Now()}
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           fw,
		Provider:         jvm.MapProvider(classes),
		Timeslice:        cfg.Timeslice,
		BatchBudget:      batchBudget,
		DisableEngineTax: cfg.DisableEngineTax,
	})
	start := time.Now()
	fw.start = start
	if err := vm.RunMain("Sched", nil); err != nil {
		return SchedRun{}, fmt.Errorf("%s arm: %w\n%s", mode, err, stdout.String())
	}
	wall := time.Since(start)
	st := vm.Runtime().Stats()
	return SchedRun{
		Mode:            mode,
		Wall:            wall,
		Suspensions:     st.Suspensions,
		SuspendedTime:   st.SuspendedTime,
		ContextSwitches: st.ContextSwitches,
		Slices:          st.Slices,
		Batches:         st.Batches,
		MaxBatchSlices:  st.MaxBatchSlices,
		BudgetOverruns:  st.BudgetOverruns,
		LongestTask:     win.Loop.Stats().LongestTask,
		FirstDone:       fw.first,
		output:          stdout.String(),
	}, nil
}

// RunSchedBatch runs the slice-batching A/B on the producer/consumer
// workload. Both arms share one timeslice (the responsiveness bound);
// only BatchBudget differs: -1 (one slice per macrotask) vs 0 (budget
// = timeslice). A watchdog ~5x the timeslice guards both arms, so a
// batch that outgrew its budget would fail the run, not just skew it.
func RunSchedBatch(cfg Config) (*SchedBatchResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 10 * time.Millisecond
	}
	watchdog := 5 * cfg.Timeslice
	items := 64 * cfg.Scale
	src := fmt.Sprintf(schedBatchProgram, items)
	res := &SchedBatchResult{
		Workload:  fmt.Sprintf("producer-consumer n=%d", items),
		Timeslice: cfg.Timeslice,
		Watchdog:  watchdog,
	}
	profile := cfg.Browsers[0]
	res.Browser = profile.Name

	want := fmt.Sprintf("total %d\n", items*(items+1)/2)
	unbatched, err := runSchedProgram(cfg, "unbatched", src, -1, watchdog)
	if err != nil {
		return nil, err
	}
	if unbatched.output != want {
		return nil, fmt.Errorf("unbatched arm produced %q, want %q", unbatched.output, want)
	}
	batched, err := runSchedProgram(cfg, "batched", src, 0, watchdog)
	if err != nil {
		return nil, err
	}
	if batched.output != want {
		return nil, fmt.Errorf("batched arm produced %q, want %q", batched.output, want)
	}
	res.Unbatched, res.Batched = unbatched, batched
	return res, nil
}

// FormatSchedBatch renders the batching A/B.
func FormatSchedBatch(r *SchedBatchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scheduler slice batching — %s on %s (timeslice %v, watchdog %v)\n",
		r.Workload, r.Browser, r.Timeslice, r.Watchdog)
	fmt.Fprintf(&b, "%-10s %10s %12s %10s %9s %8s %8s %12s\n",
		"mode", "wall", "suspensions", "suspended", "ctxsw", "batches", "max/b", "longest-task")
	for _, run := range []SchedRun{r.Unbatched, r.Batched} {
		fmt.Fprintf(&b, "%-10s %10v %12d %10v %9d %8d %8d %12v\n",
			run.Mode, run.Wall.Round(time.Millisecond), run.Suspensions,
			run.SuspendedTime.Round(time.Millisecond), run.ContextSwitches,
			run.Batches, run.MaxBatchSlices, run.LongestTask.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "suspension round trips reduced %.1fx\n", r.SuspensionRatio())
	return b.String()
}

// SchedPrioResult is the priority A/B: four equal CPU-bound threads,
// spawned lowest-priority first, with and without Thread.setPriority.
type SchedPrioResult struct {
	Browser     string        `json:"browser"`
	Timeslice   time.Duration `json:"timeslice_ns"`
	Equal       SchedRun      `json:"equal"`
	Prioritized SchedRun      `json:"prioritized"`
}

// PriorityRespected reports whether the highest-priority worker (id 4,
// spawned last) finished first in the prioritized arm.
func (r *SchedPrioResult) PriorityRespected() bool {
	return len(r.Prioritized.Order) > 0 && r.Prioritized.Order[0] == "done 4"
}

// RunSchedPrio runs the priority A/B.
func RunSchedPrio(cfg Config) (*SchedPrioResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 10 * time.Millisecond
	}
	iters := 60_000 * cfg.Scale
	res := &SchedPrioResult{Timeslice: cfg.Timeslice}
	profile := cfg.Browsers[0]
	res.Browser = profile.Name

	equalSrc := fmt.Sprintf(schedPrioProgram, iters, "")
	prioSrc := fmt.Sprintf(schedPrioProgram, iters, schedPrioSetters)
	equal, err := runSchedProgram(cfg, "equal", equalSrc, 0, 0)
	if err != nil {
		return nil, err
	}
	prio, err := runSchedProgram(cfg, "prioritized", prioSrc, 0, 0)
	if err != nil {
		return nil, err
	}
	equal.Order = doneOrder(equal.output)
	prio.Order = doneOrder(prio.output)
	res.Equal, res.Prioritized = equal, prio
	return res, nil
}

func doneOrder(output string) []string {
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(output), "\n") {
		if strings.HasPrefix(line, "done ") {
			order = append(order, line)
		}
	}
	return order
}

// FormatSchedPrio renders the priority A/B.
func FormatSchedPrio(r *SchedPrioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scheduler priority run queue — 4 CPU-bound workers on %s (timeslice %v)\n",
		r.Browser, r.Timeslice)
	fmt.Fprintf(&b, "%-12s %10s %12s %9s %-40s\n", "mode", "wall", "first-done", "ctxsw", "completion order")
	for _, run := range []SchedRun{r.Equal, r.Prioritized} {
		fmt.Fprintf(&b, "%-12s %10v %12v %9d %-40s\n",
			run.Mode, run.Wall.Round(time.Millisecond), run.FirstDone.Round(time.Millisecond),
			run.ContextSwitches, strings.Join(run.Order, ", "))
	}
	if r.PriorityRespected() {
		fmt.Fprintf(&b, "highest-priority worker finished first (priority beats spawn order)\n")
	} else {
		fmt.Fprintf(&b, "WARNING: highest-priority worker did not finish first\n")
	}
	return b.String()
}

// SchedReport is the JSON document -sched-batch/-sched-prio write
// (BENCH_sched.json).
type SchedReport struct {
	Batch *SchedBatchResult `json:"batch,omitempty"`
	Prio  *SchedPrioResult  `json:"prio,omitempty"`
}
