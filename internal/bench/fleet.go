// Fleet hosting benchmark: N tenants on a single-shard supervisor
// versus the same N on a multi-shard pool, at equal work. The report
// (BENCH_fleet.json) records throughput and tail latency
// (p50/p95/p99/p999) per tenant count — the fleet layer's claim is
// that sharding event loops across cores turns guest multiprocessing
// into host parallelism, so the multi-shard arm must win wall-clock.
package bench

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"time"

	"doppio/internal/browser"
	"doppio/internal/core"
	"doppio/internal/fleet"
	"doppio/internal/jvm"
	"doppio/internal/minic"
	"doppio/internal/ops"
	"doppio/internal/proc"
	"doppio/internal/sockets"
	"doppio/internal/telemetry"
)

// fleetMinicProgram is the MiniC tenant: a pure CPU burn that yields
// at every timeslice like any guest thread, so the scheduler sees a
// long-lived well-behaved tenant.
const fleetMinicProgram = `
int main() {
    int acc = 0;
    for (int r = 0; r < %d; r++) {
        for (int i = 0; i < 1000; i++) {
            acc = (acc * 31 + i) %% 1000003;
        }
    }
    putint(acc);
    putchar('\n');
    return 0;
}`

// fleetJVMProgram is the DoppioJVM tenant, the same burn in MiniJava.
const fleetJVMProgram = `
public class FleetBurn {
    public static void main(String[] args) {
        int n = %d;
        int acc = 0;
        for (int i = 0; i < n; i++) {
            acc = (acc * 31 + i) %% 1000003;
        }
        System.out.println("acc " + acc);
    }
}`

// fleetPipeProducer feeds the pipes tenant's MiniC half: writes lines
// into the pipe, exercising pipe backpressure inside one tenant.
const fleetPipeProducer = `
int main() {
    for (int i = 0; i < %d; i++) {
        puts("ping\n");
    }
    return 0;
}`

// fleetPipeConsumer is the JVM half: byte-wise stdin reader counting
// lines, the jgrep idiom from the dsh userland.
const fleetPipeConsumer = `
public class FleetCount {
    public static void main(String[] args) {
        int lines = 0;
        int c = System.in.read();
        while (c >= 0) {
            if (c == '\n') { lines = lines + 1; }
            c = System.in.read();
        }
        System.out.println(lines);
    }
}`

// fleetSockProgram is the gateway tenant: an unmodified Java echo
// client whose socket rides the tenant's own multiplexed Stack to a
// shared websockify gateway — guest socket I/O as fleet load.
const fleetSockProgram = `
import java.net.Socket;

public class FleetEcho {
    public static void main(String[] args) {
        int rounds = %d;
        Socket s = new Socket("gateway", 0);
        byte[] msg = new byte[64];
        for (int i = 0; i < 64; i++) {
            msg[i] = (byte) (i + 1);
        }
        int want = rounds * 64;
        int got = 0;
        for (int i = 0; i < rounds; i++) {
            s.write(msg);
            byte[] back = s.read(4096);
            if (back == null) { break; }
            got = got + back.length;
        }
        while (got < want) {
            byte[] back = s.read(4096);
            if (back == null) { break; }
            got = got + back.length;
        }
        s.close();
        if (got != want) {
            System.out.println("short echo " + got);
            System.exit(1);
        }
        System.out.println("echoed " + got);
    }
}`

// fleetSockShedDepth is the WithShed threshold for sock tenants: high
// enough that a healthy run never trips it (a tripped dial surfaces as
// an IOException in the guest), low enough to bound a runaway loop.
const fleetSockShedDepth = 256

// FleetParams tunes the fleet benchmark.
type FleetParams struct {
	// Tenants is the sweep of tenant counts; default {16, 64, 256}.
	Tenants []int
	// Shards is the multi-shard arm's pool width; default NumCPU.
	Shards int
	// Workload picks the tenant mix: "minic", "jvm", "mixed"
	// (alternating by index), "pipes" (a MiniC producer piped into a
	// JVM consumer under a per-tenant process kernel), or "sock" (a
	// JVM echo client whose socket rides a per-tenant mux Stack
	// through a shared websockify gateway).
	Workload string
	// Timeslice for every tenant VM; default 2ms (short slices keep
	// tail latency honest when hundreds of tenants share a shard).
	Timeslice time.Duration
	// Scale multiplies per-tenant work; default 1.
	Scale int
	// Ops, when non-nil, registers each arm's supervisor behind
	// /debug/fleet while it runs.
	Ops *ops.Server
}

func (p FleetParams) withDefaults() FleetParams {
	if len(p.Tenants) == 0 {
		p.Tenants = []int{16, 64, 256}
	}
	if p.Shards <= 0 {
		p.Shards = runtime.NumCPU()
		if p.Shards < 2 {
			// A 1-wide "multi" arm would compare a shard with itself.
			p.Shards = 2
		}
	}
	if p.Workload == "" {
		p.Workload = "mixed"
	}
	if p.Timeslice == 0 {
		p.Timeslice = 2 * time.Millisecond
	}
	if p.Scale <= 0 {
		p.Scale = 1
	}
	return p
}

// FleetArm is one supervisor configuration's measurement.
type FleetArm struct {
	Shards int `json:"shards"`
	// Wall is submit-of-first to done-of-last.
	Wall       time.Duration `json:"wall_ns"`
	Throughput float64       `json:"tenants_per_sec"`
	// Latency percentiles over per-tenant submit→done times,
	// nearest-rank on the raw sample (no interpolation).
	P50  time.Duration `json:"p50_ns"`
	P95  time.Duration `json:"p95_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	// Evictions and Failed must be zero on a healthy run — the CI
	// smoke gate asserts it.
	Evictions int `json:"evictions"`
	Failed    int `json:"failed"`
	// MinTenantSlices is the smallest per-tenant slice counter the
	// fleet telemetry recorded: nonzero proves every tenant's labeled
	// series saw real scheduler work (the other CI smoke assertion).
	MinTenantSlices int64 `json:"min_tenant_slices"`
}

// FleetPoint compares both arms at one tenant count.
type FleetPoint struct {
	Tenants int      `json:"tenants"`
	Single  FleetArm `json:"single_shard"`
	Multi   FleetArm `json:"multi_shard"`
	// Speedup is single wall / multi wall — the parallelism win. It
	// needs cores: on a single-CPU host (see Cores) the arms tie on
	// wall and the sharding win shows up in P50Speedup instead.
	Speedup float64 `json:"speedup"`
	// P50Speedup is single p50 / multi p50: tenants on a wide pool
	// wait behind fewer queue neighbors, so median latency improves
	// even when wall-clock cannot.
	P50Speedup float64 `json:"p50_speedup"`
}

// FleetResult is the full sweep (BENCH_fleet.json).
type FleetResult struct {
	Workload  string        `json:"workload"`
	Shards    int           `json:"shards"`
	Timeslice time.Duration `json:"timeslice_ns"`
	Scale     int           `json:"scale"`
	// Cores is the host's usable parallelism (GOMAXPROCS) when the
	// sweep ran — the context every Speedup must be read in.
	Cores  int          `json:"cores"`
	Points []FleetPoint `json:"points"`
}

// fleetAssets are the precompiled tenant programs, shared by every
// arm so both arms run byte-identical work.
type fleetAssets struct {
	burn        *minic.Program
	burnClasses map[string][]byte
	producer    *minic.Program
	pipeClasses map[string][]byte

	// The sock workload's shared infrastructure, nil otherwise: a
	// native TCP echo server and the gateway every tenant's Stack
	// dials. Both arms go through the same pair, so the comparison
	// stays equal-work.
	sockClasses map[string][]byte
	sockEcho    net.Listener
	sockGW      *sockets.Websockify
	sockAddr    string
}

func compileFleetAssets(p FleetParams) (*fleetAssets, error) {
	a := &fleetAssets{}
	var err error
	if a.burn, err = minic.CompileC(fmt.Sprintf(fleetMinicProgram, 20*p.Scale)); err != nil {
		return nil, fmt.Errorf("fleet minic tenant: %w", err)
	}
	if a.burnClasses, err = workloadsCompile(map[string]string{
		"FleetBurn.mj": fmt.Sprintf(fleetJVMProgram, 20_000*p.Scale),
	}); err != nil {
		return nil, fmt.Errorf("fleet jvm tenant: %w", err)
	}
	if a.producer, err = minic.CompileC(fmt.Sprintf(fleetPipeProducer, 100*p.Scale)); err != nil {
		return nil, fmt.Errorf("fleet pipe producer: %w", err)
	}
	if a.pipeClasses, err = workloadsCompile(map[string]string{
		"FleetCount.mj": fleetPipeConsumer,
	}); err != nil {
		return nil, fmt.Errorf("fleet pipe consumer: %w", err)
	}
	if p.Workload == "sock" {
		if a.sockClasses, err = workloadsCompile(map[string]string{
			"FleetEcho.mj": fmt.Sprintf(fleetSockProgram, 8*p.Scale),
		}); err != nil {
			return nil, fmt.Errorf("fleet sock tenant: %w", err)
		}
		if a.sockEcho, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("fleet sock echo: %w", err)
		}
		go sockEchoAccept(a.sockEcho)
		a.sockGW, err = sockets.NewGateway("127.0.0.1:0", a.sockEcho.Addr().String(),
			sockets.GatewayOptions{})
		if err != nil {
			a.sockEcho.Close()
			return nil, fmt.Errorf("fleet sock gateway: %w", err)
		}
		a.sockAddr = a.sockGW.Addr()
	}
	return a, nil
}

func (a *fleetAssets) close() {
	if a.sockGW != nil {
		a.sockGW.Close()
	}
	if a.sockEcho != nil {
		a.sockEcho.Close()
	}
}

// fleetTenant builds tenant i's spec for the chosen workload mix.
func fleetTenant(p FleetParams, a *fleetAssets, i int) fleet.Tenant {
	kind := p.Workload
	if kind == "mixed" {
		if i%2 == 0 {
			kind = "minic"
		} else {
			kind = "jvm"
		}
	}
	label := fmt.Sprintf("%s-%03d", kind, i)
	t := fleet.Tenant{Label: label}
	switch kind {
	case "minic":
		t.Start = func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			fs := env.NewFS(env.Root)
			vm, err := minic.NewVM(env.Win, a.burn, minic.VMOptions{
				FS:        fs,
				HeapSize:  256 << 10,
				StackSize: 32 << 10,
				Timeslice: p.Timeslice,
			})
			if err != nil {
				return nil, err
			}
			vm.Start(func(exit int32, err error) {
				if err == nil && exit != 0 {
					err = fmt.Errorf("%s: exit %d", label, exit)
				}
				done(err)
			})
			return &fleet.Handle{Runtime: vm.Runtime(), Heap: vm.Heap(), FS: fs, Kill: vm.Kill}, nil
		}
	case "jvm":
		t.Start = func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			vm := jvm.NewDoppioVM(env.Win, jvm.DoppioOptions{
				Provider:         jvm.MapProvider(a.burnClasses),
				Timeslice:        p.Timeslice,
				HeapSize:         512 << 10,
				DisableEngineTax: true,
			})
			vm.StartMain("FleetBurn", nil, done)
			return &fleet.Handle{Runtime: vm.Runtime(), Heap: vm.Heap(),
				Kill: func() { vm.Exit(137) }}, nil
		}
	case "sock":
		t.Start = func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			// Each tenant gets its own multiplexed Stack to the shared
			// gateway; the shed option refuses new dials when this
			// tenant's loop falls behind (EAGAIN, transient).
			var rt *core.Runtime
			conn := sockets.Stack(env.Win, a.sockAddr,
				sockets.WithMux(4),
				sockets.WithShed(func() int {
					if rt == nil {
						return 0
					}
					return rt.QueueDepth()
				}, fleetSockShedDepth),
			)
			vm := jvm.NewDoppioVM(env.Win, jvm.DoppioOptions{
				Provider:         jvm.MapProvider(a.sockClasses),
				Timeslice:        p.Timeslice,
				HeapSize:         512 << 10,
				DisableEngineTax: true,
				SocketDialer: func(_ *browser.Window, _ string, cb func(*sockets.Socket, error)) {
					conn.Dial(cb)
				},
			})
			rt = vm.Runtime()
			vm.StartMain("FleetEcho", nil, func(err error) {
				conn.Close()
				done(err)
			})
			return &fleet.Handle{Runtime: vm.Runtime(), Heap: vm.Heap(),
				Kill: func() {
					conn.Close()
					vm.Exit(137)
				}}, nil
		}
	case "pipes":
		t.Start = func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			k := proc.NewKernel(env.Win, env.Root)
			pipe := k.NewPipe(512)
			prod, err := k.SpawnMinic(a.producer, proc.SpawnSpec{
				Name:   label + "/producer",
				Stdout: &proc.PipeWriter{P: pipe},
			})
			if err != nil {
				return nil, err
			}
			cons, err := k.SpawnJVM("FleetCount", a.pipeClasses, proc.SpawnSpec{
				Name:  label + "/consumer",
				Stdin: &proc.PipeReader{P: pipe},
			})
			if err != nil {
				k.Kill(prod.PID, proc.SIGKILL)
				return nil, err
			}
			// The tenant is done when both halves have exited; the
			// first nonzero exit or wait error wins.
			remaining := 2
			var firstErr error
			reap := func(name string, pid int32) {
				k.Waitpid(nil, pid).Then(func(v interface{}, err error) {
					if firstErr == nil {
						if err != nil {
							firstErr = err
						} else if code, ok := v.(int32); ok && code != 0 {
							firstErr = fmt.Errorf("%s: exit %d", name, code)
						}
					}
					if remaining--; remaining == 0 {
						done(firstErr)
					}
				})
			}
			reap(label+"/producer", prod.PID)
			reap(label+"/consumer", cons.PID)
			// Budget accounting follows the consumer (the JVM does the
			// lion's share of the work); kill tears down both halves.
			return &fleet.Handle{Runtime: cons.Runtime(), FS: cons.FS, Kill: func() {
				k.Kill(prod.PID, proc.SIGKILL)
				k.Kill(cons.PID, proc.SIGKILL)
			}}, nil
		}
	}
	return t
}

// RunFleet sweeps the tenant counts, running the single-shard and
// multi-shard arm at each — equal work, fresh supervisor and
// telemetry hub per arm.
func RunFleet(p FleetParams) (*FleetResult, error) {
	p = p.withDefaults()
	assets, err := compileFleetAssets(p)
	if err != nil {
		return nil, err
	}
	defer assets.close()
	res := &FleetResult{
		Workload: p.Workload, Shards: p.Shards,
		Timeslice: p.Timeslice, Scale: p.Scale,
		Cores: runtime.GOMAXPROCS(0),
	}
	for _, n := range p.Tenants {
		single, err := runFleetArm(p, assets, n, 1)
		if err != nil {
			return nil, fmt.Errorf("fleet %d tenants, 1 shard: %w", n, err)
		}
		multi, err := runFleetArm(p, assets, n, p.Shards)
		if err != nil {
			return nil, fmt.Errorf("fleet %d tenants, %d shards: %w", n, p.Shards, err)
		}
		pt := FleetPoint{Tenants: n, Single: single, Multi: multi}
		if multi.Wall > 0 {
			pt.Speedup = float64(single.Wall) / float64(multi.Wall)
		}
		if multi.P50 > 0 {
			pt.P50Speedup = float64(single.P50) / float64(multi.P50)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// runFleetArm hosts n tenants on a shards-wide supervisor and waits
// them all out.
func runFleetArm(p FleetParams, assets *fleetAssets, n, shards int) (FleetArm, error) {
	arm := FleetArm{Shards: shards}
	hub := telemetry.NewHub()
	// A 10ms heartbeat keeps the (per-shard) monitor timer from
	// dominating the measurement on narrow hosts; both arms use it, so
	// the comparison stays fair.
	sup := fleet.NewSupervisor(fleet.Config{
		Shards: shards, Hub: hub, Profile: fleet.DefaultProfile(),
		MonitorInterval: 10 * time.Millisecond,
	})
	defer sup.Close()
	if p.Ops != nil {
		p.Ops.RegisterFleet(fmt.Sprintf("%s n=%d shards=%d", p.Workload, n, shards), sup)
	}

	start := time.Now()
	refs := make([]*fleet.TenantRef, 0, n)
	for i := 0; i < n; i++ {
		ref, err := sup.Submit(fleetTenant(p, assets, i))
		if err != nil {
			return arm, err
		}
		refs = append(refs, ref)
	}
	latencies := make([]time.Duration, 0, n)
	for _, ref := range refs {
		<-ref.Done()
		if err := ref.Err(); err != nil {
			return arm, fmt.Errorf("tenant %s: %w", ref.Label(), err)
		}
		latencies = append(latencies, ref.Latency())
	}
	arm.Wall = time.Since(start)
	if arm.Wall > 0 {
		arm.Throughput = float64(n) / arm.Wall.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	arm.P50 = nearestRank(latencies, 0.50)
	arm.P95 = nearestRank(latencies, 0.95)
	arm.P99 = nearestRank(latencies, 0.99)
	arm.P999 = nearestRank(latencies, 0.999)

	snap := sup.Snapshot()
	arm.Evictions = snap.Evicted
	arm.Failed = snap.Failed
	arm.MinTenantSlices = minTenantSlices(hub, n)
	return arm, nil
}

// minTenantSlices scans the hub for the per-tenant slice counters the
// shards publish and returns the smallest value — zero if any tenant
// is missing its series (which the CI smoke treats as a failure).
func minTenantSlices(hub *telemetry.Hub, n int) int64 {
	var min int64
	seen := 0
	for _, c := range hub.Registry.Snapshot().Counters {
		if c.Subsystem != "fleet" || c.Name != "tenant_slices" || c.Label == "" {
			continue
		}
		if seen == 0 || c.Value < min {
			min = c.Value
		}
		seen++
	}
	if seen < n {
		return 0
	}
	return min
}

// FormatFleet renders the sweep as a table.
func FormatFleet(r *FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet hosting — %s tenants, %d-shard pool, %v timeslice, %d host cores\n",
		r.Workload, r.Shards, r.Timeslice, r.Cores)
	fmt.Fprintf(&b, "  %7s  %6s  %9s  %9s  %9s  %9s  %9s  %8s\n",
		"tenants", "shards", "wall", "p50", "p95", "p99", "p999", "tput/s")
	arm := func(n int, a FleetArm) {
		fmt.Fprintf(&b, "  %7d  %6d  %9s  %9s  %9s  %9s  %9s  %8.1f\n",
			n, a.Shards, a.Wall.Round(time.Millisecond),
			a.P50.Round(time.Millisecond), a.P95.Round(time.Millisecond),
			a.P99.Round(time.Millisecond), a.P999.Round(time.Millisecond),
			a.Throughput)
	}
	for _, pt := range r.Points {
		arm(pt.Tenants, pt.Single)
		arm(pt.Tenants, pt.Multi)
		fmt.Fprintf(&b, "  %7s  speedup ×%.2f (p50 ×%.2f)  evictions %d+%d  min tenant slices %d\n",
			"", pt.Speedup, pt.P50Speedup, pt.Single.Evictions, pt.Multi.Evictions,
			minInt64(pt.Single.MinTenantSlices, pt.Multi.MinTenantSlices))
	}
	return b.String()
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
