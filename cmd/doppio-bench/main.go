// doppio-bench regenerates the paper's tables and figures (§7).
//
//	doppio-bench -all                 # everything at quick scale
//	doppio-bench -fig3 -scale 3       # closer to paper scale
//	doppio-bench -table1 -table2
//	doppio-bench -resp                # §7.1.3 responsiveness report
//	doppio-bench -metrics -trace t.json   # instrumented default pass
//	doppio-bench -fig3 -ops :6060     # live ops endpoints while it runs
//	doppio-bench -ops-bench           # flight-recorder overhead A/B
//	doppio-bench -interp -check -out /tmp   # A/B + CI gate, BENCH_interp.json in /tmp
//
// With -metrics and/or -trace but no figure selected, a default
// telemetry pass runs: the disasm workload through DoppioJVM plus a
// small file system trace replay, both fully instrumented. SIGINT or
// SIGTERM dumps the metrics snapshot and closes the trace file before
// exiting.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"doppio/internal/bench"
	"doppio/internal/browser"
	"doppio/internal/fleet"
	"doppio/internal/fstrace"
	"doppio/internal/ops"
	gprof "doppio/internal/profile"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

func main() {
	fig3 := flag.Bool("fig3", false, "macro benchmarks: DoppioJVM vs native (Figure 3)")
	fig45 := flag.Bool("fig45", false, "microbenchmarks + suspension (Figures 4 and 5)")
	fig6 := flag.Bool("fig6", false, "file system trace replay (Figure 6)")
	table1 := flag.Bool("table1", false, "feature matrix with live probes (Table 1)")
	table2 := flag.Bool("table2", false, "storage mechanisms (Table 2)")
	resp := flag.Bool("resp", false, "responsiveness report: longest event-loop pause per workload (§7.1.3)")
	all := flag.Bool("all", false, "run everything")
	scale := flag.Int("scale", 1, "workload scale (>=5 is paper scale)")
	browsersFlag := flag.String("browsers", "", "comma-separated browser names (default: the paper's five)")
	noTax := flag.Bool("noenginetax", false, "disable the JS-engine speed model")
	metrics := flag.Bool("metrics", false, "print the telemetry metrics snapshot on exit")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (open in chrome://tracing)")
	fsCache := flag.Bool("fs-cache", false, "A/B-compare fstrace replay and class loading with the VFS cache on and off (and enable the cache for other passes)")
	fsBackend := flag.String("fs-backend", "cloud", "backend for -fs-cache: inmemory, localstorage, indexeddb, or cloud")
	fsWriteBack := flag.Bool("fs-writeback", false, "use write-back (buffered) mode for -fs-cache")
	fsFaults := flag.Float64("fs-faults", 0, "fault-injection A/B: replay fstrace and class loading through the retry stack at this per-op fault rate (e.g. 0.1; 0 disables)")
	faultSeed := flag.Int64("fault-seed", 42, "seed for the -fs-faults fault sequence and retry jitter")
	schedBatch := flag.Bool("sched-batch", false, "slice-batching A/B on the multithreaded producer/consumer workload (suspension round trips, context switches, longest macrotask)")
	schedPrio := flag.Bool("sched-prio", false, "priority run-queue A/B: four CPU-bound threads with and without Thread.setPriority")
	opsAddr := flag.String("ops", "", "serve the live ops endpoints (/metrics, /debug/threads, pprof, ...) on this address, e.g. :6060")
	flightCap := flag.Int("flight", 0, "enable the flight recorder with this event capacity (0 disables; -ops enables it at the default capacity)")
	traceCap := flag.Int("trace-cap", 0, "trace-event retention cap for -trace (0 = default 262144; negative = unlimited); overflow drops oldest events, counted in telemetry.trace_dropped")
	opsBench := flag.Bool("ops-bench", false, "flight-recorder overhead A/B on a CPU-bound multithreaded workload")
	profFlag := flag.Bool("prof", false, "attach the guest sampling profiler to every Doppio-engine run; prints the hot methods at exit")
	profPath := flag.String("prof-out", "", "write the guest CPU profile here at exit (.pb.gz = pprof protobuf, .json = snapshot, else collapsed stacks); implies -prof")
	profBench := flag.Bool("prof-bench", false, "guest-profiler overhead A/B: DeltaBlue with the sampling profiler attached vs detached")
	fleetN := flag.Int("fleet", 0, "fleet hosting sweep: run the tenant counts from {16, 64, 256} up to N, single-shard vs multi-shard at equal work")
	fleetShards := flag.Int("fleet-shards", 0, "multi-shard pool width for -fleet (default NumCPU)")
	fleetWorkload := flag.String("fleet-workload", "mixed", "tenant mix for -fleet: minic, jvm, mixed, pipes, or sock")
	interp := flag.Bool("interp", false, "interpreter speed-tier A/B: DeltaBlue with quickening (inline caches, superinstructions) on vs off at equal timeslice")
	interpIters := flag.Int("interp-iters", 5, "timed iterations per arm for -interp")
	outDir := flag.String("out", ".", "directory the A/B harnesses write their BENCH_<name>.json reports to")
	check := flag.Bool("check", false, "exit nonzero unless every A/B harness that ran holds its gate: sched >= 5x fewer suspensions, ops/prof overhead <= 5%, fleet zero evictions, interp >= 2x at p50")
	flag.Parse()

	// report writes a harness's BENCH_<name>.json into -out; under
	// -check, gate prints the "<name> check: ok" line CI greps for or
	// records the violated bound for the exit status.
	report := func(name string, v any) {
		path := filepath.Join(*outDir, "BENCH_"+name+".json")
		if err := bench.WriteReport(path, v); err != nil {
			fatal(err)
		}
		fmt.Printf("%s report written to %s\n", name, path)
	}
	var finishErr error
	gate := func(ok string, err error) {
		if !*check {
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "doppio-bench:", err)
			finishErr = err
			return
		}
		fmt.Println(ok)
	}

	var hub *telemetry.Hub
	if *metrics || *tracePath != "" || *opsAddr != "" || *flightCap > 0 {
		hub = telemetry.NewHub()
		if *tracePath != "" {
			hub.EnableTracing()
			hub.Tracer.SetEventCap(*traceCap)
		}
		if *flightCap > 0 {
			hub.EnableFlight(*flightCap)
		} else if *opsAddr != "" {
			// The ops endpoints are the flight ring's consumer; a
			// black box costs too little to leave off here.
			hub.EnableFlight(telemetry.DefaultFlightCapacity)
		}
	}
	anyFigure := *fig3 || *fig45 || *fig6 || *table1 || *table2 || *resp || *all || *fsCache || *fsFaults > 0 || *schedBatch || *schedPrio || *opsBench || *profBench || *fleetN > 0 || *interp
	if !anyFigure && hub == nil && !*profFlag && *profPath == "" {
		// -prof alone runs the instrumented default pass, like -metrics.
		flag.Usage()
		os.Exit(2)
	}
	cfg := bench.Config{Scale: *scale, DisableEngineTax: *noTax, Telemetry: hub, FSCache: *fsCache}
	var guestProf *gprof.Profiler
	if *profFlag || *profPath != "" {
		guestProf = gprof.New(gprof.Options{})
		cfg.Profiler = guestProf
	}
	var opsSrv *ops.Server
	if *opsAddr != "" {
		opsSrv = ops.NewServer(hub)
		addr, err := opsSrv.Serve(*opsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "doppio-bench: ops server on http://%s\n", addr)
		cfg.Ops = opsSrv
	}
	if *browsersFlag != "" {
		for _, name := range strings.Split(*browsersFlag, ",") {
			p, ok := browser.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "doppio-bench: unknown browser %q\n", name)
				os.Exit(2)
			}
			cfg.Browsers = append(cfg.Browsers, p)
		}
	}

	// On SIGINT/SIGTERM (and on the normal exit path) dump the metrics
	// snapshot and close the trace file exactly once.
	benchStart := time.Now()
	var finishOnce sync.Once
	finish := func() {
		finishOnce.Do(func() {
			if guestProf != nil {
				if *profPath != "" {
					if err := guestProf.Snapshot(gprof.CPU).WriteFile(*profPath, time.Since(benchStart)); err != nil {
						fmt.Fprintln(os.Stderr, "doppio-bench: writing profile:", err)
					} else {
						fmt.Fprintf(os.Stderr, "doppio-bench: guest profile written to %s\n", *profPath)
					}
				} else {
					fmt.Fprintf(os.Stderr, "doppio-bench: guest hot methods (%d cpu samples):\n%s",
						guestProf.Samples(), gprof.FormatTop(guestProf.Snapshot(gprof.CPU), 10))
				}
			}
			if hub == nil {
				return
			}
			if *metrics {
				fmt.Print(hub.Registry.Snapshot().Format())
			}
			if *tracePath != "" {
				if err := hub.Tracer.WriteFile(*tracePath); err != nil {
					finishErr = err
					fmt.Fprintln(os.Stderr, "doppio-bench: writing trace:", err)
				} else {
					fmt.Printf("trace written to %s\n", *tracePath)
				}
			}
		})
	}
	if hub != nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sig
			fmt.Fprintf(os.Stderr, "doppio-bench: %v: dumping telemetry\n", s)
			// Thread dumps first (they need the still-running loops),
			// then the flight tail, then the metrics/trace files.
			if opsSrv != nil {
				for _, rep := range opsSrv.Reports("signal") {
					fmt.Fprint(os.Stderr, rep.Text())
				}
			} else if hub.Flight != nil {
				fmt.Fprint(os.Stderr, telemetry.FormatFlight(hub.Flight.Tail(50)))
			}
			finish()
			os.Exit(130)
		}()
	}

	if *all || *table1 {
		fmt.Println(bench.FormatTable1(bench.Table1()))
	}
	if *all || *table2 {
		fmt.Println(bench.FormatTable2(bench.Table2()))
	}
	if *all || *fig3 {
		start := time.Now()
		res, err := bench.RunFig3(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatFig3(res))
		fmt.Printf("(figure 3 sweep took %v)\n\n", time.Since(start).Round(time.Second))
	}
	if *all || *fig45 {
		rows, err := bench.RunFig45(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatFig45(rows))
	}
	if *all || *fig6 {
		params := fstrace.PaperParams()
		if *scale < 3 {
			// Quick runs replay a proportionally smaller trace.
			params = fstrace.GenerateParams{
				Ops:          3185 * *scale / 3,
				UniqueFiles:  1560 * *scale / 3,
				BytesRead:    10_500_000 * *scale / 3,
				BytesWritten: 97_000 * *scale / 3,
			}
		}
		rows, err := bench.RunFig6(cfg, params)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatFig6(rows))
	}
	if *all || *resp {
		rows, err := bench.RunResponsiveness(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatResponsiveness(rows))
	}
	if *fsCache {
		params := bench.FSCacheParams{
			Backend:   *fsBackend,
			WriteBack: *fsWriteBack,
			Latency:   200 * time.Microsecond,
			Trace: fstrace.GenerateParams{
				Ops: 400 * *scale, UniqueFiles: 120 * *scale,
				BytesRead: 600_000 * *scale, BytesWritten: 8_000 * *scale,
			},
		}
		res, err := bench.RunFSCache(cfg, params)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatFSCache(res))
		cab, err := bench.RunClassloadFSCache(cfg, *fsBackend, *fsWriteBack, 200*time.Microsecond)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatClassloadAB(cab))
	}
	if *fsFaults > 0 {
		params := bench.FSFaultsParams{
			Backend: *fsBackend,
			Rate:    *fsFaults,
			Seed:    *faultSeed,
			Latency: 200 * time.Microsecond,
			Trace: fstrace.GenerateParams{
				Ops: 400 * *scale, UniqueFiles: 120 * *scale,
				BytesRead: 600_000 * *scale, BytesWritten: 8_000 * *scale,
			},
		}
		res, err := bench.RunFSFaults(cfg, params)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatFSFaults(res))
		if !res.BitIdentical() {
			finishErr = fmt.Errorf("faulty replay diverged from fault-free run")
		}
		clf, err := bench.RunClassloadFaults(cfg, *fsBackend, *fsFaults, *faultSeed, 200*time.Microsecond)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatClassloadFaults(clf))
		if clf.LoadErrors > 0 || clf.Mismatches > 0 {
			finishErr = fmt.Errorf("class loading failed under faults")
		}
	}
	if *schedBatch || *schedPrio {
		var rep bench.SchedReport
		if *schedBatch {
			res, err := bench.RunSchedBatch(cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Println(bench.FormatSchedBatch(res))
			rep.Batch = res
			gate(checkSched(res))
		}
		if *schedPrio {
			res, err := bench.RunSchedPrio(cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Println(bench.FormatSchedPrio(res))
			rep.Prio = res
		}
		report("sched", rep)
	}
	if *opsBench {
		res, err := bench.RunOpsOverhead(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatOpsOverhead(res))
		report("ops", res)
		gate(checkOps(res))
	}
	if *profBench {
		res, err := bench.RunProfOverhead(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatProfOverhead(res))
		report("prof", res)
		gate(checkProf(res))
	}
	if *fleetN > 0 {
		var counts []int
		for _, n := range []int{16, 64, 256} {
			if n <= *fleetN {
				counts = append(counts, n)
			}
		}
		if len(counts) == 0 {
			counts = []int{*fleetN}
		}
		res, err := bench.RunFleet(bench.FleetParams{
			Tenants:  counts,
			Shards:   *fleetShards,
			Workload: *fleetWorkload,
			Scale:    *scale,
			Ops:      opsSrv,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatFleet(res))
		report("fleet", res)
		gate(checkFleet(res))
	}
	if *interp {
		res, err := bench.RunInterp(bench.InterpParams{
			Scale: *scale,
			Iters: *interpIters,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatInterp(res))
		report("interp", res)
		gate(checkInterp(res))
	}
	if !anyFigure {
		if err := runTelemetryPass(cfg); err != nil {
			fatal(err)
		}
	}
	finish()
	if finishErr != nil {
		os.Exit(1)
	}
}

// The -check gates: each returns its "ok" line or the violated bound.

func checkSched(r *bench.SchedBatchResult) (string, error) {
	if ratio := r.SuspensionRatio(); ratio < 5 {
		return "", fmt.Errorf("sched check: suspension reduction only %.1fx (need >= 5x)", ratio)
	}
	return fmt.Sprintf("sched check: ok (%.1fx fewer suspension round trips)", r.SuspensionRatio()), nil
}

func checkOps(r *bench.OpsOverheadResult) (string, error) {
	switch {
	case r.On.FlightEvents == 0:
		return "", fmt.Errorf("ops check: the flight arm recorded nothing")
	case r.Overhead > 5:
		return "", fmt.Errorf("ops check: flight overhead %.2f%% exceeds the 5%% budget", r.Overhead)
	}
	return fmt.Sprintf("ops check: ok (%+.2f%% cpu, %d flight events)", r.Overhead, r.On.FlightEvents), nil
}

func checkProf(r *bench.ProfOverheadResult) (string, error) {
	switch {
	case r.Overhead > 5:
		return "", fmt.Errorf("prof check: profiler overhead %.2f%% exceeds the 5%% budget", r.Overhead)
	case r.On.Samples == 0:
		return "", fmt.Errorf("prof check: the on arm folded zero cpu samples")
	case !strings.Contains(r.HotMethod, "."):
		return "", fmt.Errorf("prof check: hottest method %q is not a guest method", r.HotMethod)
	}
	return fmt.Sprintf("prof check: ok (%+.2f%% cpu, %d samples, hottest %s)", r.Overhead, r.On.Samples, r.HotMethod), nil
}

func checkFleet(r *bench.FleetResult) (string, error) {
	for _, pt := range r.Points {
		for _, arm := range []bench.FleetArm{pt.Single, pt.Multi} {
			if arm.Evictions != 0 || arm.Failed != 0 {
				return "", fmt.Errorf("fleet check: %d tenants on %d shards saw %d evictions, %d failures",
					pt.Tenants, arm.Shards, arm.Evictions, arm.Failed)
			}
			if arm.MinTenantSlices <= 0 {
				return "", fmt.Errorf("fleet check: %d tenants on %d shards: a tenant's slice counter stayed zero",
					pt.Tenants, arm.Shards)
			}
		}
	}
	return "fleet check: ok (zero evictions, every tenant counter nonzero)", nil
}

func checkInterp(r *bench.InterpResult) (string, error) {
	switch {
	case !r.OutputMatch:
		return "", fmt.Errorf("interp check: quickened output diverged from generic")
	case r.SpeedupP50 < 2:
		return "", fmt.Errorf("interp check: quickened arm only %.2fx faster at p50 (need >= 2x)", r.SpeedupP50)
	}
	return fmt.Sprintf("interp check: ok (%.2fx at p50, outputs identical)", r.SpeedupP50), nil
}

// runTelemetryPass exercises the instrumented runtime when no figure
// was requested: the disasm workload (which reads its class corpus
// through the VFS) on one browser profile, then a small file system
// trace replay. Together they populate event-loop dispatch latencies,
// per-backend VFS op latencies, JVM opcode counts, and fstrace per-op
// histograms in cfg.Telemetry.
func runTelemetryPass(cfg bench.Config) error {
	profile := browser.Chrome28
	if len(cfg.Browsers) > 0 {
		profile = cfg.Browsers[0]
	}
	spec := bench.Fig3Workloads[0]
	run, err := bench.RunDoppio(spec, cfg.Scale, profile, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("telemetry pass: %s on %s: %d bytecodes in %v\n",
		spec.ID, profile.Name, run.Instructions, run.Wall.Round(time.Millisecond))

	trace := fstrace.Generate(fstrace.GenerateParams{
		Ops: 400, UniqueFiles: 120, BytesRead: 600_000, BytesWritten: 8_000,
	})
	env := fleet.NewEnv(profile, cfg.Telemetry)
	stackOpts := []vfs.StackOption{}
	if cfg.FSCache {
		stackOpts = append(stackOpts, vfs.WithCache(vfs.CacheOptions{Hub: cfg.Telemetry}))
	}
	root := vfs.Stack(vfs.Instrument(vfs.NewInMemory(), cfg.Telemetry), stackOpts...)
	fs := env.NewFS(root)
	var okOps int
	if err := fleet.Drive(env.Win.Loop, "fstrace", func(done func(error)) {
		fstrace.SeedVFS(fs, trace, func(err error) {
			if err != nil {
				done(err)
				return
			}
			fstrace.ReplayVFSWith(env.Win.Loop, fs, trace, cfg.Telemetry, func(ok int, err error) {
				okOps = ok
				done(err)
			})
		})
	}); err != nil {
		return err
	}
	fmt.Printf("telemetry pass: fstrace replay completed %d/%d ops\n", okOps, len(trace.Ops))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doppio-bench:", err)
	os.Exit(1)
}
