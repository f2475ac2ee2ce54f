package main

import (
	"bytes"
	"embed"
	"fmt"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/browser"
	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
)

// expectedFS holds each guest program's expected standard output,
// produced once on the native engine and checked by hand.
//
//go:embed expected/*.txt
var expectedFS embed.FS

// cpuProgram is one tab-cpu guest program and its argument.
type cpuProgram struct {
	key, main, arg string
}

// tabCPUPrograms run back to back in a seeded order each round. The
// arguments size each program at roughly 0.1-0.3 s on the Doppio
// engine, so no one program dominates a round.
var (
	tabCPUPrograms = []cpuProgram{
		{"deltablue", "DeltaBlue", "2"},
		{"pidigits", "PiDigits", "200"},
		{"miniscript", "MiniScript", "2"},
		{"scheme", "SchemeMain", "5"},
	}
	tabCPUSmall = []cpuProgram{
		{"deltablue", "DeltaBlue", "1"},
		{"pidigits", "PiDigits", "30"},
		{"miniscript", "MiniScript", "1"},
		{"scheme", "SchemeMain", "3"},
	}
)

// expectedOutput returns the committed output for a program, unless
// the run overrides it (the self-tests plant a wrong one).
func (c *runCtx) expectedOutput(p cpuProgram) (string, error) {
	key := p.key + "-" + p.arg
	if s, ok := c.opts.expect[key]; ok {
		return s, nil
	}
	b, err := expectedFS.ReadFile("expected/" + key + ".txt")
	if err != nil {
		return "", fmt.Errorf("no expected output for %s: %w", key, err)
	}
	return string(b), nil
}

// cpuRound accumulates one traced phase's per-layer readings.
type cpuRound struct {
	loop      eventloop.Stats
	core      core.Stats
	bytecodes int64
	spans     spanLog
}

// runTabCPU: one tab (a fresh browser window per round) runs the four
// guest programs back to back, each in a fresh DoppioVM, with classes
// served from memory.
func runTabCPU(c *runCtx) error {
	progs := tabCPUPrograms
	if c.opts.small {
		progs = tabCPUSmall
	}
	want := map[string]string{}
	for _, p := range progs {
		s, err := c.expectedOutput(p)
		if err != nil {
			return err
		}
		want[p.key] = s
	}
	// Set-up is compiling the guest programs and the runtime library
	// from MiniJava source.
	classes, err := setupN(c, 25, func() (map[string][]byte, error) {
		return rt.CompileWith(workloads.Sources())
	}, func(map[string][]byte) {})
	if err != nil {
		return err
	}

	pr := c.newProber()
	var acc cpuRound
	traced := false
	round := func(i int) error {
		order := c.rng.Perm(len(progs))
		win := browser.NewWindow(browser.Chrome28)
		pr.setLoops(win.Loop)
		tb := openTab(win)
		var roundErr error
		for _, k := range order {
			p := progs[k]
			out, err := runCPUProgram(tb, classes, p, traced, &acc)
			if err != nil {
				roundErr = fmt.Errorf("%s: %w", p.main, err)
				break
			}
			c.check(out == want[p.key], "tab-cpu round %d: %s %s printed %q, want %q", i, p.main, p.arg, out, want[p.key])
		}
		if err := tb.close(); err != nil && roundErr == nil {
			roundErr = err
		}
		if traced {
			acc.loop = addLoop(acc.loop, win.Loop.Stats())
		}
		return roundErr
	}

	// One untimed round warms the Go heap and code paths.
	if err := round(0); err != nil {
		return err
	}
	untracedLen, tracedLen := c.phaseLengths()
	ph, err := runPhase(untracedLen, 3, 1, pr, round)
	if err != nil {
		return err
	}
	c.recordUntraced(ph)
	if !c.opts.traced {
		return nil
	}
	traced = true
	tph, err := runPhase(tracedLen, 3, 1+len(ph.walls), pr, round)
	if err != nil {
		return err
	}
	c.recordTraced(tph)
	c.traceOverhead(ph, tph)
	n := len(tph.walls)
	c.recordLoop(acc.loop, n)
	c.recordCore(acc.core, n)
	c.layer["jvm.bytecodes"] = float64(acc.bytecodes) / float64(n)
	if acc.core.CPUTime > 0 {
		c.layer["jvm.bytecodes_per_s"] = float64(acc.bytecodes) / acc.core.CPUTime.Seconds()
	}
	c.spans = acc.spans.spans
	tot := acc.spans.totals()
	load := tot.inside["jvm.classload"] + tot.outside["jvm.classload"]
	c.layer["jvm.classloads"] = float64(tot.count["jvm.classload"]) / float64(n)
	c.layer["jvm.classload_ms"] = ms(load) / float64(n)
	per := func(d time.Duration) float64 { return d.Seconds() / float64(n) }
	c.setLedger(tph, []ledgerEntry{
		{"jvm_slices", per(acc.core.CPUTime - tot.inside["jvm.classload"]), "core timeslices running bytecode and natives, class loading excluded"},
		{"jvm_classload", per(load), "class fetch, parse and link (provider spans)"},
		{"loop_other", per(acc.loop.BusyTime - acc.core.CPUTime - tot.outside["jvm.classload"]), "other macrotasks: scheduler ticks, resumption messages, VM start, probes"},
		{"loop_idle", per(acc.loop.IdleTime), "event loop waiting for timers or external events"},
	})
	return nil
}

// runCPUProgram runs one guest program in a fresh DoppioVM on the
// tab's running loop and returns its standard output. The VM is built
// and started on the loop goroutine; core and JVM counters are read
// there when main finishes.
func runCPUProgram(tb *tab, classes map[string][]byte, p cpuProgram, traced bool, acc *cpuRound) (string, error) {
	var out bytes.Buffer
	err := tb.do("perfbench-start", func(done func(error)) {
		opts := jvm.DoppioOptions{
			Stdout:           &out,
			Provider:         jvm.MapProvider(classes),
			DisableEngineTax: true,
		}
		var tp *timedProvider
		if traced {
			tp = &timedProvider{inner: opts.Provider, log: &acc.spans}
			opts.Provider = tp
		}
		vm := jvm.NewDoppioVM(tb.win, opts)
		if tp != nil {
			tp.rt = vm.Runtime()
		}
		vm.StartMain(p.main, []string{p.arg}, func(err error) {
			if traced {
				addStats(&acc.core, vm.Runtime().Stats())
				acc.bytecodes += vm.Instructions
			}
			done(err)
		})
	})
	if err != nil {
		return "", err
	}
	return out.String(), nil
}

// recordLoop stores the eventloop.* layer metrics, per round.
func (c *runCtx) recordLoop(st eventloop.Stats, rounds int) {
	n := float64(rounds)
	c.layer["eventloop.tasks"] = float64(st.TasksRun) / n
	c.layer["eventloop.busy_s"] = st.BusyTime.Seconds() / n
	c.layer["eventloop.idle_s"] = st.IdleTime.Seconds() / n
	c.layer["eventloop.longest_task_ms"] = ms(st.LongestTask)
}
