// Command perfbench is the repository benchmark: four workloads that
// drive the Doppio runtime only through its public packages, check
// every output, and print end-to-end metrics (untraced runs) or
// per-layer metrics (traced runs) by name and unit. See README.md.
//
//	bash perfbench/run.sh --workload tab-cpu --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are the
// human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(c *runCtx) error
}

var allWorkloads = []workload{
	{"tab-cpu", runTabCPU},
	{"tab-fs", runTabFS},
	{"tab-gateway", runTabGateway},
	{"fleet-mix", runFleetMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: tab-cpu, tab-fs, tab-gateway, fleet-mix, or all")
	seed := flag.Int64("seed", 1, "seed every input is drawn from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	var run []workload
	if *name == "all" {
		run = allWorkloads
	} else if w, ok := findWorkload(*name); ok {
		run = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	host := describeHost()
	fmt.Printf("# host: %s\n", host)
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range run {
		c := newRunCtx(options{seed: *seed, seconds: *seconds, traced: *trace == 1})
		err := w.run(c)
		res := c.result(err)
		printReport(os.Stdout, w.name, c, res)
		if len(c.spans) > 0 {
			path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
			if err := writeSpans(path, c.spans); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			} else {
				fmt.Printf("# spans: %d written to %s\n", len(c.spans), path)
			}
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(run) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !final.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes the human-readable lines for one workload: the
// settings, every metric with its unit, the traced run's time ledger,
// and the first few output mismatches.
func printReport(w io.Writer, name string, c *runCtx, res result) {
	mode := "untraced (end-to-end metrics)"
	if c.opts.traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "# workload %s seed=%d seconds=%g %s rounds=%d\n",
		name, c.opts.seed, c.opts.seconds, mode, c.rounds)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "#   %-28s %16.6f %s\n", k, m.Value, m.Unit)
	}
	if len(c.ledger) > 0 {
		fmt.Fprintf(w, "# ledger (mean per traced round; parts sum to ledger.run_s):\n")
		for _, e := range c.ledger {
			fmt.Fprintf(w, "#   %-28s %12.6f s  %s\n", e.name, e.seconds, e.what)
		}
	}
	for i, m := range c.mismatches {
		if i == 5 {
			fmt.Fprintf(w, "# ... %d more mismatches\n", len(c.mismatches)-i)
			break
		}
		fmt.Fprintf(w, "# MISMATCH %s\n", m)
	}
	if !res.Correct {
		fmt.Fprintf(w, "# %s: FAILED (%d of %d operations failed)\n", name, res.Failed, res.Attempted)
	}
}

// describeHost records what a reading depends on: cores, GOMAXPROCS,
// Go version and the source the binary was built from.
func describeHost() string {
	h := hostInfo()
	return strings.Join([]string{
		fmt.Sprintf("cores=%d", h.cores),
		fmt.Sprintf("gomaxprocs=%d", h.gomaxprocs),
		"go=" + h.goVersion,
		"commit=" + h.commit,
		"source=" + h.sourceDigest,
		"time=" + time.Now().UTC().Format(time.RFC3339),
	}, " ")
}
