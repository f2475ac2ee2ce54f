package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tiny runs one workload at the self-test size.
func tiny(t *testing.T, name string, traced bool, seed int64, expect map[string]string) (result, *runCtx) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	c := newRunCtx(options{seed: seed, seconds: 0.2, traced: traced, setups: 1, small: true, expect: expect})
	return c.result(w.run(c)), c
}

// benchmarkFile is the part of BENCHMARK.json the self-tests compare.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(allWorkloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	compare := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(file), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, m := range file {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s [%s] is not reported with that unit (got %q)", kind, m.Name, m.Unit, u)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
}

func TestEveryMetricReported(t *testing.T) {
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			res, c := tiny(t, w.name, traced, 7, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d mismatches=%v",
					w.name, traced, res.Correct, res.Failed, res.Attempted, c.mismatches)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				checkSpans(t, w.name, c.spans)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.name, traced, d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// checkSpans writes a traced run's spans and reads them back as a
// Chrome trace.
func checkSpans(t *testing.T, name string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: traced run recorded no spans", name)
		return
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("%s: spans file: %v", name, err)
	}
	if len(trace.TraceEvents) != len(spans) {
		t.Errorf("%s: %d trace events, want %d", name, len(trace.TraceEvents), len(spans))
	}
	for _, e := range trace.TraceEvents {
		if e.Name == "" || e.Ph != "X" || e.Dur < 0 {
			t.Errorf("%s: bad trace event %+v", name, e)
			break
		}
	}
}

func TestExactCountsRepeat(t *testing.T) {
	for _, tc := range []struct{ workload, metric string }{
		{"tab-cpu", "jvm.bytecodes"},
		{"tab-fs", "vfs.backend.calls"},
		{"fleet-mix", "fleet.tenants"},
	} {
		a, _ := tiny(t, tc.workload, true, 11, nil)
		b, _ := tiny(t, tc.workload, true, 11, nil)
		va, vb := a.Metrics[tc.metric].Value, b.Metrics[tc.metric].Value
		if va <= 0 || va != vb {
			t.Errorf("%s %s: %v then %v, want the same positive count", tc.workload, tc.metric, va, vb)
		}
	}
}

func TestWrongExpectedOutputFails(t *testing.T) {
	res, c := tiny(t, "tab-cpu", false, 3, map[string]string{"pidigits-30": "3.14\n"})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a wrong expected output passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if len(c.mismatches) == 0 {
		t.Fatal("no mismatch reported")
	}
}
