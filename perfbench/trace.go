package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"doppio/internal/core"
)

// span is one timed call into a layer, recorded by a benchmark-owned
// wrapper. Spans are kept in memory and reduced when the phase ends.
type span struct {
	layer      string
	start, end time.Time
	// inSlice marks a span that began while a core thread was running
	// a timeslice, so its time is already inside core's slice CPU.
	inSlice bool
}

// spanLog holds the spans of one loop goroutine; wrappers append to
// it only from that goroutine, so it needs no lock.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(s span) { l.spans = append(l.spans, s) }

// spanTotals reduces a log to per-layer counts and top-level time:
// the summed duration of spans not nested inside another span of the
// log, split by whether they began inside a core timeslice.
type spanTotals struct {
	count   map[string]int
	outside map[string]time.Duration
	inside  map[string]time.Duration
}

func (l *spanLog) totals() spanTotals {
	t := spanTotals{count: map[string]int{}, outside: map[string]time.Duration{}, inside: map[string]time.Duration{}}
	s := append([]span(nil), l.spans...)
	sort.Slice(s, func(i, j int) bool {
		if !s[i].start.Equal(s[j].start) {
			return s[i].start.Before(s[j].start)
		}
		return s[i].end.After(s[j].end)
	})
	var coveredTo time.Time
	for _, sp := range s {
		t.count[sp.layer]++
		if sp.start.Before(coveredTo) {
			continue // nested in an earlier top-level span
		}
		coveredTo = sp.end
		if sp.inSlice {
			t.inside[sp.layer] += sp.end.Sub(sp.start)
		} else {
			t.outside[sp.layer] += sp.end.Sub(sp.start)
		}
	}
	return t
}

// writeSpans writes spans as a Chrome trace_event file (open it in
// chrome://tracing or Perfetto), one row per layer, times in
// microseconds from the first span.
func writeSpans(path string, spans []span) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	epoch := spans[0].start
	for _, s := range spans {
		if s.start.Before(epoch) {
			epoch = s.start
		}
	}
	rows := map[string]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, ok := rows[s.layer]
		if !ok {
			tid = len(rows) + 1
			rows[s.layer] = tid
		}
		events = append(events, event{Name: s.layer, Ph: "X", TS: us(s.start.Sub(epoch)),
			Dur: us(s.end.Sub(s.start)), PID: 1, TID: tid})
	}
	data, err := json.Marshal(map[string]interface{}{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sliceRunning reports whether one of rt's threads is mid-timeslice.
// It must be called on rt's loop goroutine.
func sliceRunning(rt *core.Runtime) bool {
	if rt == nil {
		return false
	}
	for _, t := range rt.Threads() {
		if t.State() == core.RunningState {
			return true
		}
	}
	return false
}

// addStats accumulates core runtime counters.
func addStats(a *core.Stats, b core.Stats) {
	a.Suspensions += b.Suspensions
	a.SuspendedTime += b.SuspendedTime
	a.CPUTime += b.CPUTime
	a.ContextSwitches += b.ContextSwitches
	a.Slices += b.Slices
	a.Batches += b.Batches
}

// subStats subtracts b's additive counters from a.
func subStats(a *core.Stats, b core.Stats) {
	a.Suspensions -= b.Suspensions
	a.SuspendedTime -= b.SuspendedTime
	a.CPUTime -= b.CPUTime
	a.ContextSwitches -= b.ContextSwitches
	a.Slices -= b.Slices
	a.Batches -= b.Batches
}

// recordCore stores the core.* layer metrics, per round.
func (c *runCtx) recordCore(st core.Stats, rounds int) {
	n := float64(rounds)
	c.layer["core.slices"] = float64(st.Slices) / n
	c.layer["core.suspensions"] = float64(st.Suspensions) / n
	c.layer["core.suspended_ms"] = ms(st.SuspendedTime) / n
	c.layer["core.slice_cpu_s"] = st.CPUTime.Seconds() / n
	c.layer["core.context_switches"] = float64(st.ContextSwitches) / n
}
