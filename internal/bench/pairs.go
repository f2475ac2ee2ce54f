// The A/B runner behind every timed comparison in this package, and
// the summary statistics the harnesses share. DESIGN.md §18 gives the
// method and why a single run per arm is not a measurement on a shared
// host.
package bench

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// pairs is the outcome of an interleaved A/B: each arm's timed
// samples, index i of A and B forming pair i.
type pairs[T any] struct {
	A, B []T
}

// runPairs warms each arm up once, untimed, then runs n pairs: pair i
// runs a then b when i is even and b then a when i is odd. Any arm
// error ends the comparison.
func runPairs[T any](n int, a, b func() (T, error)) (pairs[T], error) {
	var p pairs[T]
	if _, err := a(); err != nil {
		return p, err
	}
	if _, err := b(); err != nil {
		return p, err
	}
	for i := 0; i < n; i++ {
		first, second := a, b
		if i%2 == 1 {
			first, second = b, a
		}
		x, err := first()
		if err != nil {
			return p, err
		}
		y, err := second()
		if err != nil {
			return p, err
		}
		if i%2 == 1 {
			x, y = y, x
		}
		p.A = append(p.A, x)
		p.B = append(p.B, y)
	}
	return p, nil
}

// ratios returns each pair's num(B)/den(A), skipping pairs whose
// denominator is zero.
func (p pairs[T]) ratios(num, den func(T) time.Duration) []float64 {
	out := make([]float64, 0, len(p.A))
	for i := range p.A {
		if d := den(p.A[i]); d > 0 {
			out = append(out, float64(num(p.B[i]))/float64(d))
		}
	}
	return out
}

// sortedBy extracts one duration per sample, ascending — the input
// nearestRank expects.
func sortedBy[T any](samples []T, f func(T) time.Duration) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// nearestRank is the exact nearest-rank percentile of a sorted sample.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// iqMean is the interquartile mean of xs: the mean after dropping the
// lowest and highest quarter, which discards pairs that straddled a
// machine-speed transition while using more of the sample than a
// median does; 0 for an empty sample.
func iqMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// WriteReport writes a harness result as indented JSON — the form of
// every committed BENCH_*.json.
func WriteReport(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
