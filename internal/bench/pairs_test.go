package bench

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// TestRunPairsOrder pins the pair method: one untimed warm-up of each
// arm, then pairs alternating A,B / B,A / A,B..., with each returned
// sample filed under its own arm and pair.
func TestRunPairsOrder(t *testing.T) {
	var calls []string
	arm := func(name string) func() (string, error) {
		n := 0
		return func() (string, error) {
			calls = append(calls, name)
			n++
			return fmt.Sprint(name, n), nil
		}
	}
	p, err := runPairs(4, arm("A"), arm("B"))
	if err != nil {
		t.Fatal(err)
	}
	wantCalls := []string{"A", "B", "A", "B", "B", "A", "A", "B", "B", "A"}
	if !reflect.DeepEqual(calls, wantCalls) {
		t.Errorf("call order %v, want %v", calls, wantCalls)
	}
	// Run 1 of each arm is the warm-up and is not returned.
	if want := []string{"A2", "A3", "A4", "A5"}; !reflect.DeepEqual(p.A, want) {
		t.Errorf("A samples %v, want %v", p.A, want)
	}
	if want := []string{"B2", "B3", "B4", "B5"}; !reflect.DeepEqual(p.B, want) {
		t.Errorf("B samples %v, want %v", p.B, want)
	}
}

func TestRunPairsError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	ok := func() (int, error) { calls++; return 1, nil }
	failPair0B := func() (int, error) {
		calls++
		if calls == 4 { // warm-ups are calls 1-2, so this is pair 0's B
			return 0, boom
		}
		return 1, nil
	}
	if _, err := runPairs(3, ok, failPair0B); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls != 4 {
		t.Errorf("%d calls after the failure, want the comparison to stop at 4", calls)
	}
}

func TestPairRatios(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	id := func(d time.Duration) time.Duration { return d }
	p := pairs[time.Duration]{
		A: []time.Duration{ms(10), 0, ms(20)},
		B: []time.Duration{ms(15), ms(5), ms(10)},
	}
	// The zero-denominator pair contributes no ratio.
	if got, want := p.ratios(id, id), []float64{1.5, 0.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("ratios = %v, want %v", got, want)
	}
}

func TestMedianAndIQMean(t *testing.T) {
	cases := []struct {
		xs             []float64
		median, iqMean float64
	}{
		{nil, 0, 0},
		{[]float64{3}, 3, 3},
		{[]float64{4, 1}, 2.5, 2.5},
		{[]float64{5, 1, 4, 2, 3}, 3, 3},
		// Outliers move neither: the IQ mean of 8 drops 2 from each end.
		{[]float64{100, 1, 2, 3, 4, 5, 6, -50}, 3.5, 3.5},
		{[]float64{1, 2, 3, 10}, 2.5, 2.5},
		{[]float64{1, 1, 2, 4, 8, 9, 9}, 4, 4.8},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); math.Abs(got-c.median) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.median)
		}
		if got := iqMean(c.xs); math.Abs(got-c.iqMean) > 1e-12 {
			t.Errorf("iqMean(%v) = %v, want %v", c.xs, got, c.iqMean)
		}
		if !reflect.DeepEqual(in, c.xs) {
			t.Errorf("summaries reordered their input: %v", c.xs)
		}
	}
}

// TestNearestRank pins the percentile convention: exact nearest-rank
// over the raw sample, no interpolation.
func TestNearestRank(t *testing.T) {
	sample := make([]time.Duration, 100)
	for i := range sample {
		sample[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{0.999, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := nearestRank(sample, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
	}
	if nearestRank(nil, 0.5) != 0 {
		t.Error("empty sample should yield 0")
	}
	one := []time.Duration{7 * time.Millisecond}
	if got := nearestRank(one, 0.999); got != one[0] {
		t.Errorf("singleton p999 = %v", got)
	}
}
