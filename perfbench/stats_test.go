package main

import (
	"math"
	"testing"
)

func TestQuantileInclusive(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {0.25, 3.25}, {1, 10},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := lowerQuartile([]float64{9, 1, 5, 3, 7}); got != 3 {
		t.Errorf("lowerQuartile = %v, want 3", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample should be NaN")
	}
}

func TestDistCountsAndTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	d := distOf(xs)
	if d.N != 1000 || d.P50 != 500.5 {
		t.Fatalf("dist = %+v", d)
	}
	if xs[0] != 1000 {
		t.Fatal("distOf must not reorder its input")
	}
	// p99 needs 10 samples beyond it: 1000 samples support it, 999 do not.
	if !tailSupported(1000, 0.99) || tailSupported(999, 0.99) {
		t.Error("p99 support boundary wrong")
	}
	if tailSupported(1000, 0.999) || !tailSupported(10000, 0.999) {
		t.Error("p99.9 support boundary wrong")
	}
	if tailUS(d, 0.999) != "n/a" {
		t.Errorf("p99.9 of 1000 samples reported as %s", tailUS(d, 0.999))
	}
}

func step(rate float64, pass bool) Step {
	s := Step{Rate: rate, Sent: 100, P99: 0.001, Limit: 0.005}
	if !pass {
		s.Lost = 2
	}
	return s
}

func TestKneeSelection(t *testing.T) {
	cases := []struct {
		name  string
		steps []Step
		want  float64
	}{
		{"none probed", nil, 0},
		{"all fail", []Step{step(1000, false), step(500, false)}, 0},
		{"bisection order", []Step{step(4000, true), step(8000, false), step(6000, true), step(7000, false)}, 6000},
		{"low failure caps a higher pass", []Step{step(8000, true), step(4000, false), step(2000, true)}, 2000},
		{"equal rate failure caps", []Step{step(4000, true), step(4000, false)}, 0},
	}
	for _, c := range cases {
		if got := knee(c.steps); got != c.want {
			t.Errorf("%s: knee = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestStepPassConditions(t *testing.T) {
	ok := Step{Rate: 1, Sent: 10, P99: 0.001, Limit: 0.005}
	if !ok.Pass() {
		t.Fatal("clean step should pass")
	}
	// Up to one query in a hundred may be lost to a stall of the host.
	if s := (Step{Rate: 1, Sent: 10000, Lost: 100, P99: 0.001, Limit: 0.005}); !s.Pass() {
		t.Error("step within the loss tolerance failed")
	}
	if s := (Step{Rate: 1, Sent: 10000, Lost: 101, P99: 0.001, Limit: 0.005}); s.Pass() {
		t.Error("step beyond the loss tolerance passed")
	}
	for name, s := range map[string]Step{
		"lost":     {Rate: 1, Sent: 10, Lost: 1, P99: 0.001, Limit: 0.005},
		"slow p99": {Rate: 1, Sent: 10, P99: 0.005, Limit: 0.005},
		"grew":     {Rate: 1, Sent: 10, P99: 0.001, Limit: 0.005, Grew: true},
		"empty":    {Rate: 1, Limit: 0.005},
	} {
		if s.Pass() {
			t.Errorf("%s step passed", name)
		}
	}
}

func TestLadderIsFixedAndGeometric(t *testing.T) {
	r := ladder(1000, 2000, 1.1)
	want := []float64{1000, 1100, 1210, 1331, 1464, 1611, 1772, 1949}
	if len(r) != len(want) {
		t.Fatalf("ladder = %v", r)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", r, want)
		}
	}
}

func TestGrew(t *testing.T) {
	flat := make([]float64, 90)
	rising := make([]float64, 90)
	for i := range flat {
		flat[i] = 100e-6
		rising[i] = float64(i) * 1e-3
	}
	if grew(flat, 1e-3) {
		t.Error("flat latencies grew")
	}
	if !grew(rising, 1e-3) {
		t.Error("linearly rising latencies did not grow")
	}
	if grew(rising[:20], 1e-3) {
		t.Error("fewer than 30 samples must not count")
	}
}
