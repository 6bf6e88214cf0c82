package main

import (
	"math"
	"sort"
)

// Dist summarises a sample of durations (or any positive values): the
// sample count and the quantiles the benchmark reports.
type Dist struct {
	N    int
	P50  float64
	P90  float64
	P99  float64
	P999 float64
}

// quantile returns the q-quantile (0..1) of an ascending sample by linear
// interpolation between closest ranks (the "inclusive" method, as Python's
// statistics.quantiles(method="inclusive") and numpy's default compute it).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*frac
}

// distOf sorts a copy of xs and summarises it.
func distOf(xs []float64) Dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Dist{
		N:    len(s),
		P50:  quantile(s, 0.50),
		P90:  quantile(s, 0.90),
		P99:  quantile(s, 0.99),
		P999: quantile(s, 0.999),
	}
}

// tailSupported reports whether quantile q has at least ten samples beyond
// it in a sample of n, the rule for reporting a tail percentile at all.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// median is the 0.5 quantile of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// lowerQuartile is the 0.25 quantile of xs (NaN when empty).
func lowerQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.25)
}

// Step is one probe of the offered-rate ladder.
type Step struct {
	Rate  float64 // offered queries per second
	Sent  int
	Lost  int     // sent but never answered (or answered wrongly)
	P99   float64 // seconds, from due time
	Grew  bool    // latency rose across the step: a growing backlog
	Limit float64 // p99 limit in seconds
}

// lossTolerance is the share of a step's queries that may go unanswered.
// A few-millisecond stall of a shared host's CPU overflows the resolver's
// socket buffer at any rate above some tens of thousands of queries per
// second, whatever the program does, and costs a step up to about 1 % of
// its queries; an overloaded step loses more, and more with every rung.
const lossTolerance = 0.01

// Pass reports whether the step was sustained: at most lossTolerance of its
// queries lost, p99 under the limit and no latency growth across the step.
func (s Step) Pass() bool {
	return s.Sent > 0 && float64(s.Lost) <= lossTolerance*float64(s.Sent) && s.P99 < s.Limit && !s.Grew
}

// knee returns the highest probed rate that passed with no failed probe at
// or below it, or 0 when no probe qualifies. Probes may come in any order
// (the ladder is searched by bisection); a failure low on the ladder caps
// the knee below it even if a higher probe happened to pass.
func knee(steps []Step) float64 {
	lowestFail := math.Inf(1)
	for _, s := range steps {
		if !s.Pass() && s.Rate < lowestFail {
			lowestFail = s.Rate
		}
	}
	best := 0.0
	for _, s := range steps {
		if s.Pass() && s.Rate < lowestFail && s.Rate > best {
			best = s.Rate
		}
	}
	return best
}

// ladder returns the fixed geometric ladder of offered rates from lo to at
// most hi, each rung ratio times the one below it, rounded to whole qps.
func ladder(lo, hi, ratio float64) []float64 {
	var out []float64
	for r := lo; r <= hi*(1+1e-9); r *= ratio {
		out = append(out, math.Round(r))
	}
	return out
}

// grew reports whether latencies (in due-time order) show a growing
// backlog: the median of the last third exceeds twice the median of the
// first third plus slack seconds. Fewer than 30 samples never count.
func grew(lat []float64, slack float64) bool {
	n := len(lat)
	if n < 30 {
		return false
	}
	first := median(lat[:n/3])
	last := median(lat[n-n/3:])
	return last > 2*first+slack
}
