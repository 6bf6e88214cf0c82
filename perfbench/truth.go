package main

import (
	"fmt"
	"math"
	"sort"

	"botmeter/internal/core"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

// cellKey names one (forwarding server, epoch) cell.
type cellKey struct {
	server string
	epoch  int
}

// groundTruth counts, per (server, epoch), the distinct clients whose raw
// lookups include a domain of the family's pool for that epoch. It reads
// only the simulator's client-level trace and the pools, never estimator
// code, so it is an independent reference for the estimates.
func groundTruth(raw trace.Raw, epochLen sim.Time, inPool func(epoch int, domain string) bool) map[cellKey]int {
	clients := map[cellKey]map[string]bool{}
	for _, r := range raw {
		ep := int(r.T / epochLen)
		if !inPool(ep, r.Domain) {
			continue
		}
		k := cellKey{r.Server, ep}
		if clients[k] == nil {
			clients[k] = map[string]bool{}
		}
		clients[k][r.Client] = true
	}
	out := make(map[cellKey]int, len(clients))
	for k, c := range clients {
		out[k] = len(c)
	}
	return out
}

// medianARE is the median absolute relative error of a landscape's
// per-epoch estimates over the cells with a positive truth. Per-epoch
// estimates are indexed from the landscape window's first epoch.
func medianARE(land *core.Landscape, truth map[cellKey]int, epochLen sim.Time) (float64, int) {
	first := int(land.Window.Start / epochLen)
	est := map[cellKey]float64{}
	for _, s := range land.Servers {
		for i, v := range s.PerEpoch {
			est[cellKey{s.Server, first + i}] = v
		}
	}
	var errs []float64
	for k, t := range truth {
		if t <= 0 {
			continue
		}
		errs = append(errs, math.Abs(est[k]-float64(t))/float64(t))
	}
	if len(errs) == 0 {
		return math.NaN(), 0
	}
	return median(errs), len(errs)
}

// landscapeDiff describes the first difference between two landscapes, or
// returns "" when they agree: same estimator, window, server ranking and
// bit-identical per-server figures. Total is summed in different orders by
// different pipelines, so it gets a relative epsilon; the streaming
// engine's ingest tallies are not compared.
func landscapeDiff(want, got *core.Landscape) string {
	if want.Estimator != got.Estimator {
		return fmt.Sprintf("estimator %q vs %q", want.Estimator, got.Estimator)
	}
	if want.Window != got.Window {
		return fmt.Sprintf("window %v vs %v", want.Window, got.Window)
	}
	if want.MatchedLookups != got.MatchedLookups {
		return fmt.Sprintf("matched lookups %d vs %d", want.MatchedLookups, got.MatchedLookups)
	}
	if len(want.Servers) != len(got.Servers) {
		return fmt.Sprintf("%d vs %d servers", len(want.Servers), len(got.Servers))
	}
	for i := range want.Servers {
		w, g := want.Servers[i], got.Servers[i]
		switch {
		case w.Server != g.Server:
			return fmt.Sprintf("rank %d: %q vs %q", i, w.Server, g.Server)
		case w.Population != g.Population:
			return fmt.Sprintf("%s population %v vs %v", w.Server, w.Population, g.Population)
		case w.MatchedLookups != g.MatchedLookups || w.DistinctDomains != g.DistinctDomains:
			return fmt.Sprintf("%s tallies (%d,%d) vs (%d,%d)", w.Server,
				w.MatchedLookups, w.DistinctDomains, g.MatchedLookups, g.DistinctDomains)
		case len(w.PerEpoch) != len(g.PerEpoch):
			return fmt.Sprintf("%s %d vs %d epochs", w.Server, len(w.PerEpoch), len(g.PerEpoch))
		}
		for ep := range w.PerEpoch {
			if w.PerEpoch[ep] != g.PerEpoch[ep] {
				return fmt.Sprintf("%s epoch %d: %v vs %v", w.Server, ep, w.PerEpoch[ep], g.PerEpoch[ep])
			}
		}
	}
	if math.Abs(want.Total-got.Total) > 1e-9*math.Max(1, math.Abs(want.Total)) {
		return fmt.Sprintf("total %v vs %v", want.Total, got.Total)
	}
	return ""
}

// serverSplit assigns each server to one of n vantages, a seed-shuffled
// round-robin: every vantage gets servers, and no server is in two.
func serverSplit(servers []string, n int, seed uint64) map[string]int {
	s := append([]string(nil), servers...)
	sort.Strings(s)
	rng := sim.NewRNG(seed)
	for i := len(s) - 1; i > 0; i-- {
		j := int(rng.Int64N(int64(i + 1)))
		s[i], s[j] = s[j], s[i]
	}
	out := make(map[string]int, len(s))
	for i, name := range s {
		out[name] = i % n
	}
	return out
}
