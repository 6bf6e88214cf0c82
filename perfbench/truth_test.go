package main

import (
	"math"
	"testing"

	"botmeter/internal/core"
	"botmeter/internal/sim"
	"botmeter/internal/trace"
)

func TestGroundTruthCountsDistinctPoolClients(t *testing.T) {
	pool := map[int]map[string]bool{
		0: {"a.com": true, "b.com": true},
		1: {"c.com": true},
	}
	inPool := func(ep int, d string) bool { return pool[ep][d] }
	day := sim.Day
	raw := trace.Raw{
		{T: 10, Client: "bot1", Server: "s1", Domain: "a.com"},
		{T: 20, Client: "bot1", Server: "s1", Domain: "b.com"}, // same client twice
		{T: 30, Client: "bot2", Server: "s1", Domain: "b.com"},
		{T: 40, Client: "host", Server: "s1", Domain: "example.org"}, // benign
		{T: 50, Client: "bot3", Server: "s2", Domain: "a.com"},
		{T: day + 5, Client: "bot1", Server: "s1", Domain: "a.com"}, // epoch 0's pool, not epoch 1's
		{T: day + 6, Client: "bot4", Server: "s1", Domain: "c.com"},
	}
	got := groundTruth(raw, day, inPool)
	want := map[cellKey]int{{"s1", 0}: 2, {"s2", 0}: 1, {"s1", 1}: 1}
	if len(got) != len(want) {
		t.Fatalf("truth = %v, want %v", got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%v = %d, want %d", k, got[k], n)
		}
	}
}

func TestMedianARE(t *testing.T) {
	land := &core.Landscape{
		Window: sim.Window{Start: sim.Day, End: 3 * sim.Day},
		Servers: []core.ServerEstimate{
			{Server: "s1", PerEpoch: []float64{10, 12}}, // epochs 1 and 2
			{Server: "s2", PerEpoch: []float64{5, 0}},
		},
	}
	truth := map[cellKey]int{{"s1", 1}: 10, {"s1", 2}: 8, {"s2", 1}: 4, {"s3", 2}: 2, {"s2", 2}: 0}
	// AREs: 0, 0.5, 0.25, 1 (s3 unestimated); the zero-truth cell is skipped.
	are, n := medianARE(land, truth, sim.Day)
	if n != 4 || math.Abs(are-0.375) > 1e-12 {
		t.Fatalf("medianARE = %v over %d, want 0.375 over 4", are, n)
	}
}

func TestLandscapeDiff(t *testing.T) {
	mk := func() *core.Landscape {
		return &core.Landscape{Estimator: "MB", Total: 3, MatchedLookups: 7, Servers: []core.ServerEstimate{
			{Server: "a", Population: 2, PerEpoch: []float64{2}, MatchedLookups: 4},
			{Server: "b", Population: 1, PerEpoch: []float64{1}, MatchedLookups: 3},
		}}
	}
	a, b := mk(), mk()
	b.Ingest = &core.IngestStats{}
	b.Total += 1e-12
	if d := landscapeDiff(a, b); d != "" {
		t.Fatalf("equal landscapes differ: %s", d)
	}
	b.Servers[1].PerEpoch[0] = 1.5
	if d := landscapeDiff(a, b); d == "" {
		t.Fatal("per-epoch difference not reported")
	}
}

func TestCheckFederation(t *testing.T) {
	mk := func(pop float64) *core.Landscape {
		return &core.Landscape{Estimator: "MB", Total: pop, Servers: []core.ServerEstimate{
			{Server: "a", Population: pop, PerEpoch: []float64{pop}},
		}}
	}
	good, off := mk(2), mk(3)
	cases := []struct {
		name           string
		registryDrifts bool
		exact, served  *core.Landscape
		correct        bool
		failed         int
	}{
		{"both equal", false, good, good, true, 0},
		{"known drift", true, good, off, true, 1},
		{"known family, no drift", true, good, good, true, 0},
		{"drift in another family", false, good, off, false, 0},
		{"merge itself wrong", true, off, off, false, 1},
	}
	for _, c := range cases {
		b := &offlineBench{res: newResult()}
		b.checkFederation(&borderFamily{registryDrifts: c.registryDrifts}, good, c.exact, c.served)
		if b.res.correct != c.correct || b.res.failed != c.failed {
			t.Errorf("%s: correct %v failed %d, want %v and %d", c.name, b.res.correct, b.res.failed, c.correct, c.failed)
		}
	}
}

func TestServerSplitIsDisjointAndCovering(t *testing.T) {
	servers := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6"}
	for seed := uint64(0); seed < 5; seed++ {
		split := serverSplit(servers, 3, seed)
		per := map[int]int{}
		for _, s := range servers {
			v, ok := split[s]
			if !ok || v < 0 || v >= 3 {
				t.Fatalf("seed %d: %s → %d, %v", seed, s, v, ok)
			}
			per[v]++
		}
		if len(per) != 3 {
			t.Fatalf("seed %d: a vantage got no server: %v", seed, per)
		}
	}
}
