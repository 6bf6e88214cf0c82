package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "query", Start: 0, End: 100},
		{ID: 1, Name: "decode", Parent: "query", Start: 10, End: 30},
		{ID: 1, Name: "exchange", Parent: "query", Start: 25, End: 80}, // overlaps decode
		{ID: 1, Name: "observe", Parent: "exchange", Start: 40, End: 50},
		{ID: 2, Name: "query", Start: 200, End: 210}, // another query's spans stay apart
		{ID: 2, Name: "decode", Parent: "query", Start: 205, End: 215},
	}
	got := tr.selfTimes()
	for name, want := range map[string]time.Duration{
		"query":    30 + 5, // 100 − [10,80]; 10 − [205,210]
		"decode":   20 + 10,
		"exchange": 45,
		"observe":  10,
	} {
		if got[name].Self != want {
			t.Errorf("%s self = %v, want %v", name, got[name].Self, want)
		}
	}
	if got["query"].Count != 2 || got["query"].Total != 110 {
		t.Errorf("query = %+v", got["query"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.begin(1, "x", "")()
	on := newTracer()
	on.on.Store(false)
	on.begin(1, "x", "")()
	if len(on.spans) != 0 {
		t.Fatal("a tracer switched off recorded a span")
	}
}
