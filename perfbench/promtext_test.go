package main

import (
	"strings"
	"testing"
)

func TestParsePromText(t *testing.T) {
	text := `# HELP dnssim_cache_hits_total Cache hits.
# TYPE dnssim_cache_hits_total counter
dnssim_cache_hits_total{level="resolver"} 40
dnssim_cache_hits_total{level="mid",zone="a b"} 2
resolver_queries_total 42
resolver_upstream_attempt_seconds_bucket{le="0.001"} 3
resolver_upstream_attempt_seconds_sum 0.0125
resolver_upstream_attempt_seconds_count 5
stream_watermark_ms 1.7e+12
`
	s, err := parsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"dnssim_cache_hits_total":                 42, // summed over label sets
		"resolver_queries_total":                  42,
		"resolver_upstream_attempt_seconds_sum":   0.0125,
		"resolver_upstream_attempt_seconds_count": 5,
		"stream_watermark_ms":                     1.7e12,
	} {
		if s[name] != want {
			t.Errorf("%s = %v, want %v", name, s[name], want)
		}
	}
	if _, err := parsePromText(strings.NewReader("broken{le=\"1\" 3\n")); err == nil {
		t.Error("unterminated labels accepted")
	}
	if _, err := parsePromText(strings.NewReader("novalue\n")); err == nil {
		t.Error("sample without value accepted")
	}
}
