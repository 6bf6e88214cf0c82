package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Scrape is one /metrics exposition folded to one value per metric name:
// samples of the same name with different label sets are summed, so
// per-shard or per-level series read as their total.
type Scrape map[string]float64

// parsePromText reads Prometheus text exposition format. Comment lines are
// skipped; a histogram's _sum and _count samples keep their suffixed names.
func parsePromText(r io.Reader) (Scrape, error) {
	out := Scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		rest := ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
			rest = line[i:]
		}
		if strings.HasPrefix(rest, "{") {
			j := strings.LastIndexByte(rest, '}')
			if j < 0 {
				return nil, fmt.Errorf("metrics: unterminated labels in %q", line)
			}
			rest = rest[j+1:]
		}
		f := strings.Fields(rest)
		if len(f) < 1 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %q: %w", name, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// scrape fetches and parses http://addr/metrics.
func scrape(addr string) (Scrape, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", addr, resp.Status)
	}
	return parsePromText(resp.Body)
}

// delta returns after[name] − before[name].
func delta(before, after Scrape, name string) float64 {
	return after[name] - before[name]
}
