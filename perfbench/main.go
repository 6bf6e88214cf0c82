// Command perfbench is BotMeter's benchmark. It runs one named workload
// and prints, as the last line of standard output, one JSON object with
// the workload's metrics, the operations it attempted and failed, and
// whether every output check passed:
//
//	bash perfbench/run.sh --workload wire-miss --seed 7 --seconds 30 --trace 0
//
// Workloads:
//
//   - wire-hit: the real cmd/resolver and cmd/vantage on loopback, driven
//     open-loop by repeated names, so nearly every query is a resolver
//     cache hit.
//   - wire-miss: the same daemons with names that never repeat, so every
//     query crosses the resolver's miss path to the vantage, its observed
//     log and the live stream engine.
//   - offline: Fig. 6(a), Fig. 7 and a simulated multi-server border trace
//     analysed in batch, replayed through the stream engine with
//     checkpoints and federated across vantages, all in-process.
//
// With --trace 0 the end-to-end metrics are printed; with --trace 1 a
// separate traced run prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// metricDef names one reported metric and its unit. The lists below mirror
// BENCHMARK.json (a test keeps them in step).
type metricDef struct {
	name string
	unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"run.throughput_per_s", "1/s"},
	{"run.cpu_us_per_op", "us"},
	{"run.latency_p50_us", "us"},
	{"run.latency_p90_us", "us"},
	{"resolver.cpu_us_per_query", "us"},
	{"resolver.cache_hit_ratio", "ratio"},
	{"resolver.upstream_attempt_us", "us"},
	{"resolver.rss_mb", "MB"},
	{"vantage.cpu_us_per_query", "us"},
	{"vantage.rss_mb", "MB"},
	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.retried_queries", "count"},
	{"dnswire.decode_ns", "ns"},
	{"dnswire.encode_ns", "ns"},
	{"dnswire.allocs_per_query", "count"},
	{"symtab.intern_ns", "ns"},
	{"symtab.bytes_per_name", "B"},
	{"dnssim.cache_lookup_ns", "ns"},
	{"dnssim.cache_store_ns", "ns"},
	{"netx.udp_roundtrip_us", "us"},
	{"netx.dial_exchange_us", "us"},
	{"trace.append_ns", "ns"},
	{"trace.flush_us", "us"},
	{"trace.read_krec_per_s", "krec/s"},
	{"stream.observe_ns", "ns"},
	{"stream.matched_ratio", "ratio"},
	{"stream.epoch_close_us", "us"},
	{"stream.checkpoint_export_ms", "ms"},
	{"stream.checkpoint_encode_ms", "ms"},
	{"stream.checkpoint_bytes", "B"},
	{"stream.peak_retained", "count"},
	{"stream.merge_ms", "ms"},
	{"stream.snapshot_ms", "ms"},
	{"core.analyze_ms", "ms"},
	{"core.analyze_w1_ms", "ms"},
	{"matcher.match_ns", "ns"},
	{"estimators.estimate_epoch_us", "us"},
	{"experiments.simulate_ms", "ms"},
	{"experiments.estimate_ms", "ms"},
	{"experiments.allocs_per_trial", "count"},
	{"offline.fig6a_ms_per_trial", "ms"},
	{"offline.fig7_ms_per_day", "ms"},
	{"offline.analyze_krec_per_s", "krec/s"},
	{"offline.replay_krec_per_s", "krec/s"},
	{"offline.federate_ms", "ms"},
	{"layers.sum_us_per_query", "us"},
	{"layers.daemon_cpu_us_per_query", "us"},
	{"tracing.overhead_ratio", "ratio"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	binDir   string
	workDir  string
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	problems  []string // failed output checks
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]float64{}}
}

// check records a failed output check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric value.
func (r *result) set(name string, v float64) { r.metrics[name] = v }

// zero records metrics of layers this workload does not exercise.
func (r *result) zero(names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
	}
}

// info prints one human-readable line to standard error.
func info(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

var workloads = map[string]func(options) (*result, error){
	"wire-hit":  func(o options) (*result, error) { return runWire(o, wireHit) },
	"wire-miss": func(o options) (*result, error) { return runWire(o, wireMiss) },
	"offline":   runOffline,
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := workloads[o.workload](o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, err := encodeResult(res, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	fmt.Println(line)
	if !res.correct {
		os.Exit(1)
	}
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: wire-hit, wire-miss or offline")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.IntVar(&o.seconds, "seconds", 30, "measurement length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&o.binDir, "bin", "", "directory holding the built resolver and vantage binaries")
	fs.StringVar(&o.workDir, "work", "", "directory for the run's scratch files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	if o.workDir == "" {
		return o, fmt.Errorf("--work is required")
	}
	dir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return o, err
	}
	o.workDir = dir
	return o, nil
}

// encodeResult renders the result line, refusing a metric set that does
// not match defs or holds a non-finite value.
func encodeResult(r *result, defs []metricDef) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	if len(r.metrics) != len(defs) {
		return "", fmt.Errorf("%d metrics measured, %d defined", len(r.metrics), len(defs))
	}
	if r.attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// machineFacts prints what every run records about where it ran.
func machineFacts() {
	info("machine: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// cleanup removes the run's scratch directory.
func cleanup(o options) { _ = os.RemoveAll(o.workDir) }
