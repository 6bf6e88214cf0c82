package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"botmeter/internal/dga"
	"botmeter/internal/trace"
)

// wireSpec fixes one wire workload's traffic.
type wireSpec struct {
	name string
	// hitNames > 0 rotates that many names (warmed once, then cache hits);
	// 0 makes every name new within a pipeline's life.
	hitNames int
	// poolShare of never-repeating names are domains of the live family's
	// pool for the epoch the vantage stamps; the rest are benign.
	poolShare float64
	warm      int     // warm-pass queries of never-repeating traffic
	refRate   float64 // reference rate for latency, CPU and RSS
	// The offered-rate ladder and what a sustained step must meet.
	ladderLo, ladderHi, ladderRatio float64
	p99Limit                        time.Duration
	growSlack                       time.Duration
}

var (
	wireHit = wireSpec{
		name: "wire-hit", hitNames: 256, refRate: 10000,
		ladderLo: 4000, ladderHi: 160000, ladderRatio: 1.1,
		p99Limit: 20 * time.Millisecond, growSlack: time.Millisecond,
	}
	// wireMissPoolShare is the share of pool names among the distinct names
	// of the border trace of Fig. 7 (enterprise.Generate at Fig7Config's
	// defaults: 500 benign clients × 20 lookups a day over a 2,000-name
	// Zipf zone, newGoZ, Ramnit and Qakbot at scale 1; 18,748 of 20,395
	// distinct names over 2 days at seed 1): benign lookups mostly hit the
	// local cache, so the DGA's never-registered names dominate what crosses
	// the border.
	wireMissPoolShare = 0.92
	wireMiss          = wireSpec{
		name: "wire-miss", poolShare: wireMissPoolShare, warm: 512, refRate: 3000,
		ladderLo: 1000, ladderHi: 40000, ladderRatio: 1.1,
		p99Limit: 20 * time.Millisecond, growSlack: time.Millisecond,
	}
)

const (
	// liveFamily is the vantage's live-estimation family: Conficker.C
	// draws 50,000 names a day, enough for never-repeating pool traffic.
	liveFamily = "Conficker.C"
	// cycleRefBlocks is how many reference blocks follow each set-up of an
	// untraced run; RSS is read after the last.
	cycleRefBlocks = 3
	// warmTimeout is how long the closed-loop warm pass waits for each
	// answer before it moves on and leaves the query unanswered.
	warmTimeout = 200 * time.Millisecond
	// warmRateBound is a rate no closed-loop warm pass exceeds; it only
	// places the warm pass's pool names in their day.
	warmRateBound = 100000.0
	// midnightGuard keeps pool names away from UTC day boundaries, so the
	// vantage stamps them into the epoch whose pool they were drawn from.
	midnightGuard = 2 * time.Second
	dayMillis     = int64(24 * time.Hour / time.Millisecond)
)

// isPool reports whether never-repeating query k names a pool domain. The
// pool queries are spread evenly: every stretch of queries holds the share
// to within one query.
func isPool(k int, share float64) bool {
	return math.Floor(float64(k+1)*share) > math.Floor(float64(k)*share)
}

// nameSource generates a run's query names from its seed.
type nameSource struct {
	spec   wireSpec
	family dga.Spec
	seed   uint64
	rng    *rand.Rand
	prefix string   // seed-derived label prefix of never-repeating names
	hits   []string // the rotating set of wire-hit
	next   int      // queries generated so far
	pools  map[int64][]string
	used   map[int64]int
}

func newNameSource(spec wireSpec, seed uint64) (*nameSource, error) {
	family, err := dga.Lookup(liveFamily)
	if err != nil {
		return nil, err
	}
	s := &nameSource{
		spec: spec, family: family, seed: seed,
		rng:   rand.New(rand.NewSource(int64(seed))),
		pools: map[int64][]string{}, used: map[int64]int{},
	}
	s.prefix = s.label(6)
	for i := 0; i < spec.hitNames; i++ {
		s.hits = append(s.hits, fmt.Sprintf("%s%04d.hit.perfbench.example", s.label(8), i))
	}
	return s, nil
}

func (s *nameSource) label(n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	b[0] = letters[s.rng.Intn(26)]
	for i := 1; i < n; i++ {
		b[i] = letters[s.rng.Intn(len(letters))]
	}
	return string(b)
}

// day is the UTC day index the vantage stamps at wall time t: its records
// carry Unix milliseconds and the engine's epoch is one day.
func day(t time.Time) int64 { return t.UnixMilli() / dayMillis }

// poolName returns the next unused name of the live pool for day d, in a
// seed-shuffled order, or false once the day's pool is used up (only the
// traced run's ladder sends that many).
func (s *nameSource) poolName(d int64) (string, bool, error) {
	names, ok := s.pools[d]
	if !ok {
		pool := s.family.Pool.PoolFor(s.seed, int(d))
		names = append([]string(nil), pool.Domains...)
		s.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		s.pools[d] = names
	}
	i := s.used[d]
	if i >= len(names) {
		return "", false, nil
	}
	s.used[d] = i + 1
	if names[i] != strings.ToLower(names[i]) {
		return "", false, fmt.Errorf("pool name %q is not lowercase", names[i])
	}
	return names[i], true, nil
}

// warmQueries returns the warm pass: every rotating name once, or a
// block of new names.
func (s *nameSource) warmQueries() ([]query, error) {
	if len(s.hits) > 0 {
		qs := make([]query, len(s.hits))
		for i, h := range s.hits {
			qs[i] = query{name: h}
		}
		return qs, nil
	}
	return s.batch(s.spec.warm, warmRateBound)
}

// batch returns the next n queries of a phase offered at rate starting
// about now. On never-repeating traffic the isPool queries name a pool
// domain of the day their due time falls in, unless that is within
// midnightGuard of a day boundary or the day's pool is used up.
func (s *nameSource) batch(n int, rate float64) ([]query, error) {
	qs := make([]query, n)
	start := time.Now()
	for i := range qs {
		k := s.next
		s.next++
		if len(s.hits) > 0 {
			qs[i] = query{name: s.hits[k%len(s.hits)]}
			continue
		}
		if isPool(k, s.spec.poolShare) {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if day(due.Add(-midnightGuard)) == day(due.Add(midnightGuard)) {
				name, ok, err := s.poolName(day(due))
				if err != nil {
					return nil, err
				}
				if ok {
					qs[i] = query{name: name, pool: true}
					continue
				}
			}
		}
		qs[i] = query{name: fmt.Sprintf("%s%07x.miss.perfbench.example", s.prefix, k)}
	}
	return qs, nil
}

// counters is one scrape of both daemons.
type counters struct{ r, v Scrape }

func (p *pipeline) scrape() (counters, error) {
	// After an overloaded step the resolver may still be working through
	// its socket backlog. Take a consistent cut: the resolver's counters
	// must not move while the vantage is read, and the live engine, which
	// ingests asynchronously behind the vantage's socket workers, must have
	// caught up with the observed log.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r1, err := scrape(p.resolver.obsAddr)
		if err != nil {
			return counters{}, err
		}
		v, err := scrape(p.vantage.obsAddr)
		if err != nil {
			return counters{}, err
		}
		r2, err := scrape(p.resolver.obsAddr)
		if err != nil {
			return counters{}, err
		}
		settled := r1["resolver_queries_total"] == r2["resolver_queries_total"] &&
			r1["resolver_forwarded_total"] == r2["resolver_forwarded_total"] &&
			v["stream_ingested_records_total"] == v["vantage_observed_records_total"]
		if settled || time.Now().After(deadline) {
			return counters{r2, v}, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkPhase compares the daemons' counter deltas over one phase with the
// generator's own counts. newNames is how many of the phase's names the
// pipeline had never seen. With nothing lost the counts must agree
// exactly; with losses (ladder probes above the knee) they are bounded by
// what was answered and what was sent.
func checkPhase(res *result, phase string, b, a counters, r *phaseResult, newNames int) {
	res.check(r.bad == 0, "%s: %d wrong answers, first: %s", phase, r.bad, r.firstBad)
	fwd := int(delta(b.r, a.r, "resolver_forwarded_total"))
	queries := int(delta(b.r, a.r, "resolver_queries_total"))
	res.check(delta(b.r, a.r, "resolver_retries_total") == 0, "%s: resolver retried upstream", phase)
	res.check(int(delta(b.v, a.v, "vantage_queries_total")) == fwd,
		"%s: vantage saw %v queries, resolver forwarded %d", phase, delta(b.v, a.v, "vantage_queries_total"), fwd)
	res.check(int(delta(b.v, a.v, "vantage_observed_records_total")) == fwd,
		"%s: vantage logged %v records, resolver forwarded %d", phase, delta(b.v, a.v, "vantage_observed_records_total"), fwd)
	res.check(a.v["stream_ingested_records_total"] == a.v["vantage_observed_records_total"],
		"%s: engine ingested %v of %v logged records", phase, a.v["stream_ingested_records_total"], a.v["vantage_observed_records_total"])
	matched := int(delta(b.v, a.v, "stream_matched_records_total"))
	if r.lost() == 0 {
		res.check(queries == r.sent, "%s: resolver parsed %d queries, generator sent %d", phase, queries, r.sent)
		res.check(fwd == newNames, "%s: resolver forwarded %d, distinct new names %d", phase, fwd, newNames)
		res.check(matched == r.poolSent, "%s: engine matched %d, generator sent %d pool names", phase, matched, r.poolSent)
		return
	}
	res.check(queries >= r.answered && queries <= r.sent,
		"%s: resolver parsed %d queries, outside [%d answered, %d sent]", phase, queries, r.answered, r.sent)
	if newNames > 0 {
		res.check(fwd >= r.answered && fwd <= r.sent,
			"%s: resolver forwarded %d, outside [%d answered, %d sent]", phase, fwd, r.answered, r.sent)
	} else {
		res.check(fwd == 0, "%s: resolver forwarded %d names it had cached", phase, fwd)
	}
	res.check(matched >= r.poolAnswered && matched <= r.poolSent,
		"%s: engine matched %d, outside [%d answered, %d sent] pool names", phase, matched, r.poolAnswered, r.poolSent)
}

// checkRetry checks a retransmission phase: its names were sent before,
// so the resolver forwards at most those it never received (none when
// the names are cached), and the vantage and engine agree with it.
func checkRetry(res *result, phase string, b, a counters, r *phaseResult, mayForward bool) {
	res.check(r.bad == 0, "%s: %d wrong answers, first: %s", phase, r.bad, r.firstBad)
	fwd := int(delta(b.r, a.r, "resolver_forwarded_total"))
	queries := int(delta(b.r, a.r, "resolver_queries_total"))
	res.check(delta(b.r, a.r, "resolver_retries_total") == 0, "%s: resolver retried upstream", phase)
	res.check(int(delta(b.v, a.v, "vantage_observed_records_total")) == fwd,
		"%s: vantage logged %v records, resolver forwarded %d", phase, delta(b.v, a.v, "vantage_observed_records_total"), fwd)
	res.check(a.v["stream_ingested_records_total"] == a.v["vantage_observed_records_total"],
		"%s: engine ingested %v of %v logged records", phase, a.v["stream_ingested_records_total"], a.v["vantage_observed_records_total"])
	res.check(queries >= r.answered && queries <= r.sent,
		"%s: resolver parsed %d queries, outside [%d answered, %d sent]", phase, queries, r.answered, r.sent)
	if mayForward {
		res.check(fwd <= r.sent, "%s: resolver forwarded %d of %d retried names", phase, fwd, r.sent)
	} else {
		res.check(fwd == 0, "%s: resolver forwarded %d names it had cached", phase, fwd)
	}
	matched := int(delta(b.v, a.v, "stream_matched_records_total"))
	res.check(matched <= r.poolSent, "%s: engine matched %d, at most %d pool names retried", phase, matched, r.poolSent)
}

// lossRetries is how often a lost query is sent again, as a stub resolver
// retransmits after its timeout, before it counts as a failed operation.
const lossRetries = 2

// retryLost sends a phase's unanswered queries again, up to lossRetries
// times at a low rate, and checks each retransmission phase. It returns
// how many queries were lost at first and how many stay unanswered; the
// difference, answered only on a retransmission, is reported on its own so
// that drops stay visible. mayForward says whether the resolver may not
// have seen the names yet (new names, or the warm pass).
func (w *wireRun) retryLost(label string, qs []query, r *phaseResult, mayForward bool) (lostFirst, failed int, err error) {
	lost := unanswered(qs, r)
	lostFirst = len(lost)
	for try := 1; try <= lossRetries && len(lost) > 0; try++ {
		info("%s: %d queries unanswered, sending them again", label, len(lost))
		rr := w.g.run(lost, retryRate, time.Second)
		after, err := w.p.scrape()
		if err != nil {
			return 0, 0, err
		}
		checkRetry(w.res, fmt.Sprintf("%s retry %d", label, try), w.last, after, rr, mayForward)
		w.last = after
		if mayForward {
			w.noteAnswered(lost, rr)
		}
		lost = unanswered(lost, rr)
	}
	w.retried += lostFirst - len(lost)
	return lostFirst, len(lost), nil
}

// unanswered lists the queries of qs that r did not see answered.
func unanswered(qs []query, r *phaseResult) []query {
	var out []query
	for i, q := range qs {
		if !r.ok[i] {
			out = append(out, q)
		}
	}
	return out
}

// checkObservedLog reads the vantage's observed log after shutdown: it
// must hold each forwarded name exactly once, every answered new name, and
// as many records as the vantage counted.
func checkObservedLog(res *result, p *pipeline, final counters, want map[string]bool) error {
	f, err := os.Open(p.observed)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.ReadObservedJSONL(f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", p.observed, err)
	}
	res.check(float64(len(recs)) == final.v["vantage_observed_records_total"],
		"observed log holds %d records, vantage counted %v", len(recs), final.v["vantage_observed_records_total"])
	res.check(float64(len(recs)) == final.r["resolver_forwarded_total"],
		"observed log holds %d records, resolver forwarded %v", len(recs), final.r["resolver_forwarded_total"])
	seen := make(map[string]bool, len(recs))
	dups := 0
	for _, rec := range recs {
		if seen[rec.Domain] {
			dups++
		}
		seen[rec.Domain] = true
	}
	res.check(dups == 0, "observed log holds %d repeated names", dups)
	missing := 0
	for name := range want {
		if !seen[name] {
			missing++
		}
	}
	res.check(missing == 0, "%d answered names missing from the observed log", missing)
	return nil
}

// wireRun is the state of one wire run on its current pipeline.
type wireRun struct {
	o      options
	spec   wireSpec
	res    *result
	src    *nameSource
	p      *pipeline
	g      *generator
	last   counters
	logged map[string]bool // names answered through the resolver's miss path
	// retried counts the warm and reference queries answered only on a
	// retransmission.
	retried int
	// The pipeline's warm pass and its reference queries, which the traced
	// run replays in-process.
	warmed, refQueries []query
	daemonCPU, genCPU  int
}

// start brings up a fresh pipeline, with names drawn afresh from the run's
// seed, and warms it: daemon start to both /healthz answering 200, then
// the warm pass sent closed-loop, so that the returned set-up time is the
// pipeline's own time. cycle numbers the pipelines of one run.
func (w *wireRun) start(cycle int) (float64, error) {
	src, err := newNameSource(w.spec, w.o.seed)
	if err != nil {
		return 0, err
	}
	w.src = src
	qs, err := src.warmQueries()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	w.p, err = startPipeline(pipelineConfig{
		binDir: w.o.binDir, dir: filepath.Join(w.o.workDir, fmt.Sprintf("pipeline-%d", cycle)),
		liveFamily: liveFamily, liveSeed: w.o.seed,
		daemonCPU: w.daemonCPU, genCPU: w.genCPU,
	})
	if err != nil {
		return 0, err
	}
	w.g, err = newGenerator(w.p.dnsAddr)
	if err != nil {
		err = errors.Join(err, w.p.stop())
		w.p = nil
		return 0, err
	}
	r := w.g.closedLoop(qs, warmTimeout)
	setup := time.Since(t0).Seconds()
	after, err := w.p.scrape()
	if err != nil {
		return 0, err
	}
	w.logged = map[string]bool{}
	w.warmed, w.refQueries = qs, nil
	w.noteAnswered(qs, r)
	label := fmt.Sprintf("warm pass %d", cycle+1)
	checkPhase(w.res, label, counters{}, after, r, len(qs))
	w.last = after
	_, failed, err := w.retryLost(label, qs, r, true)
	if err != nil {
		return 0, err
	}
	w.res.attempted += r.sent
	w.res.failed += failed
	return setup, nil
}

// noteAnswered remembers the phase's answered names, which must all be in
// the vantage's observed log.
func (w *wireRun) noteAnswered(qs []query, r *phaseResult) {
	for i, q := range qs {
		if r.ok[i] {
			w.logged[q.name] = true
		}
	}
}

// phase runs n queries at rate and checks the daemons' counters.
func (w *wireRun) phase(label string, n int, rate float64, drain time.Duration) (*phaseResult, []query, error) {
	qs, err := w.src.batch(n, rate)
	if err != nil {
		return nil, nil, err
	}
	r := w.g.run(qs, rate, drain)
	after, err := w.p.scrape()
	if err != nil {
		return nil, nil, err
	}
	newNames := 0
	if len(w.src.hits) == 0 {
		newNames = n
	}
	checkPhase(w.res, label, w.last, after, r, newNames)
	w.last = after
	if newNames > 0 {
		w.noteAnswered(qs, r)
	}
	return r, qs, nil
}

// stop shuts the pipeline down and checks the observed log.
func (w *wireRun) stop() error {
	if w.p == nil {
		return nil
	}
	p := w.p
	w.p = nil
	if err := errors.Join(w.g.close(), p.stop()); err != nil {
		return err
	}
	return checkObservedLog(w.res, p, w.last, w.logged)
}

const (
	// refBlock is the length of one reference block: latency and CPU are
	// taken per block and reported as the median over blocks, so a short
	// stall of the machine moves one block, not the run's figure.
	refBlock = time.Second
	// retryRate is the offered rate of retransmissions.
	retryRate = 1000.0
	// probeSeconds is the length of one ladder step.
	probeSeconds = 0.5
	// rungTries is how many probes a rung gets before it counts as failed.
	rungTries = 3
	// probeDrain is how long after a step's last due time its answers may
	// still arrive.
	probeDrain = 300 * time.Millisecond
)

// refPhase accumulates reference blocks: latency and CPU per block, and
// the pooled distributions. Latency is reported as the lower quartile of
// the blocks' medians: contention from outside the container comes and
// goes within a run and only ever adds latency, while a slower program
// slows every block. CPU time is not inflated by waiting and is reported
// as the median over blocks.
type refPhase struct {
	blocks, sent, answered   int
	retried                  int       // lost, then answered on a retransmission
	lat, late                []float64 // pooled over all blocks
	p50s, p90s, cpus, rs, vs []float64 // per block; cpu in µs per query
	before, after            counters  // around the blocks, when run back to back
}

// refBlockRun runs one reference block at the reference rate.
func (w *wireRun) refBlockRun(rp *refPhase) error {
	r0, v0, err := w.p.cpu()
	if err != nil {
		return err
	}
	per := int(w.spec.refRate * refBlock.Seconds())
	label := fmt.Sprintf("reference block %d", rp.blocks+1)
	r, qs, err := w.phase(label, per, w.spec.refRate, time.Second)
	if err != nil {
		return err
	}
	r1, v1, err := w.p.cpu()
	if err != nil {
		return err
	}
	lostFirst, failed, err := w.retryLost(label, qs, r, len(w.src.hits) == 0)
	if err != nil {
		return err
	}
	rp.blocks++
	rp.retried += lostFirst - failed
	w.refQueries = append(w.refQueries, qs...)
	w.res.attempted += r.sent
	w.res.failed += failed
	rp.sent += r.sent
	rp.answered += r.answered
	rp.lat = append(rp.lat, r.lat...)
	rp.late = append(rp.late, r.late...)
	if r.answered > 0 {
		d := distOf(r.lat)
		n := float64(r.answered)
		rp.p50s = append(rp.p50s, d.P50)
		rp.p90s = append(rp.p90s, d.P90)
		rp.cpus = append(rp.cpus, (r1-r0+v1-v0)/n*1e6)
		rp.rs = append(rp.rs, (r1-r0)/n*1e6)
		rp.vs = append(rp.vs, (v1-v0)/n*1e6)
	}
	rp.after = w.last
	return nil
}

// report prints the reference phase's figures.
func (rp *refPhase) report(name string, rate float64) {
	l, lt := distOf(rp.lat), distOf(rp.late)
	info("%s reference %.0f qps, %d blocks: %d sent, %d answered, %d more only on a retransmission; latency p50 %.1fus (blocks' lower quartile) p90 %.1fus (blocks' median); pooled p50 %.1fus p90 %.1fus p99 %s p99.9 %s (n=%d); generator late p50 %.1fus p99 %.1fus",
		name, rate, rp.blocks, rp.sent, rp.answered, rp.retried, lowerQuartile(rp.p50s)*1e6, median(rp.p90s)*1e6, l.P50*1e6, l.P90*1e6,
		tailUS(l, 0.99), tailUS(l, 0.999), l.N, lt.P50*1e6, lt.P99*1e6)
	info("%s reference: cpu resolver %.1fus + vantage %.1fus per query (block medians)",
		name, median(rp.rs), median(rp.vs))
}

// tailUS renders quantile q of d in µs, or "n/a" when fewer than ten
// samples lie beyond it.
func tailUS(d Dist, q float64) string {
	if !tailSupported(d.N, q) {
		return "n/a"
	}
	v := d.P99
	if q > 0.99 {
		v = d.P999
	}
	return fmt.Sprintf("%.1fus", v*1e6)
}

// searchKnee bisects the fixed ladder again and again until the deadline,
// and returns the median knee of the bisections that finished (the first
// always finishes). Within a bisection, a rung that fails is probed again,
// up to rungTries probes, and counts as sustained if any probe passed: a
// stall of a shared machine should not cap the ladder.
func (w *wireRun) searchKnee(deadline time.Time) (float64, error) {
	rungs := ladder(w.spec.ladderLo, w.spec.ladderHi, w.spec.ladderRatio)
	probe := func(rate float64) (Step, error) {
		r, _, err := w.phase(fmt.Sprintf("ladder %.0f qps", rate), int(rate*probeSeconds), rate, probeDrain)
		if err != nil {
			return Step{}, err
		}
		st := Step{Rate: rate, Sent: r.sent, Lost: r.lost(), Limit: w.spec.p99Limit.Seconds()}
		if r.answered > 0 {
			st.P99 = distOf(r.lat).P99
		}
		st.Grew = grew(r.lat, w.spec.growSlack.Seconds())
		info("%s ladder %.0f qps: sent %d lost %d p99 %.0fus grew %v pass %v",
			w.spec.name, rate, st.Sent, st.Lost, st.P99*1e6, st.Grew, st.Pass())
		// Let queues left by an overloaded step drain before the next.
		time.Sleep(100 * time.Millisecond)
		return st, nil
	}
	var knees []float64
	for len(knees) == 0 || time.Until(deadline) > 0 {
		lo, hi := -1, len(rungs) // rung lo is known to pass, rung hi to fail
		var steps []Step
		for hi-lo > 1 && (len(knees) == 0 || time.Until(deadline) > 0) {
			mid := (lo + hi) / 2
			var st Step
			for try := 0; try < rungTries && (try == 0 || !st.Pass()); try++ {
				var err error
				if st, err = probe(rungs[mid]); err != nil {
					return 0, err
				}
			}
			steps = append(steps, st)
			if st.Pass() {
				lo = mid
			} else {
				hi = mid
			}
		}
		if hi-lo > 1 {
			break // the deadline cut this bisection short
		}
		knees = append(knees, knee(steps))
		info("%s bisection %d: knee %.0f qps", w.spec.name, len(knees), knees[len(knees)-1])
	}
	return median(knees), nil
}

// cycle is one round of an untraced run: a fresh pipeline's set-up, its
// reference blocks, its counter checks and its shutdown with the observed
// log's check. It returns the set-up time and the daemons' RSS after the
// last reference block.
func (w *wireRun) cycle(i int) (setup, rssMB float64, err error) {
	if setup, err = w.start(i); err != nil {
		return 0, 0, err
	}
	rp := &refPhase{before: w.last}
	for b := 0; b < cycleRefBlocks; b++ {
		if err := w.refBlockRun(rp); err != nil {
			return 0, 0, err
		}
	}
	rssR, rssV, err := w.p.rss()
	if err != nil {
		return 0, 0, err
	}
	rp.report(fmt.Sprintf("%s cycle %d", w.spec.name, i+1), w.spec.refRate)
	info("%s cycle %d: set-up %.4fs; rss resolver %.1f MB + vantage %.1f MB", w.spec.name, i+1, setup, rssR, rssV)
	return setup, rssR + rssV, w.stop()
}

func runWire(o options, spec wireSpec) (*result, error) {
	defer cleanup(o)
	machineFacts()
	w := &wireRun{o: o, spec: spec, res: newResult(), daemonCPU: -1, genCPU: -1}
	// The generator and the daemons get a CPU each, so the generator never
	// competes with the system under test and the Linux scheduler cannot
	// move the pipeline's threads between CPUs from run to run; the daemons
	// then run with GOMAXPROCS=1 and one listener each.
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	if len(cpus) >= 2 {
		w.genCPU, w.daemonCPU = cpus[0], cpus[1]
		if err := pinSelf(w.genCPU); err != nil {
			return nil, err
		}
		info("generator bound to CPU %d, both daemons to CPU %d", w.genCPU, w.daemonCPU)
	} else {
		info("one CPU allowed: generator and daemons share it")
	}
	runErr := func() error {
		if o.trace {
			return w.traced()
		}
		// Whole cycles until the run's seconds are spent; set-up time and
		// RSS are the medians over the cycles.
		var setups, rss []float64
		t0 := time.Now()
		for len(setups) == 0 || time.Since(t0) < time.Duration(o.seconds)*time.Second {
			setup, mb, err := w.cycle(len(setups))
			if err != nil {
				return err
			}
			setups = append(setups, setup)
			rss = append(rss, mb)
		}
		info("%s: %d cycles; set-up %.4fs (median of %v); rss %.1f MB (median of %v); %d warm or reference queries answered only on a retransmission",
			spec.name, len(setups), median(setups), setups, median(rss), rss, w.retried)
		w.res.set("setup_s", median(setups))
		w.res.set("rss_mb", median(rss))
		return nil
	}()
	stopErr := w.stop()
	if err := errors.Join(runErr, stopErr); err != nil {
		return nil, err
	}
	return w.res, nil
}

// roundAll scales xs and rounds them to whole numbers (diagnostics).
func roundAll(xs []float64, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x * scale)
	}
	return out
}
