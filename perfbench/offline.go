package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"botmeter/internal/botnet"
	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/estimators"
	"botmeter/internal/experiments"
	"botmeter/internal/obs"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/trace"
)

// The offline workload's fixed inputs. The border trace, Fig. 6(a) and
// Fig. 7 use fixed seeds so that their estimates, and the accuracy checks
// on them, are the same on every run; the run seed picks the split of
// servers into vantages, which any disjoint split must merge back exactly.
const (
	offlineSeed = 2016

	fig6Trials = 2
	fig6Scale  = 0.1

	fig7Days          = 4
	fig7Scale         = 0.1
	fig7BenignClients = 300
	fig7BenignLookups = 10

	borderServers = 12
	borderDays    = 3
	borderScale   = 0.5
	// borderBenignShare is the share of benign records among the border
	// records of the Fig. 7 trace (enterprise.Generate at Fig7Config's
	// defaults: 2,265 of 46,612 records over 2 days at seed 1), and
	// borderBenignZone the default size of its benign zone
	// (enterprise.Config.BenignZoneSize).
	borderBenignShare = 0.0486
	borderBenignZone  = 2000
	checkpointEvery   = 5000
	federateVantages  = 3
	// offlineSetups is how many times set-up simulates the border trace;
	// setup_s is the median.
	offlineSetups = 5

	// maxMedianARE bounds the median absolute relative error of the
	// paper-paired estimators against the raw-trace ground truth.
	maxMedianARE = 0.5
	// opsPerRound counts a round's checked operations: Fig. 6(a), Fig. 7,
	// the trace read, and per family a batch analysis, a replay, a
	// checkpoint restore and a federation.
	opsPerRound = 3 + 4*2
)

// borderFamily is one taxonomy cell present in the border trace.
type borderFamily struct {
	spec      dga.Spec
	seed      uint64
	estimator string // the estimator the paper pairs with the family's model
	truth     map[cellKey]int
	// registryDrifts marks the family whose merged state, restored under
	// the configuration stream.ConfigForState rebuilds from the registry,
	// is known to estimate differently: ConfigForState looks the family up
	// by name, so the scaled spec the state was taken under comes back
	// unscaled. That federation counts as a failed operation; any other
	// difference is a wrong output.
	registryDrifts bool
}

// borderTrace is the offline workload's simulated multi-server,
// multi-day border trace, written to a JSONL file in set-up.
type borderTrace struct {
	path     string
	families []*borderFamily
	window   sim.Window
	servers  []string
	records  int
}

// simulateBorder simulates newGoZ (pool and barrel models paired with MB)
// and Murofet (paired with MP) behind the same local servers, adds benign
// lookups, and writes the merged border trace to dir. Ground truth comes
// from each simulation's raw client trace.
func simulateBorder(dir string) (*borderTrace, error) {
	bt := &borderTrace{
		path:   filepath.Join(dir, "border.jsonl"),
		window: sim.Window{Start: 0, End: borderDays * sim.Day},
	}
	cells := []struct {
		spec           dga.Spec
		estimator      string
		registryDrifts bool
	}{
		{experiments.ScaledSpec(dga.NewGoZ(), borderScale), "MB", true},
		{experiments.ScaledSpec(dga.Murofet(), borderScale), "MP", false},
	}
	var observed trace.Observed
	for fi, c := range cells {
		seed := offlineSeed + uint64(fi)
		net := dnssim.NewNetwork(dnssim.NetworkConfig{
			LocalServers: borderServers,
			PositiveTTL:  sim.Day,
			NegativeTTL:  2 * sim.Hour,
			RecordRaw:    true,
		})
		bots := map[string]int{}
		for i, s := range net.LocalIDs() {
			bots[s] = 4 + (i*7+fi*5)%24
		}
		runner, err := botnet.NewRunner(botnet.Config{Spec: c.spec, Seed: seed, BotsPerServer: bots}, net)
		if err != nil {
			return nil, err
		}
		res, err := runner.Run(bt.window)
		runner.Close()
		if err != nil {
			return nil, err
		}
		observed = append(observed, net.Border.Observed()...)
		pools := map[int]map[string]bool{}
		inPool := func(ep int, d string) bool {
			if pools[ep] == nil {
				pools[ep] = map[string]bool{}
				for _, name := range c.spec.Pool.PoolFor(seed, ep).Domains {
					pools[ep][name] = true
				}
			}
			return pools[ep][d]
		}
		truth := groundTruth(net.Raw(), sim.Day, inPool)
		// The raw trace must agree with the simulator's own count of bots
		// that activated: every activation looks up at least one pool name.
		for s, perEpoch := range res.ActiveBots {
			for ep, n := range perEpoch {
				if got := truth[cellKey{s, ep}]; got != n {
					return nil, fmt.Errorf("%s %s epoch %d: raw trace shows %d bots, simulator activated %d",
						c.spec.Name, s, ep, got, n)
				}
			}
		}
		bt.families = append(bt.families, &borderFamily{spec: c.spec, seed: seed, estimator: c.estimator,
			truth: truth, registryDrifts: c.registryDrifts})
		if fi == 0 {
			bt.servers = net.LocalIDs()
		}
	}
	// Benign lookups, as many per server and day as make up
	// borderBenignShare of the trace.
	perCell := int(math.Round(float64(len(observed)) * borderBenignShare / (1 - borderBenignShare) /
		float64(borderDays*len(bt.servers))))
	rng := sim.NewRNG(offlineSeed)
	for d := 0; d < borderDays; d++ {
		for _, s := range bt.servers {
			for n := 0; n < perCell; n++ {
				observed = append(observed, trace.ObservedRecord{
					T:      sim.Time(d)*sim.Day + sim.Time(rng.Int64N(int64(sim.Day))),
					Server: s,
					Domain: fmt.Sprintf("benign-%d.%s.perfbench.example", rng.Int64N(borderBenignZone), s),
				})
			}
		}
	}
	observed.Sort()
	bt.records = len(observed)
	f, err := os.Create(bt.path)
	if err != nil {
		return nil, err
	}
	if err := trace.WriteObservedJSONL(f, observed); err != nil {
		f.Close()
		return nil, err
	}
	return bt, f.Close()
}

// offlineBench is the state of one offline run.
type offlineBench struct {
	o            options
	res          *result
	border       *borderTrace
	fedFailNoted bool
}

// roundStats is what one round measured.
type roundStats struct {
	wall, cpu                              time.Duration
	probes                                 time.Duration // traced run only: the extra per-layer probes
	fig6, fig7, read, analyze, replay, fed time.Duration
	fig6Trials                             int
	freshness                              []float64 // seconds per replayed record
	layers                                 map[string]float64
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counterValue reads one metric from an in-process registry.
func counterValue(reg *obs.Registry, name string) (float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0, err
	}
	s, err := parsePromText(&buf)
	return s[name], err
}

// round runs one pass of the analyst's job. With a tracer it also records
// spans and the per-layer figures only the traced run reports.
func (b *offlineBench) round(tr *tracer) (*roundStats, error) {
	rs := &roundStats{layers: map[string]float64{}}
	cpu0, t0 := cpuTime(), time.Now()
	if err := b.figures(tr, rs); err != nil {
		return nil, err
	}
	done := tr.begin(0, "trace.read", "")
	t := time.Now()
	f, err := os.Open(b.border.path)
	if err != nil {
		return nil, err
	}
	recs, err := trace.ReadObservedJSONL(f)
	f.Close()
	rs.read = time.Since(t)
	done()
	if err != nil {
		return nil, err
	}
	b.res.check(len(recs) == b.border.records, "read %d records, wrote %d", len(recs), b.border.records)
	for fi, fam := range b.border.families {
		if err := b.family(tr, rs, uint64(fi+1), fam, recs); err != nil {
			return nil, err
		}
	}
	rs.wall, rs.cpu = time.Since(t0), cpuTime()-cpu0
	b.res.attempted += opsPerRound
	return rs, nil
}

// figures regenerates Fig. 6(a) and Fig. 7 and checks §V's ordering.
func (b *offlineBench) figures(tr *tracer, rs *roundStats) error {
	stages := obs.NewStageSet()
	reg := obs.NewRegistry()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	done := tr.begin(0, "experiments.fig6a", "")
	t := time.Now()
	pts, err := experiments.Figure6a(experiments.Fig6Config{
		Trials: fig6Trials, Seed: offlineSeed, Scale: fig6Scale, Stages: stages, Obs: reg,
	})
	rs.fig6 = time.Since(t)
	done()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	trials, err := counterValue(reg, "experiments_trials_total")
	if err != nil {
		return err
	}
	rs.fig6Trials = int(trials)
	checkFig6a(b.res, pts)

	done = tr.begin(0, "experiments.fig7", "")
	t = time.Now()
	series, err := experiments.Figure7(experiments.Fig7Config{
		Days: fig7Days, Seed: offlineSeed, Scale: fig7Scale,
		BenignClients: fig7BenignClients, BenignLookupsPerClient: fig7BenignLookups, Stages: stages,
	})
	rs.fig7 = time.Since(t)
	done()
	if err != nil {
		return err
	}
	b.res.check(len(series) > 0, "Fig. 7 has no series")
	for _, s := range series {
		ok := len(s.Estimates) == fig7Days && len(s.Truth) == fig7Days
		for _, e := range s.Estimates {
			ok = ok && !math.IsNaN(e) && !math.IsInf(e, 0) && e >= 0
		}
		b.res.check(ok, "Fig. 7 %s/%s: %d estimates over %d days, want finite and non-negative",
			s.Family, s.Estimator, len(s.Estimates), fig7Days)
	}
	var sim, est time.Duration
	for _, st := range stages.Stats() {
		switch {
		case st.Name == "fig6:simulate" || st.Name == "fig7:generate":
			sim += st.Wall
		case st.Name == "fig6:estimate" || len(st.Name) > 12 && st.Name[:12] == "fig7:analyze":
			est += st.Wall
		}
	}
	rs.layers["experiments.simulate_ms"] = ms(sim)
	rs.layers["experiments.estimate_ms"] = ms(est)
	if rs.fig6Trials > 0 {
		rs.layers["experiments.allocs_per_trial"] = float64(m1.Mallocs-m0.Mallocs) / float64(rs.fig6Trials)
	}
	return nil
}

// checkFig6a checks §V's claim on the AU cell: MP's median ARE is below
// MT's at every population.
func checkFig6a(res *result, pts []experiments.Fig6Point) {
	byX := map[float64]map[string]float64{}
	for _, p := range pts {
		if p.Model != "AU" {
			continue
		}
		if byX[p.X] == nil {
			byX[p.X] = map[string]float64{}
		}
		byX[p.X][p.Estimator] = p.ARE.P50
	}
	res.check(len(byX) > 0, "Fig. 6(a) has no AU points")
	for x, m := range byX {
		mp, okP := m["MP"]
		mt, okT := m["MT"]
		res.check(okP && okT && mp < mt, "Fig. 6(a) AU N=%v: MP median ARE %v not below MT's %v", x, mp, mt)
	}
}

// family runs the batch analysis, the checkpointed replay, the restore
// check and the federation for one family of the border trace.
func (b *offlineBench) family(tr *tracer, rs *roundStats, id uint64, fam *borderFamily, recs trace.Observed) error {
	coreCfg := core.Config{Family: fam.spec, Seed: fam.seed}

	// Batch analysis.
	done := tr.begin(id, "core.analyze", "")
	t := time.Now()
	bm, err := core.New(coreCfg)
	if err != nil {
		return err
	}
	batch, err := bm.Analyze(recs, b.border.window)
	rs.analyze += time.Since(t)
	done()
	if err != nil {
		return err
	}
	b.res.check(batch.Estimator == fam.estimator, "%s analysed with %s, the paper pairs %s",
		fam.spec.Name, batch.Estimator, fam.estimator)
	are, cells := medianARE(batch, fam.truth, sim.Day)
	b.res.check(cells > 0 && are <= maxMedianARE, "%s: median ARE %.3f over %d cells exceeds %.2f",
		fam.spec.Name, are, cells, maxMedianARE)

	// Replay with synchronous checkpoints at fixed record offsets.
	reg := obs.NewRegistry()
	streamCfg := stream.Config{Core: coreCfg, Window: b.border.window, Registry: reg}
	t = time.Now()
	eng, err := stream.New(streamCfg)
	if err != nil {
		return err
	}
	var (
		midState    []byte
		midSnapshot *core.Landscape
		nCk         int
		ckBytes     int
		exportT     time.Duration
		encodeT     time.Duration
	)
	observedAt := make([]time.Duration, 0, checkpointEvery)
	segment := tr.begin(id, "stream.observe", "")
	for i, rec := range recs {
		if err := eng.Observe(rec); err != nil {
			return err
		}
		observedAt = append(observedAt, time.Since(t))
		if (i+1)%checkpointEvery != 0 {
			continue
		}
		segment()
		te := time.Now()
		doneE := tr.begin(id, "stream.checkpoint_export", "")
		st, err := eng.ExportState()
		doneE()
		if err != nil {
			return err
		}
		tc := time.Now()
		exportT += tc.Sub(te)
		doneC := tr.begin(id, "stream.checkpoint_encode", "")
		data, err := stream.EncodeCheckpoint(st)
		doneC()
		if err != nil {
			return err
		}
		encodeT += time.Since(tc)
		nCk++
		ckBytes += len(data)
		at := time.Since(t)
		for _, o := range observedAt {
			rs.freshness = append(rs.freshness, (at - o).Seconds())
		}
		observedAt = observedAt[:0]
		if nCk == 1+len(recs)/checkpointEvery/2 {
			midState = data
			if midSnapshot, err = eng.Snapshot(); err != nil {
				return err
			}
		}
		segment = tr.begin(id, "stream.observe", "")
	}
	segment()
	doneClose := tr.begin(id, "stream.close", "")
	stats := eng.Stats()
	streamed, err := eng.Close()
	doneClose()
	if err != nil {
		return err
	}
	at := time.Since(t)
	for _, o := range observedAt {
		rs.freshness = append(rs.freshness, (at - o).Seconds())
	}
	rs.replay += at
	if d := landscapeDiff(batch, streamed); d != "" {
		b.res.check(false, "%s: streamed landscape differs from batch: %s", fam.spec.Name, d)
	}

	// A decoded, restored checkpoint must snapshot to what the engine
	// showed when it was taken.
	b.res.check(midState != nil, "%s: no checkpoint taken", fam.spec.Name)
	if midState != nil {
		st, err := stream.DecodeCheckpoint(midState)
		if err != nil {
			return err
		}
		restored, err := stream.Restore(streamCfg, st)
		if err != nil {
			return err
		}
		snap, err := restored.Snapshot()
		restored.Kill()
		if err != nil {
			return err
		}
		if d := landscapeDiff(midSnapshot, snap); d != "" {
			b.res.check(false, "%s: restored checkpoint differs: %s", fam.spec.Name, d)
		}
	}

	exact, served, err := b.federate(tr, rs, id, fam, streamCfg, recs)
	if err != nil {
		return err
	}
	b.checkFederation(fam, streamed, exact, served)

	if tr != nil {
		closeSum, err := counterValue(reg, stream.MetricEpochClose+"_sum")
		if err != nil {
			return err
		}
		closeCount, err := counterValue(reg, stream.MetricEpochClose+"_count")
		if err != nil {
			return err
		}
		rs.layers["stream.epoch_close_seconds_sum"] += closeSum
		rs.layers["stream.epoch_close_count"] += closeCount
		rs.layers["stream.ingested"] += float64(stats.Ingested)
		rs.layers["stream.matched"] += float64(stats.Matched)
		rs.layers["stream.checkpoints"] += float64(nCk)
		rs.layers["stream.checkpoint_bytes_sum"] += float64(ckBytes)
		rs.layers["stream.checkpoint_export_s"] += exportT.Seconds()
		rs.layers["stream.checkpoint_encode_s"] += encodeT.Seconds()
		rs.layers["stream.peak_retained"] = math.Max(rs.layers["stream.peak_retained"], float64(stats.PeakRetained))
		t := time.Now()
		if err := b.layerProbes(tr, rs, id, fam, coreCfg, recs); err != nil {
			return err
		}
		rs.probes += time.Since(t)
	}
	return nil
}

// checkFederation judges one family's federation against the single
// engine's landscape. The merged state restored under the vantages' own
// configuration (exact) must show it. Restored through ConfigForState, as
// cmd/landscape-server serves it (served), it must too, except for the
// family whose difference is known, where the difference counts as a
// failed operation.
func (b *offlineBench) checkFederation(fam *borderFamily, single, exact, served *core.Landscape) {
	if d := landscapeDiff(single, exact); d != "" {
		b.res.check(false, "%s: merged landscape differs from the single engine's: %s", fam.spec.Name, d)
	}
	d := landscapeDiff(single, served)
	switch {
	case d == "":
	case !fam.registryDrifts:
		b.res.check(false, "%s: merged landscape under ConfigForState differs from the single engine's: %s", fam.spec.Name, d)
	default:
		b.res.failed++
		if !b.fedFailNoted {
			b.fedFailNoted = true
			info("FAILED operation: %s federation: merged landscape under ConfigForState differs from the single engine's: %s", fam.spec.Name, d)
		}
	}
}

// federate splits the trace by server into disjoint vantages, exports each
// vantage engine's state, and times the merge and the landscape snapshot
// of the merged state restored under the configuration ConfigForState
// rebuilds, as cmd/landscape-server serves it. It also returns, untimed,
// the snapshot of the merged state restored under cfg, the configuration
// the vantages ran with.
func (b *offlineBench) federate(tr *tracer, rs *roundStats, id uint64, fam *borderFamily,
	cfg stream.Config, recs trace.Observed) (exact, served *core.Landscape, err error) {
	cfg.Registry = nil
	split := serverSplit(b.border.servers, federateVantages, b.o.seed)
	engines := make([]*stream.Engine, federateVantages)
	for i := range engines {
		c := cfg
		c.Vantage = fmt.Sprintf("vantage-%d", i)
		e, err := stream.New(c)
		if err != nil {
			return nil, nil, err
		}
		engines[i] = e
	}
	states := make([]*stream.EngineState, len(engines))
	var errs []error
	for _, rec := range recs {
		if err := engines[split[rec.Server]].Observe(rec); err != nil {
			errs = append(errs, err)
			break
		}
	}
	for i, e := range engines {
		st, err := e.ExportState()
		e.Kill()
		errs = append(errs, err)
		states[i] = st
	}
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}

	t := time.Now()
	done := tr.begin(id, "stream.merge", "")
	merged, err := stream.MergeStates(states...)
	done()
	rs.fed += time.Since(t)
	if err != nil {
		return nil, nil, err
	}
	if exact, err = snapshotOf(cfg, merged); err != nil {
		return nil, nil, err
	}
	t = time.Now()
	done = tr.begin(id, "stream.snapshot", "")
	mcfg, err := stream.ConfigForState(merged)
	if err != nil {
		return nil, nil, err
	}
	served, err = snapshotOf(mcfg, merged)
	done()
	rs.fed += time.Since(t)
	return exact, served, err
}

// snapshotOf restores st under cfg, lets it settle and snapshots it.
func snapshotOf(cfg stream.Config, st *stream.EngineState) (*core.Landscape, error) {
	eng, err := stream.Restore(cfg, st)
	if err != nil {
		return nil, err
	}
	defer eng.Kill()
	if err := eng.Quiesce(); err != nil {
		return nil, err
	}
	return eng.Snapshot()
}

// layerProbes measures, in the traced run only, the layers the round's own
// calls do not separate: matching and per-epoch estimation record by record
// and cell by cell, and the batch analysis at one worker.
func (b *offlineBench) layerProbes(tr *tracer, rs *roundStats, id uint64, fam *borderFamily,
	coreCfg core.Config, recs trace.Observed) error {
	c1 := coreCfg
	c1.Workers = 1
	done := tr.begin(id, "core.analyze_w1", "")
	bm, err := core.New(c1)
	if err != nil {
		return err
	}
	if _, err := bm.Analyze(recs, b.border.window); err != nil {
		return err
	}
	done()

	ems := core.NewEpochMatchers(fam.spec, fam.seed, nil, nil)
	for _, rec := range recs { // build every epoch's matcher before timing
		ems.For(int(rec.T / sim.Day))
	}
	matched := map[cellKey]trace.Observed{}
	done = tr.begin(id, "matcher.match", "")
	for _, rec := range recs {
		ep := int(rec.T / sim.Day)
		if ems.For(ep).MatchRecord(rec) {
			k := cellKey{rec.Server, ep}
			matched[k] = append(matched[k], rec)
		}
	}
	done()
	rs.layers["matcher.records"] += float64(len(recs))

	keys := make([]cellKey, 0, len(matched))
	for k := range matched {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].server != keys[j].server {
			return keys[i].server < keys[j].server
		}
		return keys[i].epoch < keys[j].epoch
	})
	est := estimators.ForModel(fam.spec)
	ecfg := estimators.Config{Spec: fam.spec, Seed: fam.seed}
	for _, k := range keys {
		w := sim.Window{Start: sim.Time(k.epoch) * sim.Day, End: sim.Time(k.epoch+1) * sim.Day}
		done := tr.begin(id, "estimators.estimate_epoch", "")
		_, err := estimators.EstimateWindow(est, matched[k], w, ecfg)
		done()
		if err != nil {
			return err
		}
	}
	return nil
}

// rssSampleEvery is how often sampleRSS reads the process's RSS.
const rssSampleEvery = 5 * time.Millisecond

// sampleRSS samples this process's RSS until the returned function is
// called, which returns the highest sample in MB. A round's peak taken this
// way, and its median over rounds, moves far less with the timing of
// garbage collection than the process-lifetime VmHWM.
func sampleRSS() func() (float64, error) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var peak float64
	var err error
	go func() {
		defer close(done)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			mb, e := procStatusMB(os.Getpid(), "VmRSS")
			if e != nil {
				err = e
				return
			}
			peak = math.Max(peak, mb)
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() (float64, error) {
		close(stop)
		<-done
		return peak, err
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func runOffline(o options) (*result, error) {
	defer cleanup(o)
	machineFacts()
	b := &offlineBench{o: o, res: newResult()}
	var setups []float64
	for i := 0; i < offlineSetups; i++ {
		dir := filepath.Join(o.workDir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t := time.Now()
		bt, err := simulateBorder(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		b.border = bt
	}
	info("offline: border trace %d records, %d servers, %d days; set-up %.3fs (median of %v)",
		b.border.records, len(b.border.servers), borderDays, median(setups), setups)
	if o.trace {
		return b.traced()
	}
	// Freshness is summarised per round: pooling every record's sample
	// would grow the process by megabytes a round and move rss_mb with the
	// number of rounds.
	var walls, cpus, fresh50, fresh90, peaks []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		stop := sampleRSS()
		rs, err := b.round(nil)
		peak, perr := stop()
		if err != nil {
			return nil, err
		}
		if perr != nil {
			return nil, perr
		}
		peaks = append(peaks, peak)
		walls = append(walls, rs.wall.Seconds())
		cpus = append(cpus, float64(rs.cpu)/float64(time.Microsecond))
		fd := distOf(rs.freshness)
		fresh50 = append(fresh50, fd.P50)
		fresh90 = append(fresh90, fd.P90)
		info("offline round %d: %.3fs (fig6a %.0fms/%d trials, fig7 %.0fms, read %.0fms, analyze %.0fms, replay %.0fms, federate %.0fms)",
			len(walls), rs.wall.Seconds(), ms(rs.fig6), rs.fig6Trials, ms(rs.fig7), ms(rs.read), ms(rs.analyze), ms(rs.replay), ms(rs.fed))
	}
	hwm, err := procStatusMB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	info("offline: streamed-landscape freshness p50 %.0fus p90 %.0fus (medians over rounds); round peak RSS median %.1f MB (rounds %v), process VmHWM %.1f MB",
		median(fresh50)*1e6, median(fresh90)*1e6, median(peaks), peaks, hwm)
	info("offline: %.3f rounds/s (1 / median round time), %.0f us of CPU per round (median)", 1/median(walls), median(cpus))
	b.res.set("setup_s", median(setups))
	b.res.set("rss_mb", median(peaks))
	return b.res, nil
}
