package main

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"botmeter/internal/core"
	"botmeter/internal/dga"
	"botmeter/internal/dnssim"
	"botmeter/internal/dnswire"
	"botmeter/internal/sim"
	"botmeter/internal/stream"
	"botmeter/internal/symtab"
	"botmeter/internal/trace"
)

// The traced wire run replays the reference phase's exact query sequence
// in-process through the public functions the daemons' socket workers call,
// in the order they call them (cmd/resolver/fast.go, cmd/vantage/fast.go):
//
//	resolver: DecodeInto → symtab Lookup/Intern → Cache.LookupID →
//	          hit: AppendEncode
//	          miss: dial, write, read, Decode, close (the upstream exchange)
//	                → Cache.StoreID
//	vantage:  DecodeInto → symtab Lookup/Intern → SafeWriter.AppendObserved
//	          (Flush every 64 records) → Engine.Observe → AppendEncode
//
// The vantage half runs behind a real loopback socket, as the resolver's
// miss path reaches it. Spans share the query's index as their id.

// vantageSide is the in-process upstream: a socket, a decode arena, an
// intern table, an observed-log writer and a live engine.
type vantageSide struct {
	tr    *tracer
	conn  *net.UDPConn
	cur   *atomic.Uint64 // id of the query in flight
	arena dnswire.Arena
	msg   dnswire.Message
	tab   *symtab.Table
	file  *os.File
	out   *trace.SafeWriter
	est   *stream.Engine
	resp  dnswire.Message
	enc   []byte
	names map[netip.Addr]string
	n     int
	err   error
}

// flushEvery mirrors the vantage's default -flush-every.
const flushEvery = 64

func newVantageSide(tr *tracer, dir string, seed uint64, cur *atomic.Uint64) (*vantageSide, error) {
	spec, err := dga.Lookup(liveFamily)
	if err != nil {
		return nil, err
	}
	est, err := stream.New(stream.Config{Core: core.Config{Family: spec, Seed: seed}})
	if err != nil {
		return nil, err
	}
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		est.Kill()
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("replay-%p.jsonl", c)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		est.Kill()
		c.Close()
		return nil, err
	}
	v := &vantageSide{
		tr: tr, conn: c, cur: cur, tab: symtab.New(), file: f, est: est,
		out:   trace.NewSafeWriter(f, trace.SafeWriterConfig{FlushInterval: -1, FlushEvery: -1}),
		enc:   make([]byte, 0, 512),
		names: map[netip.Addr]string{},
	}
	v.arena.LowerASCII = true
	return v, nil
}

// serve answers until the socket closes.
func (v *vantageSide) serve() {
	buf := make([]byte, 65535)
	for {
		n, ap, err := v.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		resp := v.handle(buf[:n], v.server(ap))
		if resp != nil {
			if _, err := v.conn.WriteToUDPAddrPort(resp, ap); err != nil {
				return
			}
		}
	}
}

func (v *vantageSide) server(ap netip.AddrPort) string {
	a := ap.Addr()
	s, ok := v.names[a]
	if !ok {
		s = a.Unmap().String()
		v.names[a] = s
	}
	return s
}

func (v *vantageSide) handle(pkt []byte, server string) []byte {
	id, tr := v.cur.Load(), v.tr
	const parent = "netx.dial_exchange"
	end := tr.begin(id, "dnswire.decode", parent)
	err := dnswire.DecodeInto(pkt, &v.msg, &v.arena)
	end()
	if err != nil || v.msg.Header.QR || len(v.msg.Questions) == 0 {
		return nil
	}
	name := v.msg.Questions[0].Name
	t := sim.Time(time.Now().UnixMilli())
	end = tr.begin(id, "symtab.intern", parent)
	sid, ok := v.tab.Lookup(name)
	if !ok {
		sid = v.tab.Intern(strings.Clone(name))
	}
	domain := v.tab.Resolve(sid)
	end()
	end = tr.begin(id, "trace.append", parent)
	err = v.out.AppendObserved(t, server, domain)
	end()
	v.n++
	if err == nil && v.n%flushEvery == 0 {
		end = tr.begin(id, "trace.flush", parent)
		err = v.out.Flush()
		end()
	}
	if err != nil && v.err == nil {
		v.err = err
	}
	end = tr.begin(id, "stream.observe", parent)
	_ = v.est.Observe(trace.ObservedRecord{T: t, Server: server, Domain: domain}) // fails only once closed
	end()
	end = tr.begin(id, "dnswire.encode", parent)
	v.resp.Header = dnswire.Header{ID: v.msg.Header.ID, QR: true, RD: v.msg.Header.RD, RA: true, AA: true,
		Rcode: dnswire.RcodeNXDomain}
	v.resp.Questions = v.msg.Questions
	v.enc, err = v.resp.AppendEncode(v.enc[:0])
	end()
	if err != nil {
		return nil
	}
	return v.enc
}

// close stops the socket and returns the engine's statistics.
func (v *vantageSide) close() (stream.Stats, error) {
	v.conn.Close()
	errs := []error{v.err, v.out.Close(), v.file.Close()}
	_, err := v.est.Close()
	errs = append(errs, err)
	return v.est.Stats(), errors.Join(errs...)
}

// resolverSide is the in-process resolver worker.
type resolverSide struct {
	tr       *tracer
	upstream string
	cur      *atomic.Uint64
	arena    dnswire.Arena
	msg      dnswire.Message
	tab      *symtab.Table
	cache    *dnssim.Cache
	resp     dnswire.Message
	enc      []byte
	rbuf     []byte
	started  time.Time
}

func newResolverSide(tr *tracer, upstream string, cur *atomic.Uint64) *resolverSide {
	r := &resolverSide{
		tr: tr, upstream: upstream, cur: cur, tab: symtab.New(),
		cache: dnssim.NewCache(sim.FromDuration(24*time.Hour), sim.FromDuration(2*time.Hour)),
		enc:   make([]byte, 0, 512), rbuf: make([]byte, 65535), started: time.Now(),
	}
	r.arena.LowerASCII = true
	return r
}

// handle serves one query and returns the rcode the client would see.
func (r *resolverSide) handle(id uint64, pkt []byte) (int, error) {
	tr := r.tr
	endQ := tr.begin(id, "query", "")
	defer endQ()
	end := tr.begin(id, "dnswire.decode", "query")
	err := dnswire.DecodeInto(pkt, &r.msg, &r.arena)
	end()
	if err != nil {
		return 0, err
	}
	name := r.msg.Questions[0].Name
	end = tr.begin(id, "symtab.intern", "query")
	sid, ok := r.tab.Lookup(name)
	if !ok {
		sid = r.tab.Intern(strings.Clone(name))
	}
	end()
	now := sim.FromDuration(time.Since(r.started))
	end = tr.begin(id, "dnssim.cache_lookup", "query")
	ans, hit := r.cache.LookupID(now, sid)
	end()
	if hit {
		end = tr.begin(id, "dnswire.encode", "query")
		r.resp.Header = dnswire.Header{ID: r.msg.Header.ID, QR: true, RD: r.msg.Header.RD, RA: true, AA: true}
		r.resp.Questions = r.msg.Questions
		r.resp.Answers = nil
		if ans.NX {
			r.resp.Header.Rcode = dnswire.RcodeNXDomain
		}
		r.enc, err = r.resp.AppendEncode(r.enc[:0])
		end()
		return int(r.resp.Header.Rcode), err
	}
	r.cur.Store(id)
	end = tr.begin(id, "netx.dial_exchange", "query")
	rcode, err := r.exchange(pkt, name)
	end()
	if err != nil {
		return 0, err
	}
	end = tr.begin(id, "dnssim.cache_store", "query")
	r.cache.StoreID(now, sid, rcode == dnswire.RcodeNXDomain)
	end()
	return rcode, nil
}

// exchange is one upstream attempt as the resolver makes it: a fresh
// socket per attempt, the answer validated against the question.
func (r *resolverSide) exchange(pkt []byte, name string) (int, error) {
	c, err := net.Dial("udp", r.upstream)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return 0, err
	}
	if _, err := c.Write(pkt); err != nil {
		return 0, err
	}
	n, err := c.Read(r.rbuf)
	if err != nil {
		return 0, err
	}
	m, err := dnswire.Decode(r.rbuf[:n])
	if err != nil {
		return 0, err
	}
	if !m.Header.QR || len(m.Questions) == 0 || !strings.EqualFold(m.Questions[0].Name, name) {
		return 0, fmt.Errorf("upstream answered a different question")
	}
	return int(m.Header.Rcode), nil
}

// replayStats is what one replay of a query sequence measured.
type replayStats struct {
	wall    time.Duration
	engine  stream.Stats
	pool    int // pool names among the warm and the replayed queries
	queries int
}

// replay runs warm then qs through an in-process resolver and vantage.
// The warm queries are served before timing and tracing start.
func replay(tr *tracer, dir string, seed uint64, warm, qs []query) (*replayStats, error) {
	var cur atomic.Uint64
	if tr != nil {
		tr.on.Store(false) // the warm queries are not traced
	}
	v, err := newVantageSide(tr, dir, seed, &cur)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v.serve()
	}()
	r := newResolverSide(tr, v.conn.LocalAddr().String(), &cur)
	rs := &replayStats{queries: len(qs)}
	runErr := func() error {
		for i, q := range warm {
			if _, err := r.handle(uint64(i), encodeQuery(uint16(i), q.name)); err != nil {
				return err
			}
			if q.pool {
				rs.pool++
			}
		}
		pkts := make([][]byte, len(qs))
		for i, q := range qs {
			pkts[i] = encodeQuery(uint16(i), q.name)
			if q.pool {
				rs.pool++
			}
		}
		runtime.GC()
		if tr != nil {
			tr.on.Store(true)
		}
		t0 := time.Now()
		for i, pkt := range pkts {
			rcode, err := r.handle(uint64(i), pkt)
			if err != nil {
				return err
			}
			if rcode != dnswire.RcodeNXDomain {
				return fmt.Errorf("replay: %q answered rcode %d", qs[i].name, rcode)
			}
		}
		rs.wall = time.Since(t0)
		return nil
	}()
	st, closeErr := v.close()
	wg.Wait()
	rs.engine = st
	return rs, errors.Join(runErr, closeErr)
}

func encodeQuery(id uint16, name string) []byte {
	pkt, err := dnswire.NewQuery(id, name).Encode()
	if err != nil {
		panic(fmt.Sprintf("encoding query %q: %v", name, err)) // names are generated, never input
	}
	return pkt
}

// udpRoundtrip times write-then-read on one persistent connected loopback
// socket against an echo socket, with the workload's query packets.
func udpRoundtrip(qs []query, n int) (time.Duration, error) {
	echo, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 65535)
		for {
			m, ap, err := echo.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if _, err := echo.WriteToUDPAddrPort(buf[:m], ap); err != nil {
				return
			}
		}
	}()
	defer func() {
		echo.Close()
		wg.Wait()
	}()
	c, err := net.DialUDP("udp", nil, echo.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, err
	}
	defer c.Close()
	buf := make([]byte, 65535)
	pkts := make([][]byte, len(qs))
	for i, q := range qs {
		pkts[i] = encodeQuery(uint16(i), q.name)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Write(pkts[i%len(pkts)]); err != nil {
			return 0, err
		}
		if _, err := c.Read(buf); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(n), nil
}

// codecAllocs counts heap allocations per query of the resolver's hit path
// codec: DecodeInto into a reused arena, then AppendEncode into a reused
// buffer.
func codecAllocs(qs []query) float64 {
	pkts := make([][]byte, len(qs))
	for i, q := range qs {
		pkts[i] = encodeQuery(uint16(i), q.name)
	}
	var arena dnswire.Arena
	arena.LowerASCII = true
	var msg, resp dnswire.Message
	enc := make([]byte, 0, 512)
	for _, p := range pkts[:min(len(pkts), 64)] { // size the arena and buffers
		_ = dnswire.DecodeInto(p, &msg, &arena)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range pkts {
		if dnswire.DecodeInto(p, &msg, &arena) != nil {
			continue
		}
		resp.Header = dnswire.Header{ID: msg.Header.ID, QR: true, Rcode: dnswire.RcodeNXDomain}
		resp.Questions = msg.Questions
		enc, _ = resp.AppendEncode(enc[:0])
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(pkts))
}

// internBytes measures the heap an intern table holds per distinct name,
// each stored as the daemons store it (a clone of the decoded name).
func internBytes(qs []query) float64 {
	distinct := map[string]bool{}
	for _, q := range qs {
		distinct[q.name] = true
	}
	names := make([]string, 0, len(distinct))
	for n := range distinct {
		names = append(names, n)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tab := symtab.New()
	for _, n := range names {
		tab.Intern(strings.Clone(n))
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(tab)
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(len(names))
}

// tracedRefShare of the traced run's seconds goes to reference blocks at
// the start, tracedKneeShare to the knee search after them.
const (
	tracedRefShare  = 0.3
	tracedKneeShare = 0.5
)

// traced runs the traced wire run: one pipeline's reference blocks and
// knee against the real daemons for their /proc and /metrics figures, then
// the in-process replay of the reference sequence, untraced and traced,
// for the per-layer figures.
func (w *wireRun) traced() error {
	setup, err := w.start(0)
	if err != nil {
		return err
	}
	info("%s: pipeline on loopback, resolver %s; set-up %.4fs", w.spec.name, w.p.dnsAddr, setup)
	ref := &refPhase{before: w.last}
	blocks := max(cycleRefBlocks, int(float64(w.o.seconds)*tracedRefShare/refBlock.Seconds()))
	for i := 0; i < blocks; i++ {
		if err := w.refBlockRun(ref); err != nil {
			return err
		}
	}
	ref.report(w.spec.name, w.spec.refRate)
	rssR, rssV, err := w.p.rss()
	if err != nil {
		return err
	}
	res := w.res
	res.set("run.latency_p50_us", lowerQuartile(ref.p50s)*1e6)
	res.set("run.latency_p90_us", median(ref.p90s)*1e6)
	late := distOf(ref.late)
	res.set("resolver.cpu_us_per_query", median(ref.rs))
	res.set("vantage.cpu_us_per_query", median(ref.vs))
	res.set("layers.daemon_cpu_us_per_query", median(ref.cpus))
	res.set("run.cpu_us_per_op", median(ref.cpus))
	res.set("loadgen.retried_queries", float64(ref.retried))
	res.set("resolver.rss_mb", rssR)
	res.set("vantage.rss_mb", rssV)
	res.set("loadgen.late_p50_us", late.P50*1e6)
	res.set("loadgen.late_p99_us", late.P99*1e6)
	b, a := ref.before, ref.after
	ratio := 0.0
	if l := delta(b.r, a.r, "dnssim_cache_lookups_total"); l > 0 {
		ratio = delta(b.r, a.r, "dnssim_cache_hits_total") / l
	}
	res.set("resolver.cache_hit_ratio", ratio)
	attempt := 0.0
	if c := delta(b.r, a.r, "resolver_upstream_attempt_seconds_count"); c > 0 {
		attempt = delta(b.r, a.r, "resolver_upstream_attempt_seconds_sum") / c * 1e6
	}
	res.set("resolver.upstream_attempt_us", attempt)

	// The knee comes from the daemons alone, before the replays.
	k, err := w.searchKnee(time.Now().Add(time.Duration(float64(w.o.seconds) * tracedKneeShare * float64(time.Second))))
	if err != nil {
		return err
	}
	w.res.check(k > 0, "no ladder step was sustained")
	res.set("run.throughput_per_s", k)

	qs, warm := w.refQueries, w.warmed
	plain, err := replay(nil, w.o.workDir, w.o.seed, warm, qs)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := replay(tr, w.o.workDir, w.o.seed, warm, qs)
	if err != nil {
		return err
	}
	if err := tr.write(filepath.Join(filepath.Dir(w.o.workDir), "spans-"+w.spec.name+".jsonl")); err != nil {
		return err
	}
	res.check(traced.engine.Matched == uint64(traced.pool),
		"replay: engine matched %d, warm pass and sequence hold %d pool names", traced.engine.Matched, traced.pool)
	res.set("tracing.overhead_ratio", traced.wall.Seconds()/plain.wall.Seconds()-1)
	res.set("stream.matched_ratio", safeRatio(float64(traced.engine.Matched), float64(traced.engine.Ingested)))

	self := tr.selfTimes()
	mean := func(name string, unit time.Duration) float64 {
		lt := self[name]
		if lt.Count == 0 {
			return 0
		}
		return float64(lt.Self) / float64(lt.Count) / float64(unit)
	}
	res.set("dnswire.decode_ns", mean("dnswire.decode", time.Nanosecond))
	res.set("dnswire.encode_ns", mean("dnswire.encode", time.Nanosecond))
	res.set("symtab.intern_ns", mean("symtab.intern", time.Nanosecond))
	res.set("dnssim.cache_lookup_ns", mean("dnssim.cache_lookup", time.Nanosecond))
	res.set("dnssim.cache_store_ns", mean("dnssim.cache_store", time.Nanosecond))
	res.set("netx.dial_exchange_us", mean("netx.dial_exchange", time.Microsecond))
	res.set("trace.append_ns", mean("trace.append", time.Nanosecond))
	res.set("trace.flush_us", mean("trace.flush", time.Microsecond))
	res.set("stream.observe_ns", mean("stream.observe", time.Nanosecond))
	var layerSum time.Duration
	for name, lt := range self {
		if name != "query" {
			layerSum += lt.Self
		}
	}
	res.set("layers.sum_us_per_query", layerSum.Seconds()/float64(len(qs))*1e6)

	rt, err := udpRoundtrip(qs, 5000)
	if err != nil {
		return err
	}
	res.set("netx.udp_roundtrip_us", rt.Seconds()*1e6)
	res.set("dnswire.allocs_per_query", codecAllocs(qs))
	res.set("symtab.bytes_per_name", internBytes(qs))
	res.zero("trace.read_krec_per_s", "stream.epoch_close_us", "stream.checkpoint_export_ms",
		"stream.checkpoint_encode_ms", "stream.checkpoint_bytes", "stream.peak_retained",
		"stream.merge_ms", "stream.snapshot_ms", "core.analyze_ms", "core.analyze_w1_ms",
		"matcher.match_ns", "estimators.estimate_epoch_us", "experiments.simulate_ms",
		"experiments.estimate_ms", "experiments.allocs_per_trial", "offline.fig6a_ms_per_trial",
		"offline.fig7_ms_per_day", "offline.analyze_krec_per_s", "offline.replay_krec_per_s",
		"offline.federate_ms")
	info("%s traced: replay %d queries untraced %.3fs, traced %.3fs; layer sum %.1fus/query beside daemon CPU %.1fus/query",
		w.spec.name, len(qs), plain.wall.Seconds(), traced.wall.Seconds(),
		res.metrics["layers.sum_us_per_query"], res.metrics["layers.daemon_cpu_us_per_query"])
	return nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
