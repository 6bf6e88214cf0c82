package main

import (
	"path/filepath"
	"time"
)

// traced runs one untraced round, then one traced round with the extra
// per-layer probes, and reports the per-layer figures. Stage figures
// (offline.*) come from the untraced round; span figures from the traced
// one; their wall-time difference, probes excluded, is the tracing
// overhead.
func (b *offlineBench) traced() (*result, error) {
	plain, err := b.round(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	rs, err := b.round(tr)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(filepath.Dir(b.o.workDir), "spans-offline.jsonl")); err != nil {
		return nil, err
	}
	res, L := b.res, rs.layers
	self := tr.selfTimes()
	total := func(name string) time.Duration { return self[name].Total }
	records := float64(b.border.records)
	families := float64(len(b.border.families))

	fresh := distOf(plain.freshness)
	res.set("run.throughput_per_s", 1/plain.wall.Seconds())
	res.set("run.cpu_us_per_op", float64(plain.cpu)/float64(time.Microsecond))
	res.set("run.latency_p50_us", fresh.P50*1e6)
	res.set("run.latency_p90_us", fresh.P90*1e6)
	res.set("tracing.overhead_ratio", (rs.wall-rs.probes).Seconds()/plain.wall.Seconds()-1)
	res.set("trace.read_krec_per_s", records/total("trace.read").Seconds()/1e3)
	res.set("core.analyze_ms", ms(total("core.analyze")))
	res.set("core.analyze_w1_ms", ms(total("core.analyze_w1")))
	res.set("matcher.match_ns", float64(total("matcher.match"))/L["matcher.records"])
	est := self["estimators.estimate_epoch"]
	res.set("estimators.estimate_epoch_us", safeRatio(est.Total.Seconds()*1e6, float64(est.Count)))
	res.set("stream.observe_ns", float64(total("stream.observe"))/L["stream.ingested"])
	res.set("stream.matched_ratio", safeRatio(L["stream.matched"], L["stream.ingested"]))
	res.set("stream.epoch_close_us", safeRatio(L["stream.epoch_close_seconds_sum"]*1e6, L["stream.epoch_close_count"]))
	res.set("stream.checkpoint_export_ms", safeRatio(L["stream.checkpoint_export_s"]*1e3, L["stream.checkpoints"]))
	res.set("stream.checkpoint_encode_ms", safeRatio(L["stream.checkpoint_encode_s"]*1e3, L["stream.checkpoints"]))
	res.set("stream.checkpoint_bytes", safeRatio(L["stream.checkpoint_bytes_sum"], L["stream.checkpoints"]))
	res.set("stream.peak_retained", L["stream.peak_retained"])
	res.set("stream.merge_ms", ms(total("stream.merge")))
	res.set("stream.snapshot_ms", ms(total("stream.snapshot")))
	for _, k := range []string{"experiments.simulate_ms", "experiments.estimate_ms", "experiments.allocs_per_trial"} {
		res.set(k, L[k])
	}
	res.set("offline.fig6a_ms_per_trial", safeRatio(ms(plain.fig6), float64(plain.fig6Trials)))
	res.set("offline.fig7_ms_per_day", ms(plain.fig7)/fig7Days)
	res.set("offline.analyze_krec_per_s", families*records/(plain.read+plain.analyze).Seconds()/1e3)
	res.set("offline.replay_krec_per_s", families*records/plain.replay.Seconds()/1e3)
	res.set("offline.federate_ms", ms(plain.fed))
	res.zero("resolver.cpu_us_per_query", "resolver.cache_hit_ratio", "resolver.upstream_attempt_us",
		"resolver.rss_mb", "vantage.cpu_us_per_query", "vantage.rss_mb", "loadgen.late_p50_us",
		"loadgen.late_p99_us", "loadgen.retried_queries", "dnswire.decode_ns", "dnswire.encode_ns", "dnswire.allocs_per_query",
		"symtab.intern_ns", "symtab.bytes_per_name", "dnssim.cache_lookup_ns", "dnssim.cache_store_ns",
		"netx.udp_roundtrip_us", "netx.dial_exchange_us", "trace.append_ns", "trace.flush_us",
		"layers.sum_us_per_query", "layers.daemon_cpu_us_per_query")
	info("offline traced: round %.3fs untraced, %.3fs traced without the %.3fs of per-layer probes",
		plain.wall.Seconds(), (rs.wall - rs.probes).Seconds(), rs.probes.Seconds())
	return res, nil
}
