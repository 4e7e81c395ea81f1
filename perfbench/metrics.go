package main

// metricSpec names one metric as BENCHMARK.json lists it.
type metricSpec struct {
	name, unit, better string
}

// endToEndNames are printed by every untraced run, on every workload.
var endToEndNames = []metricSpec{
	{"mb_per_s", "MB/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p99_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerNames are printed by every traced run. A workload that does
// not reach a layer reports 0 for it (batch jobs never touch dist, and
// the server's internals are visible only through its counters).
var perLayerNames = []metricSpec{
	{"shell.parse_us", "us", "lower"},
	{"core.plan_us", "us", "lower"},
	{"core.regions", "count", "higher"},
	{"core.plan_hit_ratio", "ratio", "higher"},
	{"core.seq_hint_ratio", "ratio", "lower"},
	{"core.interp_ms", "ms", "lower"},
	{"dfg.nodes_per_region", "count", "lower"},
	{"dfg.fused_stages", "count", "higher"},
	{"runtime.exec_ms", "ms", "lower"},
	{"runtime.active_ms", "ms", "lower"},
	{"runtime.blocked_ms", "ms", "lower"},
	{"runtime.split_active_ms", "ms", "lower"},
	{"runtime.merge_active_ms", "ms", "lower"},
	{"runtime.bytes_moved_mb", "MB", "lower"},
	{"runtime.bytes_per_chunk", "bytes", "higher"},
	{"runtime.alloc_mb_per_region", "MB", "lower"},
	{"runtime.gc_per_job", "count", "lower"},
	{"runtime.admit_wait_ms", "ms", "lower"},
	{"runtime.admit_waited_ratio", "ratio", "lower"},
	{"runtime.width_trims", "count", "lower"},
	{"runtime.real_speedup", "x", "higher"},
	{"sim.speedup_2core", "x", "higher"},
	{"commands.tr.active_ms", "ms", "lower"},
	{"commands.grep.active_ms", "ms", "lower"},
	{"commands.cut.active_ms", "ms", "lower"},
	{"commands.sed.active_ms", "ms", "lower"},
	{"commands.rev.active_ms", "ms", "lower"},
	{"commands.sort.active_ms", "ms", "lower"},
	{"commands.uniq.active_ms", "ms", "lower"},
	{"commands.comm.active_ms", "ms", "lower"},
	{"agg.active_ms", "ms", "lower"},
	{"agg.share", "ratio", "lower"},
	{"dist.exec_remote_ms", "ms", "lower"},
	{"dist.exec_remote_ms.framed", "ms", "lower"},
	{"dist.exec_remote_ms.range", "ms", "lower"},
	{"dist.exec_remote_ms.streamed", "ms", "lower"},
	{"dist.requests", "1/job", "lower"},
	{"dist.retries", "1/job", "lower"},
	{"dist.redispatched", "1/job", "lower"},
	{"dist.raw_mb", "MB", "lower"},
	{"dist.wire_mb", "MB", "lower"},
	{"dist.worker_plan_hit_ratio", "ratio", "higher"},
	{"serve.handler_ms", "ms", "lower"},
	{"serve.client_overhead_ms", "ms", "lower"},
	{"serve.failures", "count", "lower"},
	{"serve.sheds", "count", "lower"},
	{"meter.commits", "count", "lower"},
	{"meter.admitted", "count", "higher"},
	{"shell.self_ms", "ms", "lower"},
	{"core.self_ms", "ms", "lower"},
	{"runtime.self_ms", "ms", "lower"},
	{"commands.self_ms", "ms", "lower"},
	{"agg.self_ms", "ms", "lower"},
	{"dist.self_ms", "ms", "lower"},
	{"serve.self_ms", "ms", "lower"},
	{"http.self_ms", "ms", "lower"},
	{"unattributed_ms", "ms", "lower"},
	{"traced.mb_per_s", "MB/s", "higher"},
	{"traced.jobs_per_s", "1/s", "higher"},
	{"traced.job_p50_ms", "ms", "lower"},
	{"traced.job_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
