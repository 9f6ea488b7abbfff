package main

// metricDef is one metric of BENCHMARK.json; catalogue_test.go keeps the two
// in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, printed by --trace 0
// on every workload. On the batch workloads, which run one job at a time,
// the turnaround metrics are the median job latency and the SLO limit is
// per workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"reads_per_s", "reads/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_share", "share", "higher"},
	{"genome_fraction_pct", "%", "higher"},
	{"turnaround_p50_ms.r10", "ms", "lower"},
	{"turnaround_p50_ms.r25", "ms", "lower"},
	{"slo_met_share.r25", "share", "higher"},
	{"capacity_jobs_per_s", "jobs/s", "higher"},
}

// perLayer are the traced run's metrics, printed by --trace 1 on every
// workload; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"kmer.count_s", "s", "lower"},
	{"kmer.kmers_per_s", "kmers/s", "higher"},
	{"kmer.distinct", "count", "lower"},
	{"kmer.probes_per_kmer", "count", "lower"},
	{"debruijn.build_s", "s", "lower"},
	{"debruijn.simplify_s", "s", "lower"},
	{"debruijn.traverse_s", "s", "lower"},
	{"debruijn.nodes", "count", "lower"},
	{"debruijn.edges", "count", "lower"},
	{"assembly.hashmap_s", "s", "lower"},
	{"assembly.debruijn_s", "s", "lower"},
	{"assembly.traverse_s", "s", "lower"},
	{"engine.overhead_s", "s", "lower"},
	{"engine.price_ns", "ns", "lower"},
	{"genome.parse_s", "s", "lower"},
	{"shard.partition_s", "s", "lower"},
	{"shard.spill_mb", "MB", "lower"},
	{"shard.merge_s", "s", "lower"},
	{"shard.contig_redundancy", "ratio", "lower"},
	{"distshard.assemble_s", "s", "lower"},
	{"distshard.slowest_shard_s", "s", "lower"},
	{"distshard.orchestration_s", "s", "lower"},
	{"distshard.respawns", "count", "lower"},
	{"distshard.frame_errors", "count", "lower"},
	{"distshard.worker_peak_rss_mb", "MB", "lower"},
	{"jobqueue.wait_ms_p50", "ms", "lower"},
	{"jobqueue.wait_ms_p95", "ms", "lower"},
	{"jobqueue.run_ms_p50", "ms", "lower"},
	{"service.submit_ms_p50", "ms", "lower"},
	{"service.submit_ms_p95", "ms", "lower"},
	{"service.fetch_ms_p50", "ms", "lower"},
	{"service.polls_per_job", "count", "lower"},
	{"service.refused_share", "share", "lower"},
	{"service.overhead_ms_p50", "ms", "lower"},
	{"service.turnaround_p95_ms.r10", "ms", "lower"},
	{"service.turnaround_p95_ms.r25", "ms", "lower"},
	{"core.simulate_s", "s", "lower"},
	{"core.summarize_s", "s", "lower"},
	{"core.commands_per_s", "commands/s", "higher"},
	{"core.commands", "count", "lower"},
	{"core.modeled_energy_uj", "uJ", "lower"},
	{"core.modeled_makespan_us", "us", "lower"},
	{"runtime.alloc_mb_per_job", "MB", "lower"},
	{"runtime.gc_cycles_per_job", "count", "lower"},
	{"loadgen.late_ms_p95", "ms", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"quality.n50_bp", "bp", "higher"},
}
