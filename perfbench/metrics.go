package main

// metricDef is a metric as BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by the untraced run (--trace 0).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"sweep_faults_per_s", "1/s"},
	{"fault_ms_p50", "ms"},
	{"fault_ms_p99", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are reported by the traced run (--trace 1), each the
// median over the run's traced iterations.
var perLayerMetrics = []metricDef{
	{"benchgen.generate_s", "s"},
	{"sim.collapse_s", "s"},
	{"partition.seed_search_s", "s"},
	{"sim.goodsim_s", "s"},
	{"bist.engine_s", "s"},
	{"bist.golden_s", "s"},
	{"pipeline.fetch_s", "s"},
	{"pipeline.mem_hits", "count"},
	{"pipeline.disk_hits", "count"},
	{"pipeline.disk_misses", "count"},
	{"pipeline.disk_writes", "count"},
	{"sim.schedule_s", "s"},
	{"sim.batches", "count"},
	{"sim.plan_fill", "ratio"},
	{"sim.kernel_s", "s"},
	{"sim.materialize_s", "s"},
	{"sim.kernel_ns_per_fault", "ns"},
	{"bist.verdicts_s", "s"},
	{"bist.verdicts_ns_per_fault", "ns"},
	{"diagnosis.prune_s", "s"},
	{"diagnosis.counts_s", "s"},
	{"diagnosis.candidates_mean", "cells"},
	{"diagnosis.pruned_frac", "ratio"},
	{"pipeline.busy_frac", "ratio"},
	{"pipeline.jobs", "count"},
	{"shard.sweep_s", "s"},
	{"shard.local_sweep_s", "s"},
	{"shard.overhead_frac", "ratio"},
	{"shard.bytes_out", "bytes"},
	{"shard.bytes_in", "bytes"},
	{"shard.jobs", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// spanMoves maps each span to the end-to-end metric its time moves, for
// the per-layer report.
var spanMoves = map[string]string{
	"run":                   "run_s",
	"setup":                 "setup_s",
	"benchgen.generate":     "setup_s",
	"sim.collapse":          "setup_s",
	"sim.goodsim":           "setup_s",
	"bist.engine":           "setup_s",
	"partition.seed_search": "setup_s",
	"diagnosis.build":       "setup_s",
	"bist.golden":           "setup_s",
	"shard.start":           "setup_s",
	"shard.dial":            "setup_s",
	"pipeline.fetch":        "setup_s",
	"sweep":                 "sweep_faults_per_s",
	"sim.schedule":          "sweep_faults_per_s",
	"pipeline.executor":     "sweep_faults_per_s",
	"pipeline.job":          "sweep_faults_per_s",
	"sim.kernel":            "sweep_faults_per_s",
	"sim.materialize":       "sweep_faults_per_s",
	"bist.verdicts":         "sweep_faults_per_s, fault_ms_*",
	"diagnosis.prune":       "sweep_faults_per_s, fault_ms_*",
	"diagnosis.counts":      "sweep_faults_per_s",
	"core.merge":            "sweep_faults_per_s",
	"shard.sweep":           "sweep_faults_per_s",
	"shard.local_sweep":     "none (comparison sweep)",
}
