package main

import stm "privstm"

// metricDef is one metric as BENCHMARK.json declares it. metrics_test.go
// holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression.
	Bound float64
}

// endToEndMetrics are what a user of the system would see, on every
// workload. The bounds come from the A/A run (aa_seed.json); README.md says
// how.
var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.20},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"read_p50_us", "us", "lower", 0.20},
	{"write_p50_us", "us", "lower", 0.20},
	{"priv_p50_us", "us", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayerMetrics are the single-layer metrics of a -trace 1 run, in the
// order README.md discusses them.
func perLayerMetrics() []metricDef {
	lower := func(unit string, names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
		return out
	}
	var ds []metricDef
	add := func(more ...metricDef) { ds = append(ds, more...) }

	add(lower("ns", "stm.atomic_ro0_ns", "stm.atomic_w1_ns", "stm.store_ns",
		"stm.load_ns", "stm.load_again_ns", "stm.loadweak_ns")...)
	add(lower("us", "stm.thread_new_close_us")...)
	add(lower("1/op", "stm.reads_per_op", "stm.writes_per_op")...)
	add(lower("ratio", "stm.attempts_per_commit")...)
	for _, alg := range stm.Algorithms {
		p := "engine." + alg.String()
		add(lower("ns", p+".atomic_ro0_ns", p+".atomic_w1_ns", p+".load_ns")...)
	}
	add(lower("1/kop", "core.aborts_per_kop")...)
	add(lower("%", "core.fenced_pct")...)
	add(metricDef{Name: "core.pv_skipped_pct", Unit: "%", Better: "higher"})
	add(lower("ratio", "core.fence_spins_per_fenced")...)
	add(lower("1/kop", "core.validations_per_kop", "core.extensions_per_kop")...)
	add(lower("1/Mop", "core.serialized_per_mop")...)
	add(lower("1/kop", "core.sem_conflicts_per_kop")...)
	add(lower("1/op", "core.weak_reads_per_op")...)
	add(lower("ns", "orec.for_ns", "logs.readset_add_ns", "logs.undo_add_ns", "logs.redo_put_get_ns",
		"clock.tick_ns", "txnlist.enter_leave_ns", "txnlist.oldest_ns", "heap.alloc_ns", "rng.zipf_next_ns")...)
	add(lower("ns", "reclaim.retire_alloc_ns", "reclaim.collect_ns")...)
	add(lower("1/Mop", "reclaim.collects_per_mop")...)
	add(lower("count", "reclaim.limbo_end")...)
	add(lower("ns", "tds.get_ns", "tds.put_ns", "tds.delete_ns")...)
	add(lower("us", "tds.snapshot_us")...)
	add(lower("ns", "tds.walk_ns_per_node")...)
	add(lower("us", "tds.retire_us")...)
	add(lower("%", "tds.live_keys_drift_pct")...)
	add(lower("ns", "server.frame_encode_ns", "server.frame_decode_ns")...)
	add(lower("us", "server.rtt_get1_us", "server.loopback_echo_us", "server.overhead_us")...)
	add(lower("ratio", "server.committed_per_req")...)
	add(metricDef{Name: "server.privatize_ops", Unit: "count", Better: "higher"})
	add(lower("1/op", "go.allocs_per_op")...)
	add(lower("B/op", "go.alloc_bytes_per_op")...)
	add(lower("count", "go.gc_cycles")...)
	add(lower("us", "tail.read_p99_us", "tail.write_p99_us", "tail.priv_p99_us")...)
	add(lower("count", "run.slow_slices")...)
	add(lower("ns", "run.timer_overhead_ns")...)
	add(lower("%", "trace.overhead_pct")...)
	return ds
}
