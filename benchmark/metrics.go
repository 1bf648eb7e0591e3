package main

import (
	"sort"
	"time"
)

// metricDef names one metric and its unit. The two lists below are the
// program's side of BENCHMARK.json; smoke_test.go fails when either side
// drifts from the other.
type metricDef struct{ Name, Unit string }

// endToEnd metrics are what a user of the system sees. Every workload reports
// every one of them, from the untraced run only.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"rows_per_s", "1/s"},
	{"campaigns_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// The eight campaigns of a campaign-round, in execution order; the first five
// are the builtin Labs challenges serve-closed rotates through.
var campaignNames = []string{
	"telco-churn", "payment-fraud", "energy-forecast", "retail-baskets", "web-funnel",
	"segments", "revenue-from-store", "churn-from-store",
}

// perLayer metrics come from the traced run. A traced run reports every one;
// a layer the workload never calls reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"runtime.allocs_per_row", "1/row"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.gc_cpu_share", "share"},
		{"runtime.gc_cycles_per_op", "count"},

		{"model.decode_us", "us"},
		{"core.compile_ms", "ms"},
		{"core.compile_ms.telco-churn", "ms"},
		{"core.compile_share", "share"},
		{"core.alternatives_per_compile", "count"},
		{"core.phase_us.validate", "us"},
		{"core.phase_us.match", "us"},
		{"core.phase_us.compose", "us"},
		{"core.phase_us.comply", "us"},
		{"core.phase_us.bind", "us"},

		{"service.overhead_us", "us"},
		{"service.wait_ms", "ms"},
		{"service.latency_p95_ms", "ms"},
		{"service.latency_p99_ms", "ms"},
		{"service.rejected", "count"},
		{"service.shed", "count"},
		{"service.retries", "count"},
	}
	for _, c := range campaignNames {
		defs = append(defs, metricDef{"runner.run_ms." + c, "ms"})
	}
	for _, c := range campaignNames {
		defs = append(defs, metricDef{"runner.prep_ms." + c, "ms"})
	}
	return append(defs, []metricDef{
		{"runner.store_save_ms", "ms"},

		{"dataflow.ingest_ms", "ms"},
		{"dataflow.collect_ms", "ms"},
		{"dataflow.narrow_ms", "ms"},
		{"dataflow.join_ms", "ms"},
		{"dataflow.groupby_ms", "ms"},
		{"dataflow.sort_ms", "ms"},
		{"dataflow.scaling_1_to_n", "ratio"},
		{"dataflow.tasks", "count"},
		{"dataflow.stages", "count"},
		{"dataflow.batches", "count"},
		{"dataflow.shuffled_rows", "count"},
		{"dataflow.broadcast_joins", "count"},
		{"dataflow.spilled_batches", "count"},
		{"dataflow.spilled_bytes", "B"},
		{"dataflow.spill_logical_bytes", "B"},
		{"dataflow.sort_runs", "count"},
		{"dataflow.agg_groups", "count"},

		{"cluster.dispatch_us", "us"},
		{"cluster.busy_share", "share"},

		{"storage.batch_from_rows_mrows_s", "Mrow/s"},
		{"storage.encode_mb_s", "MB/s"},
		{"storage.decode_mb_s", "MB/s"},
		{"storage.frame_ratio", "ratio"},
		{"storage.spill_write_mb_s", "MB/s"},
		{"storage.spill_read_mb_s", "MB/s"},
		{"storage.merge_mrows_s", "Mrow/s"},
		{"storage.key_hash_ns", "ns"},

		{"store.save_ms", "ms"},
		{"store.scan_ms", "ms"},
		{"store.scan_selective_ms", "ms"},
		{"store.segments_skipped_share", "share"},
		{"store.open_ms", "ms"},
		{"store.bytes_per_row", "B/row"},
		{"store.syncs_per_save", "count"},
		{"store.fs_bytes_per_row", "B/row"},
		{"store.stored_bytes_per_row", "B/row"},

		{"trace.overhead_share", "share"},
		{"trace.unattributed_share", "share"},
	}...)
}

// exactLayerMetrics must repeat exactly between two runs with one seed on one
// machine; compare reports any that do not.
var exactLayerMetrics = map[string]bool{
	"dataflow.tasks": true, "dataflow.stages": true, "dataflow.batches": true,
	"dataflow.shuffled_rows": true, "dataflow.broadcast_joins": true,
	"dataflow.spilled_batches": true, "dataflow.spilled_bytes": true,
	"dataflow.spill_logical_bytes": true, "dataflow.sort_runs": true,
	"dataflow.agg_groups": true, "store.stored_bytes_per_row": true,
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func sortedDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile is the nearest-rank percentile of ds (p in (0,100]); 0 when ds
// is empty.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := sortedDurations(ds)
	rank := int(float64(len(s))*p/100+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median interpolates between the two middle samples of an even count, so a
// median of few samples does not jump by a whole sample when one moves.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := sortedDurations(ds)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
