package main

// The manifest is BENCHMARK.json at the repository root: what the
// benchmark runs and which metrics it reports. `perfbench --manifest`
// prints it from the definitions below, so the file and the program
// cannot disagree.

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

func bound(b float64) *float64 { return &b }

// endToEndMetrics are measured with tracing off. bound is the share of
// the parent's median by which a change may make the metric worse.
var endToEndMetrics = []manifestMetric{
	{"throughput_pps", "pkt/s", "higher", bound(0.25)},
	{"cpu_ns_per_pkt", "ns", "lower", bound(0.25)},
	{"allocs_per_pkt", "count", "lower", bound(0.15)},
	{"peak_heap_mb", "MB", "lower", bound(0.25)},
	{"delivery_p50_ms", "ms", "lower", bound(0.25)},
	{"delivery_p99_ms", "ms", "lower", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
	{"recover_s", "s", "lower", bound(0.25)},
}

// perLayerMetrics come from the traced run. Where a layer does not take
// part in a workload its metric reads 0 there (no high-level node on
// line_rate, no ESTIMATE query off line_rate, no quota off
// durable_churn).
var perLayerMetrics = []manifestMetric{
	{"engine.low_busy_ns_per_pkt", "ns", "lower", nil},
	{"engine.high_busy_ns_per_pkt", "ns", "lower", nil},
	{"engine.pump_gap_ns_per_pkt", "ns", "lower", nil},
	{"engine.fanout_rows_per_pkt", "count", "lower", nil},
	{"engine.install_ms.p50", "ms", "lower", nil},
	{"engine.install_ms.max", "ms", "lower", nil},
	{"engine.uninstall_ms.p50", "ms", "lower", nil},
	{"engine.drain_ms", "ms", "lower", nil},
	{"engine.feed_lag_p99_ms", "ms", "lower", nil},
	{"engine.snapshots", "count", "lower", nil},
	{"ringbuf.push_pop_ns_per_pkt", "ns", "lower", nil},
	{"ringbuf.peak_len", "count", "lower", nil},
	{"ringbuf.drops", "count", "lower", nil},
	{"tuple.convert_ns_per_pkt", "ns", "lower", nil},
	{"tuple.convert_allocs_per_pkt", "count", "lower", nil},
	{"gsql.compile_us_per_query", "us", "lower", nil},
	{"gsql.kernel_ns_per_pkt", "ns", "lower", nil},
	{"operator.batch_ns_per_pkt", "ns", "lower", nil},
	{"operator.batch_allocs_per_pkt", "count", "lower", nil},
	{"operator.walk_ns_per_pkt", "ns", "lower", nil},
	{"operator.row_ns_per_row", "ns", "lower", nil},
	{"operator.window_close_us", "us", "lower", nil},
	{"operator.groups_created", "count", "lower", nil},
	{"operator.cleanings", "count", "lower", nil},
	{"operator.windows", "count", "lower", nil},
	{"operator.rows_out", "count", "lower", nil},
	{"estimate.ns_per_pkt", "ns", "lower", nil},
	{"deliver.rows_per_pkt", "count", "lower", nil},
	{"deliver.sub_dropped", "count", "lower", nil},
	{"deliver.consumer_busy_frac", "ratio", "lower", nil},
	{"overload.admit_ns_per_row", "ns", "lower", nil},
	{"overload.quota_admitted", "count", "higher", nil},
	{"overload.quota_shed", "count", "lower", nil},
	{"checkpoint.encode_ms", "ms", "lower", nil},
	{"checkpoint.bytes", "bytes", "lower", nil},
	{"checkpoint.write_ms", "ms", "lower", nil},
	{"checkpoint.read_ms", "ms", "lower", nil},
	{"bench.trace_overhead_frac", "ratio", "lower", nil},
	{"bench.ladder_coverage", "ratio", "higher", nil},
}

func benchmarkManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	return m
}
