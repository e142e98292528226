package main

import (
	"strings"

	"github.com/energymis/energymis"
)

type metricName struct{ name, unit string }

// endToEndMetrics are reported by every workload with -trace 0.
var endToEndMetrics = []metricName{
	{"ops_per_ref_s", "1/ref-s"},
	{"op_p50_ref_ms", "ref-ms"},
	{"op_tail_ref_ms", "ref-ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"rounds_per_op", "rounds"},
	{"energy_max", "rounds"},
	{"energy_avg", "rounds"},
	{"messages_per_op", "count"},
}

// algoSpans lists, per algorithm, the phase spans reported as metrics,
// keyed by PhaseStart name (degreduce closes its "phase-i.<k>" spans under
// one "phase-i" start; Phase III retries fold into "phase-iii"). The
// one-round "sync-*" spans carry no wall time and are left out.
var algoSpans = map[energymis.Algorithm][]string{
	energymis.Luby:            {"luby"},
	energymis.RegularizedLuby: {"reg-luby"},
	energymis.Algorithm1:      {"phase-i", "phase-ii", "phase-iii"},
	energymis.Algorithm2:      {"phase-i", "phase-ii", "phase-iii"},
	energymis.Algorithm1Avg:   {"phase-i", "phase-i/ii", "phase-ii", "phase-iii"},
	energymis.Algorithm2Avg:   {"phase-i", "phase-i/ii", "phase-ii", "phase-iii"},
}

// spanMetric turns a span name into a metric-name component.
func spanMetric(span string) string { return strings.ReplaceAll(span, "/", "_") }

// perLayerMetrics lists every metric a -trace 1 run reports, on every
// workload; layers a workload does not exercise read 0.
func perLayerMetrics() []metricName {
	ms := []metricName{
		{"sim.ns_per_awake_node_round", "ref-ns"},
		{"sim.executed_rounds", "rounds"},
		{"sim.awake_node_rounds", "count"},
		{"sim.messages", "count"},
		{"sim.workers2_op_ref_ms", "ref-ms"},
		{"sim.workers2_slowdown", "ratio"},
	}
	for _, a := range energymis.Algorithms() {
		p := a.String()
		ms = append(ms,
			metricName{"run." + p + ".ref_ms", "ref-ms"},
			metricName{"engine." + p + ".ref_ms", "ref-ms"},
			metricName{"glue." + p + ".ref_ms", "ref-ms"})
		for _, s := range algoSpans[a] {
			ms = append(ms,
				metricName{"phase." + p + "." + spanMetric(s) + ".ref_ms", "ref-ms"},
				metricName{"phase." + p + "." + spanMetric(s) + ".self_ref_ms", "ref-ms"})
		}
		ms = append(ms,
			metricName{"count." + p + ".rounds", "rounds"},
			metricName{"count." + p + ".max_awake", "rounds"},
			metricName{"count." + p + ".avg_awake", "rounds"},
			metricName{"count." + p + ".messages", "count"})
	}
	return append(ms,
		metricName{"dynamic.apply_ref_ms", "ref-ms"},
		metricName{"dynamic.elect_ref_ms", "ref-ms"},
		metricName{"dynamic.rest_ref_ms", "ref-ms"},
		metricName{"dynamic.woken", "count"},
		metricName{"dynamic.evictions", "count"},
		metricName{"dynamic.elections", "count"},
		metricName{"dynamic.engine_rounds", "rounds"},
		metricName{"dynamic.sweep_words", "count"},
		metricName{"dynamic.max_region", "count"},
		metricName{"setup.graph_ref_ms", "ref-ms"},
		metricName{"setup.first_op_ref_ms", "ref-ms"},
		metricName{"setup.bootstrap_ref_ms", "ref-ms"},
		metricName{"verify.check_ref_ms", "ref-ms"},
		metricName{"go.allocs_per_op", "count"},
		metricName{"go.alloc_bytes_per_op", "bytes"},
		metricName{"go.gc_cycles_per_op", "count"},
		metricName{"go.gc_pause_ms_per_op", "ms"},
		metricName{"host.kernel_ms", "ms"},
		metricName{"host.raw_op_p50_ms", "ms"},
		metricName{"host.tracing_overhead", "ratio"},
	)
}
