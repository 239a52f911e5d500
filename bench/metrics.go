package main

import "samr/internal/apps"

// metricDef declares one metric of BENCHMARK.json. The manifest is
// printed from these tables (-manifest) and a test holds the committed
// file to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression.
	Bound float64
	// Exact marks a per-layer count that must repeat exactly between
	// two runs of the same code with the same seed.
	Exact bool
}

// endToEnd is what a user of the system sees. An operation is one HTTP
// request of a service workload, or one whole pass (trace generation
// plus every figure) of paper-pipeline.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func exact(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better, Exact: true}
	}
	return out
}

func perApp(prefix string) []string {
	out := make([]string, len(apps.Names))
	for i, a := range apps.Names {
		out[i] = prefix + a
	}
	return out
}

func experimentMetrics() []string {
	out := make([]string, len(experimentNames))
	for i, n := range experimentNames {
		out[i] = "experiments." + n + "_ms"
	}
	return out
}

// perLayer lists every per-layer metric. A traced run prints all of
// them; one that the workload does not exercise reads 0.
var perLayer = concat(
	// paper-pipeline: the wall time of its two child processes
	lower("s", "pipeline.tracegen_s", "pipeline.figures_s"),
	// paper-pipeline: the tracegen child
	lower("s", perApp("apps.generate_s.")...),
	lower("ms", "amr.advance_p50_ms", "amr.advance_max_ms", "trace.write_ms", "trace.read_ms"),
	exact("B", "lower", "trace.bytes"),
	exact("count", "lower", "trace.snapshots"),
	exact("boxes", "lower", "trace.boxes_mean"),
	// paper-pipeline: the layers children
	lower("us", "core.penalties_us_per_snap", "core.select_us_per_snap",
		"partition.domain_cold_us", "partition.domain_warm_us", "partition.patch_us",
		"partition.hybrid_cold_us", "partition.hybrid_warm_us", "partition.postmap_us"),
	exact("count", "lower", "partition.fragments_per_snap", "partition.chain_misses"),
	exact("count", "higher", "partition.chain_hits"),
	lower("us", "sim.evaluate_us_per_snap", "sim.migration_us_per_pair"),
	lower("ms", "sim.simulate_cold_ms", "sim.simulate_warm_ms"),
	exact("count", "higher", "sim.memo_partitions", "sim.memo_evaluations", "sim.memo_migrations"),
	// paper-pipeline: the figures child
	lower("ms", experimentMetrics()...),
	// service workloads: stages replayed through the layers' functions
	lower("us", "partition.compute_us", "partition.loads_us", "wire.req_decode_us", "wire.resp_encode_us"),
	exact("B", "lower", "wire.req_bytes", "wire.resp_bytes"),
	exact("count", "lower", "wire.fragments_per_resp"),
	lower("us", "grid.validate_us", "grid.signature_us", "grid.delta_us"),
	exact("ratio", "higher", "grid.delta_keep_ratio"),
	lower("us", "memo.hit_us", "memo.miss_insert_us"),
	lower("ns", "admit.admit_ns"),
	lower("us", "tier.encode_us", "tier.decode_us", "tier.disk_put_us", "tier.disk_get_us"),
	lower("ns", "tier.ring_owner_ns"),
	exact("B", "lower", "tier.blob_bytes"),
	// service workloads: the daemons' own counters, /v1/stats after - before
	exact("count", "higher", "memo.hits"),
	exact("count", "lower", "memo.misses", "memo.shared"),
	exact("ratio", "higher", "memo.hit_ratio"),
	exact("count", "higher", "unit_chains.hits"),
	exact("count", "lower", "unit_chains.misses"),
	exact("count", "lower", "sessions.created", "sessions.steps", "admission.admitted", "admission.shed"),
	exact("count", "lower", "tier.lookups", "tier.misses", "tier.stores", "tier.store_errors",
		"tier.peer_gets", "tier.peer_puts", "tier.peer_failures", "tier.corrupt"),
	exact("count", "higher", "tier.disk_hits", "tier.peer_hits"),
	// service workloads: the same requests through an in-process server
	lower("us", "server.handler_us", "server.residual_us", "http.overhead_us"),
	// service workloads: client-side latency by kind of request
	lower("ms", "sessions.create_p50_ms"),
	lower("ms", perApp("sessions.step_p50_ms.")...),
	lower("ms", "fleet.miss_p50_ms", "fleet.tier_p50_ms"),
	exact("ratio", "higher", "fleet.tier_served_ratio"),
	// harness health
	lower("s", "proc.cpu_s"),
	lower("ratio", "trace_overhead_ratio"),
)

func concat(lists ...[]metricDef) []metricDef {
	var out []metricDef
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is BENCHMARK.json's run_seconds and the default -seconds.
const runSeconds = 10

func workloadNames() []manifestLoad {
	out := []manifestLoad{{Name: "paper-pipeline", Why: pipelineWhy}}
	for _, w := range serviceWorkloads {
		out = append(out, manifestLoad{Name: w.name, Why: w.why})
	}
	return out
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadNames(),
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
