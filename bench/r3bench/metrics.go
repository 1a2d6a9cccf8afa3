package main

import "strings"

// metricDef names a metric and its unit. The two tables below and
// BENCHMARK.json say the same thing; smoke_test.go holds them together.
type metricDef struct{ name, unit string }

// endToEnd is what every untraced run reports. bench/README.md explains
// each; the bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wait_ms", "ms"},
	{"serve_us", "us"},
	{"mlu", "ratio"},
	{"alloc_mb", "MB"},
}

// perLayer is what every traced run reports, named layer.metric after the
// internal/ packages. A layer that idles in a workload, and a stand-alone
// probe that belongs to another workload's traced run, read 0 there.
var perLayer = []metricDef{
	{"core.precompute_ms", "ms"},
	{"core.encode_ms", "ms"},
	{"core.encode_bytes", "bytes"},
	{"core.fw_epochs", "count"},
	{"core.fw_spf_calls", "count"},
	{"core.alloc_mb", "MB"},
	{"core.gc_cycles", "count"},
	{"core.worstload_topf_us", "us"},
	{"core.worstload_degrade_us", "us"},
	{"core.newstate_us", "us"},
	{"core.state_fail_us", "us"},
	{"core.state_degrade_us", "us"},
	{"core.verify_ms", "ms"},

	{"spf.tree_us", "us"},
	{"spf.dyn_update_us", "us"},
	{"spf.incremental_repairs", "count"},
	{"spf.full_fallbacks", "count"},
	{"spf.ecmp_ms", "ms"},
	{"spf.heap_tree_us_1k", "us"},
	{"spf.delta_tree_us_1k", "us"},

	{"par.foreach_ns_per_item", "ns"},
	{"par.fw_speedup_x", "x"},
	{"par.eval_speedup_x", "x"},

	{"lp.solves", "count"},
	{"lp.pivots", "count"},
	{"lp.refactorizations", "count"},
	{"lp.warm_starts", "count"},
	{"lp.recoveries", "count"},
	{"lp.us_per_pivot", "us"},

	{"mcf.exact_cold_ms", "ms"},
	{"mcf.exact_warm_ms", "ms"},
	{"mcf.fw_ms", "ms"},

	{"transition.swap_ms", "ms"},
	{"transition.swap_nocert_ms", "ms"},
	{"transition.rounds", "count"},
	{"transition.lp_solves", "count"},
	{"transition.best_effort", "count"},
	{"transition.schedule_ms", "ms"},

	{"mplsff.build_ms", "ms"},
	{"mplsff.diff_ms", "ms"},
	{"mplsff.delta_wire_bytes", "bytes"},
	{"mplsff.onfailure_us", "us"},
	{"mplsff.clone_ms", "ms"},
	{"mplsff.apply_round_us", "us"},

	{"controlplane.boot_ms", "ms"},
	{"controlplane.post_ack_us", "us"},
	{"controlplane.cache_hit_update_ms", "ms"},
	{"controlplane.rollback_us", "us"},
	{"controlplane.plan_get_us", "us"},
	{"controlplane.scenario_get_us", "us"},
	{"controlplane.plan_get_p99_us", "us"},
	{"controlplane.precomputes", "count"},
	{"controlplane.cache_hits", "count"},
	{"controlplane.cache_misses", "count"},
	{"controlplane.swaps", "count"},

	{"eval.evaluate_ms", "ms"},
	{"eval.scenarios", "count"},
	{"eval.shards", "count"},
	{"protect.ospf_us", "us"},
	{"protect.optimal_ms", "ms"},

	{"netem.run_ms", "ms"},
	{"netem.packets", "count"},
	{"netem.us_per_packet", "us"},
	{"netem.reconfig_p50_us", "us"},

	{"traffic.parse_us", "us"},
	{"traffic.format_us", "us"},
	{"traffic.gravity_ms", "ms"},
	{"topo.parse_us", "us"},

	{"obs.trace_overhead_pct", "%"},
	{"bench.calib_ms", "ms"},
}

// workload is one set of inputs: run measures the end-to-end metrics with
// tracing off, traced replays a shorter version with spans and counters on
// and runs the stand-alone probes assigned to it.
type workload struct {
	run, traced func(*run)
}

var workloadOrder = []string{"plan-protect-g100", "plan-degrade-sbc", "daemon-abilene", "replay"}

var workloads = map[string]workload{
	"plan-protect-g100": {
		run: func(r *run) { runPlan(r, protectG100(r)) },
		traced: func(r *run) {
			sp := protectG100(r)
			in, serialMS := tracePlan(r, sp)
			planProbes(r, sp, in, serialMS)
		},
	},
	"plan-degrade-sbc": {
		run:    func(r *run) { runPlan(r, degradeSBC(r)) },
		traced: func(r *run) { tracePlan(r, degradeSBC(r)) },
	},
	"daemon-abilene": {run: runDaemon, traced: traceDaemon},
	"replay":         {run: runReplay, traced: traceReplay},
}

func workloadNames() string { return strings.Join(workloadOrder, "|") }
