package main

import (
	"math"
	"strings"
)

type metricDef struct{ name, unit string }

// perLayer lists the traced run's metrics, by the program's module names.
// A layer a workload never calls reports 0. Time metrics ending in _ms are
// the layer's self time summed over one round of the fixed input (or one
// set-up, for set-up layers), except where noted as per call; counts are
// per round. Each is the median over the run's traced rounds or set-ups.
var perLayer = []metricDef{
	{"topology.build_ms", "ms"},
	{"workload.gen_ms", "ms"},
	{"workload.flows", "count"},
	{"routing.fib_build_ms", "ms"},
	{"routing.fib_builds", "count"},
	{"routing.rebase_ms", "ms"},
	{"routing.rebases", "count"},
	{"routing.path_calls", "count"},
	{"routing.path_ns_mean", "ns"},
	{"routing.pathset_calls", "count"},
	{"routing.pathset_ms", "ms"},
	{"netsim.run_ms", "ms"},
	{"netsim.events", "count"},
	{"netsim.ns_per_event", "ns"},
	{"netsim.allocs", "count"},
	{"netsim.alloc_mb", "MB"},
	{"netsim.data_packets", "count"},
	{"netsim.retransmits", "count"},
	{"netsim.timeouts", "count"},
	{"netsim.drops", "count"},
	{"netsim.retx_ratio", "ratio"},
	{"flowsim.cell_ms", "ms"}, // per heatmap cell
	{"flowsim.cells", "count"},
	{"fluid.solve_ms", "ms"}, // per solve
	{"fluid.solves", "count"},
	{"fluid.demands", "count"},
	{"bgp.build_ms", "ms"},
	{"bgp.converge_ms", "ms"},
	{"bgp.converge_rounds", "count"},
	{"bgp.trial_build_ms", "ms"},
	{"bgp.reconverge_ms", "ms"},
	{"bgp.reconverge_rounds", "count"}, // per reconvergence
	{"bgp.reconverges", "count"},
	{"bgp.verify_ms", "ms"},
	{"resilience.fail_ms", "ms"},
	{"resilience.compare_paths_ms", "ms"},
	{"resilience.diversity_ms", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.result_ms_p50", "ms"},
	{"serve.status_polls", "count"}, // per miss
	{"serve.hit_ms_p50", "ms"},
	{"serve.hit_ms_tail", "ms"},
	{"serve.miss_ms_p50", "ms"},
	{"serve.miss_ms_tail", "ms"},
	{"jobs.busy_s", "s"},
	{"jobs.wait_ms", "ms"},
	{"jobs.cache_hits", "count"},
	{"jobs.cache_misses", "count"},
	{"jobs.deduped", "count"},
	{"jobs.shed", "count"},
	{"jobs.rejected", "count"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.puts", "count"},
	{"store.bytes", "B"},
	{"store.entries", "count"},
	{"store.get_us", "us"},
	{"store.put_ms", "ms"},
	{"telemetry.observed_miss_ms_p50", "ms"},
	{"telemetry.plain_miss_ms_p50", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// setupLayer reports whether metric name is measured during set-up rather
// than in the timed rounds.
func setupLayer(name string) bool {
	switch name {
	case "topology.build_ms", "workload.gen_ms", "workload.flows", "routing.fib_build_ms",
		"routing.fib_builds", "fluid.demands", "bgp.build_ms", "bgp.converge_ms", "bgp.converge_rounds":
		return true
	}
	return false
}

// perCallSpans are reported as mean self time per call instead of a total.
var perCallSpans = map[string]bool{"flowsim.cell": true, "fluid.solve": true}

// countedSpans are also reported as a call count, under the given name.
// (FIB builds are counted by the caller: one span may build several.)
var countedSpans = map[string]string{
	"routing.rebase": "routing.rebases",
	"flowsim.cell":   "flowsim.cells",
	"fluid.solve":    "fluid.solves",
	"bgp.reconverge": "bgp.reconverges",
}

// layerMetrics turns one round's (or one set-up's) spans and counters into
// per-layer metrics.
func layerMetrics(spans []span, counters map[string]float64) map[string]float64 {
	m := map[string]float64{}
	self := selfTimes(spans)
	calls := map[string]int{}
	for _, s := range spans {
		if s.End >= 0 {
			calls[s.Name]++
		}
	}
	for name, ns := range self {
		v := float64(ns) / 1e6
		if perCallSpans[name] {
			v /= float64(calls[name])
		}
		m[name+"_ms"] = v
		if c, ok := countedSpans[name]; ok {
			m[c] = float64(calls[name])
		}
	}
	for name, v := range counters {
		if !strings.HasPrefix(name, "routing.path") {
			m[name] = v
		}
	}
	m["routing.path_calls"] = counters["routing.path.calls"]
	m["routing.path_ns_mean"] = ratio(counters["routing.path.ns"], counters["routing.path.calls"])
	m["routing.pathset_calls"] = counters["routing.pathset.calls"]
	m["routing.pathset_ms"] = counters["routing.pathset.ns"] / 1e6
	m["netsim.ns_per_event"] = ratio(float64(self["netsim.run"]), counters["netsim.events"])
	m["netsim.retx_ratio"] = ratio(counters["netsim.retransmits"], counters["netsim.data_packets"])
	m["bgp.reconverge_rounds"] = ratio(counters["bgp.reconverge_rounds"], m["bgp.reconverges"])
	return m
}

// medianLayers reports each per-layer metric as its median over set-ups or
// traced rounds, whichever phase measures it.
func medianLayers(setups, rounds []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		src := rounds
		if setupLayer(d.name) {
			src = setups
		}
		xs := make([]float64, len(src))
		for i, m := range src {
			xs[i] = m[d.name]
		}
		if v := median(xs); !math.IsNaN(v) {
			out[d.name] = v
		} else {
			out[d.name] = 0
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
