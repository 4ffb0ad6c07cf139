package main

import "testing"

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "serve.request", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "serve.submit", ID: 1, Parent: 0, Start: 10, End: 40},
		// Overlaps the submit span: the union 10..50 is covered, not 30+30.
		{Name: "serve.status", ID: 2, Parent: 0, Start: 20, End: 50},
		// A grandchild only reduces its own parent.
		{Name: "store.get", ID: 3, Parent: 2, Start: 25, End: 35},
		// Children outside the parent's interval are clipped.
		{Name: "serve.result", ID: 4, Parent: 0, Start: 90, End: 120},
		{Name: "netsim.run", ID: 5, Parent: -1, Start: 200, End: 300, Inner: 40},
		{Name: "open", ID: 6, Parent: -1, Start: 300, End: -1},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"serve.request": 100 - 40 - 10,
		"serve.submit":  30,
		"serve.status":  30 - 10,
		"store.get":     10,
		"serve.result":  30,
		"netsim.run":    100 - 40,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: self %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an open span has a self time")
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	tr.add("c", 1)
	tr.fold(id, "routing.path", 5)
	if id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestLayerMetricsFromSpans(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "netsim.run", ID: 0, Parent: -1, Start: 0, End: 2e6, Inner: 1e6},
		{Name: "flowsim.cell", ID: 1, Parent: -1, Start: 0, End: 4e6},
		{Name: "flowsim.cell", ID: 2, Parent: -1, Start: 0, End: 2e6},
	}
	tr.add("netsim.events", 1000)
	tr.add("netsim.data_packets", 200)
	tr.add("netsim.retransmits", 10)
	tr.fold(-1, "routing.path", 300)
	tr.fold(-1, "routing.path", 100)
	spans, counters := tr.snapshot()
	m := layerMetrics(spans, counters)
	for name, want := range map[string]float64{
		"netsim.run_ms":        1,
		"netsim.ns_per_event":  1000,
		"netsim.retx_ratio":    0.05,
		"flowsim.cell_ms":      3, // per call
		"flowsim.cells":        2,
		"routing.path_calls":   2,
		"routing.path_ns_mean": 200,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}
