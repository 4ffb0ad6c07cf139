package main

import (
	"fmt"
	"math/rand"
	"time"

	"spineless/internal/core"
	"spineless/internal/fluid"
	"spineless/internal/metrics"
	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

var fig5Workload = workloadDef{
	name: "fig5_capacity",
	why: "Fig 5 C-S throughput heatmaps at paper scale plus fluid FPTAS solves: flowsim, fluid and routing do the work " +
		"and netsim none, so a netsim change must leave it unchanged.",
	setup:   setupFig5,
	tailPct: 50, // 7 units per round, 5–6 rounds in 20 s: 35–42 units
}

type fig5Size struct {
	scale      int // heatmap fabrics: 0 = paper scale
	ticks      int // ticks per heatmap axis
	fluidScale int // fluid trio: core.ScaledFabrics factor
	eps        float64
}

var fig5Sizes = map[string]fig5Size{
	"full": {scale: 0, ticks: 5, fluidScale: 4, eps: 0.1},
	"tiny": {scale: 4, ticks: 3, fluidScale: 8, eps: 0.1},
}

type fig5Panel struct {
	Name   string `json:"name"`
	Scheme string `json:"dring_scheme"`
	Ticks  []int  `json:"ticks"`
	num    core.Combo
	den    core.Combo
}

type fig5Solve struct {
	Fabric  string `json:"fabric"`
	TM      string `json:"tm"`
	Demands int    `json:"demands"`
	g       *topology.Graph
	m       *workload.Matrix
	demands []fluid.Demand
}

type fig5Inputs struct {
	Fabrics      []string    `json:"fabrics"`
	Panels       []fig5Panel `json:"panels"`
	FlowsPerHost int         `json:"flows_per_host"`
	Solves       []fig5Solve `json:"fluid_solves"`
	Epsilon      float64     `json:"fluid_epsilon"`
}

type fig5Bench struct {
	in    fig5Inputs
	cfg   core.ThroughputConfig
	timed map[routing.Scheme]routing.Scheme
	to    foldTarget // where the wrapped schemes fold their calls
}

func setupFig5(seed int64, size string, _ *state, tr *tracer) (bench, error) {
	sz := fig5Sizes[size]
	fs, err := buildFabrics(sz.scale, seed, tr)
	if err != nil {
		return nil, err
	}
	b := &fig5Bench{cfg: core.DefaultThroughputConfig()}
	b.cfg.Seed = seed
	b.cfg.Workers = 1
	b.in.FlowsPerHost = b.cfg.FlowsPerHost
	b.in.Epsilon = sz.eps
	b.in.Fabrics = []string{fs.DRing.String(), fs.LeafSpine.String()}
	sp := tr.begin("routing.fib_build", -1, -1)
	ls, err := core.NewCombo("leaf-spine", fs.LeafSpine, "ecmp")
	if err != nil {
		return nil, err
	}
	// The tick grids of cmd/fig5: small values from hosts/150+1 to
	// hosts/12, large ones from hosts/15 to 45% of hosts, so C and S still
	// pack into disjoint rack sets.
	hostCap := min(fs.DRing.Servers(), fs.LeafSpine.Servers())
	grids := []struct {
		name  string
		ticks []int
	}{
		{"small", gridTicks(hostCap/150+1, hostCap/12, sz.ticks)},
		{"large", gridTicks(hostCap/15, hostCap*45/100, sz.ticks)},
	}
	drings := map[string]core.Combo{}
	for _, scheme := range []string{"ecmp", "su2"} {
		if drings[scheme], err = core.NewCombo("DRing", fs.DRing, scheme); err != nil {
			return nil, err
		}
	}
	for _, grid := range grids {
		for _, scheme := range []string{"ecmp", "su2"} {
			b.in.Panels = append(b.in.Panels, fig5Panel{Name: grid.name + "/" + scheme, Scheme: scheme,
				Ticks: grid.ticks, num: drings[scheme], den: ls})
		}
	}
	tr.end(sp)
	tr.add("routing.fib_builds", 3)
	if tr != nil {
		b.timed = map[routing.Scheme]routing.Scheme{}
		for _, p := range b.in.Panels {
			for _, c := range []core.Combo{p.num, p.den} {
				if b.timed[c.Scheme], err = wrapScheme(c.Scheme, &b.to); err != nil {
					return nil, err
				}
			}
		}
	}

	trio, err := buildFabrics(sz.fluidScale, seed, tr)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, g := range []*topology.Graph{trio.LeafSpine, trio.DRing, trio.RRG} {
		sp := tr.begin("workload.gen", -1, -1)
		m := workload.FBSkewed(len(g.Racks()), rng)
		tr.end(sp)
		sp = tr.begin("fluid.demands", -1, -1)
		d, err := fluid.MatrixDemands(g, m.W)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tr.add("fluid.demands", float64(len(d)))
		b.in.Solves = append(b.in.Solves, fig5Solve{Fabric: g.String(), TM: string(core.TMFBSkewed), Demands: len(d), g: g, m: m, demands: d})
	}
	return b, nil
}

// gridTicks spreads n ticks evenly over [lo, hi], as cmd/fig5 does.
func gridTicks(lo, hi, n int) []int {
	lo = max(lo, 1)
	if hi <= lo {
		hi = lo + n
	}
	out := make([]int, n)
	for i := range out {
		out[i] = lo + (hi-lo)*i/(n-1)
	}
	return out
}

func (b *fig5Bench) inputs() any  { return b.in }
func (b *fig5Bench) close() error { return nil }

// round computes each heatmap panel and each fluid solve; each is a unit.
func (b *fig5Bench) round(_ int, tr *tracer) []unit {
	var units []unit
	for i, p := range b.in.Panels {
		t0 := time.Now()
		h, err := b.heatmap(p, int32(i), tr)
		u := unit{key: "panel/" + p.Name, ms: msSince(t0), err: err}
		if err == nil {
			u.digest, u.err = digest(struct {
				Title  string
				XTicks []int
				YTicks []int
				CSV    string
			}{h.Title, h.XTicks, h.YTicks, h.CSV()})
		}
		units = append(units, u)
	}
	for i, s := range b.in.Solves {
		t0 := time.Now()
		sp := tr.begin("fluid.solve", -1, int32(len(b.in.Panels)+i))
		lambda, err := b.solve(s)
		tr.end(sp)
		u := unit{key: "fluid/" + s.Fabric, ms: msSince(t0), err: err}
		if err == nil {
			u.digest, u.err = digest(struct {
				Fabric string
				Lambda float64
			}{s.Fabric, lambda})
		}
		units = append(units, u)
	}
	return units
}

// solve is core.IdealThroughput with the demands built in set-up.
func (b *fig5Bench) solve(s fig5Solve) (float64, error) {
	return fluid.MaxConcurrentFlow(s.g, s.demands, fluid.Options{Epsilon: b.in.Epsilon})
}

// heatmap is core.CSRatioHeatmap on one worker, with each cell's two
// core.CSThroughput calls timed as flowsim cells.
func (b *fig5Bench) heatmap(p fig5Panel, unitID int32, tr *tracer) (*metrics.Heatmap, error) {
	num, den := p.num, p.den
	if tr != nil {
		num.Scheme, den.Scheme = b.timed[num.Scheme], b.timed[den.Scheme]
	}
	h := metrics.NewHeatmap(
		fmt.Sprintf("throughput(%s) / throughput(%s)", p.num.Label, p.den.Label),
		"#servers", "#clients", p.Ticks, p.Ticks)
	for yi, c := range p.Ticks {
		for xi, s := range p.Ticks {
			a, err := b.cell(num, c, s, unitID, tr)
			if err != nil {
				return nil, err
			}
			d, err := b.cell(den, c, s, unitID, tr)
			if err != nil {
				return nil, err
			}
			h.Set(xi, yi, metrics.Ratio(a, d))
		}
	}
	return h, nil
}

func (b *fig5Bench) cell(c core.Combo, clients, servers int, unitID int32, tr *tracer) (float64, error) {
	sp := tr.begin("flowsim.cell", -1, unitID)
	defer tr.end(sp)
	b.to = foldTarget{tr, sp}
	v, err := core.CSThroughput(c, clients, servers, b.cfg)
	if err != nil {
		return 0, fmt.Errorf("%s C=%d S=%d: %w", c.Label, clients, servers, err)
	}
	return v, nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
