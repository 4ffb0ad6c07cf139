package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"spineless/internal/core"
	"spineless/internal/metrics"
	"spineless/internal/netsim"
	"spineless/internal/parallel"
	"spineless/internal/routing"
	"spineless/internal/workload"
)

var fig4Workload = workloadDef{
	name: "fig4_fct",
	why: "Packet-level Fig 4 FCT cells on the paper-scale leaf-spine/DRing/RRG trio: netsim does over 99% of the work, " +
		"so event-queue and TCP-handler changes show here.",
	setup:   setupFig4,
	tailPct: 50, // 5 combos per round, about 4 rounds in 20 s: 20 units
}

// fig4Size fixes one input size of the workload. Windows are shorter than
// the paper's 20 ms so a round of all ten cells fits a run; FB-skewed keeps
// full participation and a deep event heap, R2R keeps the flat+ECMP RTO
// collapse (about 9k RTOs per DRing-ECMP cell).
//
// Flow sizes are the paper's Pareto (mean 100 KB, alpha 1.05) capped at
// 1 MB instead of 1 GB. Under the paper's cap a single rare flow can carry
// most of a cell's bytes, so a cell's work swings by an order of magnitude
// from seed to seed and no run length makes the timing repeat.
type fig4Size struct {
	scale     int // 0 = paper-scale fabrics, else core.ScaledFabrics factor
	tms       []core.TMKind
	windowSec map[core.TMKind]float64
}

var fig4Sizes = map[string]fig4Size{
	"full": {scale: 0, tms: []core.TMKind{core.TMFBSkewed, core.TMR2R},
		windowSec: map[core.TMKind]float64{core.TMFBSkewed: 0.0004, core.TMR2R: 0.005}},
	"tiny": {scale: 4, tms: []core.TMKind{core.TMFBSkewed, core.TMR2R},
		windowSec: map[core.TMKind]float64{core.TMFBSkewed: 0.0005, core.TMR2R: 0.002}},
}

type fig4Cell struct {
	TM     core.TMKind `json:"tm"`
	Seed   int64       `json:"seed"`
	Window float64     `json:"window_sec"`
	Flows  int         `json:"flows"`
	flows  []workload.Flow
}

type fig4Inputs struct {
	Fabrics []string     `json:"fabrics"`
	Sizes   string       `json:"flow_sizes"`
	Combos  []string     `json:"combos"`
	Cells   [][]fig4Cell `json:"cells"` // [combo][tm]
	Engine  string       `json:"engine"`
}

type fig4Bench struct {
	combos []core.Combo
	timed  []routing.Scheme // combos' schemes wrapped for traced rounds
	to     foldTarget       // where the wrapped schemes fold their calls
	cfg    core.FCTConfig
	in     fig4Inputs
}

// fig4SizeCapBytes caps the paper's flow-size distribution (see fig4Size).
const fig4SizeCapBytes = 1e6

// fig4Config is the FCT configuration of every cell: the paper defaults
// (fig4's own) with the workload's window and flow-size cap.
func fig4Config(seed int64, window float64) core.FCTConfig {
	cfg := core.DefaultFCTConfig()
	cfg.Seed = seed
	cfg.WindowSec = window
	cfg.Sizes = workload.Pareto{MeanBytes: 100e3, Alpha: 1.05, Cap: fig4SizeCapBytes}
	return cfg
}

func setupFig4(seed int64, size string, _ *state, tr *tracer) (bench, error) {
	sz := fig4Sizes[size]
	fs, err := buildFabrics(sz.scale, seed, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("routing.fib_build", -1, -1)
	combos, err := core.PaperCombos(fs)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.add("routing.fib_builds", float64(len(combos)))
	b := &fig4Bench{combos: combos, cfg: fig4Config(seed, 0)}
	b.in.Engine = "serial"
	b.in.Sizes = fmt.Sprintf("%+v", b.cfg.Sizes)
	for _, g := range []fmt.Stringer{fs.LeafSpine, fs.DRing, fs.RRG} {
		b.in.Fabrics = append(b.in.Fabrics, g.String())
	}
	for i, c := range combos {
		b.in.Combos = append(b.in.Combos, c.Label)
		var row []fig4Cell
		for j, tm := range sz.tms {
			// Each cell draws from its own seed, so a round sums ten
			// independent draws and its work varies less between seeds.
			cellSeed := parallel.DeriveSeed(seed, i*len(sz.tms)+j)
			flows, err := fig4Flows(fs, c, tm, fig4Config(cellSeed, sz.windowSec[tm]), tr)
			if err != nil {
				return nil, fmt.Errorf("%s × %s: %w", c.Label, tm, err)
			}
			row = append(row, fig4Cell{TM: tm, Seed: cellSeed, Window: sz.windowSec[tm], Flows: len(flows), flows: flows})
		}
		b.in.Cells = append(b.in.Cells, row)
		if tr != nil {
			ts, err := wrapScheme(c.Scheme, &b.to)
			if err != nil {
				return nil, err
			}
			b.timed = append(b.timed, ts)
		}
	}
	return b, nil
}

// buildFabrics builds the paper-scale trio (scale 0) or a scaled one, from
// the seed, as cmd/fig4 and cmd/fig5 do.
func buildFabrics(scale int, seed int64, tr *tracer) (*core.FabricSet, error) {
	sp := tr.begin("topology.build", -1, -1)
	defer tr.end(sp)
	rng := rand.New(rand.NewSource(seed))
	if scale == 0 {
		return core.PaperFabrics(rng)
	}
	return core.ScaledFabrics(scale, rng)
}

// fig4Flows draws a cell's traffic exactly as core.RunFCT does for a
// single trial (same rng stream: TM first, then flows), so the timed body
// can run netsim alone on pre-generated flows.
func fig4Flows(fs *core.FabricSet, c core.Combo, tm core.TMKind, cfg core.FCTConfig, tr *tracer) ([]workload.Flow, error) {
	sp := tr.begin("workload.gen", -1, -1)
	defer tr.end(sp)
	rng := rand.New(rand.NewSource(cfg.Seed))
	m, placement, err := core.BuildTM(tm, c.Fabric, rng)
	if err != nil {
		return nil, err
	}
	capacity := workload.SpineCapacityBps(fs.LeafSpineSpec, cfg.Net.LinkRateBps)
	load := cfg.Util * workload.ParticipationScale(m)
	count := max(workload.FlowCountForLoad(capacity, load, cfg.Sizes.Mean(), cfg.WindowSec), 1)
	flows, err := workload.GenerateFlows(c.Fabric, m, workload.GenConfig{
		Flows:     count,
		Sizes:     cfg.Sizes,
		WindowNS:  int64(cfg.WindowSec * 1e9),
		Placement: placement,
	}, rng)
	tr.add("workload.flows", float64(len(flows)))
	return flows, err
}

func (b *fig4Bench) inputs() any  { return b.in }
func (b *fig4Bench) close() error { return nil }

// fig4Out is the checked output of one cell: what core.RunFCT reports.
type fig4Out struct {
	Combo    string
	TM       core.TMKind
	Flows    int
	Stats    metrics.FCTStats
	SimStats netsim.Stats
}

// round runs every combo's cells on the serial engine, one at a time. A
// unit is one combo: its FB-skewed and R2R cells.
func (b *fig4Bench) round(_ int, tr *tracer) []unit {
	units := make([]unit, len(b.combos))
	for i, c := range b.combos {
		scheme := c.Scheme
		if tr != nil {
			scheme = b.timed[i]
		}
		t0 := time.Now()
		var outs []fig4Out
		var err error
		for _, cell := range b.in.Cells[i] {
			var o fig4Out
			o, err = b.runCell(c, scheme, cell, int32(i), tr)
			if err != nil {
				break
			}
			outs = append(outs, o)
		}
		u := unit{key: c.Label, ms: float64(time.Since(t0).Nanoseconds()) / 1e6, err: err}
		if err == nil {
			u.digest, u.err = digest(outs)
		}
		units[i] = u
	}
	return units
}

func (b *fig4Bench) runCell(c core.Combo, scheme routing.Scheme, cell fig4Cell, unitID int32, tr *tracer) (fig4Out, error) {
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	sp := tr.begin("netsim.run", -1, unitID)
	b.to = foldTarget{tr, sp}
	sim, err := netsim.New(c.Fabric, scheme, b.cfg.Net)
	var res netsim.Results
	if err == nil {
		res, err = sim.Run(cell.flows)
	}
	tr.end(sp)
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		tr.add("netsim.allocs", float64(ms1.Mallocs-ms0.Mallocs))
		tr.add("netsim.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		addSimStats(tr, res.Stats)
	}
	if err != nil {
		return fig4Out{}, fmt.Errorf("%s × %s: %w", c.Label, cell.TM, err)
	}
	if res.Completed != len(cell.flows) {
		return fig4Out{}, fmt.Errorf("%s × %s: %d of %d flows completed", c.Label, cell.TM, res.Completed, len(cell.flows))
	}
	return fig4Out{Combo: c.Label, TM: cell.TM, Flows: len(cell.flows),
		Stats: metrics.SummarizeFCT(res.FCTNS), SimStats: res.Stats}, nil
}

func addSimStats(tr *tracer, st netsim.Stats) {
	tr.add("netsim.events", float64(st.Events))
	tr.add("netsim.data_packets", float64(st.DataPackets))
	tr.add("netsim.retransmits", float64(st.Retransmits))
	tr.add("netsim.timeouts", float64(st.Timeouts))
	tr.add("netsim.drops", float64(st.Drops))
}
