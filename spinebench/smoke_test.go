package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"spineless/internal/core"
)

// TestSmokeEveryWorkload runs each workload on tiny inputs, untraced and
// traced, and checks the result line the contract asks for.
func TestSmokeEveryWorkload(t *testing.T) {
	st := &state{dir: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				o := options{seed: 3, seconds: 0.3, traced: traced, size: "tiny", st: st}
				rep, err := measure(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if err := rep.write(o); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := rep.emit(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := []string{"setup_s", "wall_s", "unit_ms_p50", "unit_ms_tail", "units_per_s", "peak_rss_mb"}
				if traced {
					want = want[:0]
					for _, d := range perLayer {
						want = append(want, d.name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, name := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if rep.Tail.Pct != w.tailPct {
					t.Errorf("unit_ms_tail at p%v, want the workload's fixed p%v", rep.Tail.Pct, w.tailPct)
				}
			})
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig4_fct", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// TestFig4CellsMatchRunFCT pins the workload's split of core.RunFCT (flows
// in set-up, netsim in the timed body) to RunFCT's own output.
func TestFig4CellsMatchRunFCT(t *testing.T) {
	const seed = 5
	fs, err := core.ScaledFabrics(4, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	combos, err := core.PaperCombos(fs)
	if err != nil {
		t.Fatal(err)
	}
	b := &fig4Bench{cfg: fig4Config(seed, 0)}
	for _, c := range combos[:2] {
		for _, tm := range []core.TMKind{core.TMFBSkewed, core.TMR2R} {
			cfg := fig4Config(seed, 0.0005)
			flows, err := fig4Flows(fs, c, tm, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.runCell(c, c.Scheme, fig4Cell{TM: tm, flows: flows}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.RunFCT(fs, c, tm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Flows != want.Flows || got.Stats != want.Stats || got.SimStats != want.SimStats {
				t.Errorf("%s × %s: got %+v %+v, RunFCT %+v %+v", c.Label, tm, got.Stats, got.SimStats, want.Stats, want.SimStats)
			}
		}
	}
}

// TestFig5MatchesCore pins the workload's heatmap loop and fluid split to
// core.CSRatioHeatmap and core.IdealThroughput.
func TestFig5MatchesCore(t *testing.T) {
	const seed = 2
	bi, err := setupFig5(seed, "tiny", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := bi.(*fig5Bench)
	for _, p := range b.in.Panels {
		got, err := b.heatmap(p, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.CSRatioHeatmap(p.num, p.den, p.Ticks, p.Ticks, b.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.CSV() != want.CSV() || got.Title != want.Title {
			t.Errorf("%s: heatmap differs from core.CSRatioHeatmap", p.Name)
		}
	}
	for _, s := range b.in.Solves {
		got, err := b.solve(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.IdealThroughput(s.g, s.m, b.in.Epsilon)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: λ %v, core.IdealThroughput %v", s.Fabric, got, want)
		}
	}
}
