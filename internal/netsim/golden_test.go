package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spineless/internal/faults"
	"spineless/internal/routing"
	"spineless/internal/topology"
	"spineless/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata/golden digests")

// goldenCase is one small pinned simulation: its Results, serialized as
// canonical JSON, must hash to the digest in testdata/golden/<name>.sha256.
type goldenCase struct {
	name string
	run  func(t *testing.T) Results
}

// goldenFlows draws n Pareto-sized flows from matrix m over a window.
func goldenFlows(t *testing.T, g *topology.Graph, m *workload.Matrix, n int, window time.Duration, seed int64) []workload.Flow {
	t.Helper()
	flows, err := workload.GenerateFlows(g, m, workload.GenConfig{
		Flows:    n,
		Sizes:    workload.Pareto{MeanBytes: 40e3, Alpha: 1.05, Cap: 400e3},
		WindowNS: int64(window),
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return flows
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"a2a_leafspine_ecmp", func(t *testing.T) Results {
			g, err := topology.LeafSpine(topology.LeafSpineSpec{X: 4, Y: 2})
			if err != nil {
				t.Fatal(err)
			}
			flows := goldenFlows(t, g, workload.Uniform(len(g.Racks())), 400, 500*time.Microsecond, 1)
			return runFlows(t, g, routing.NewECMP(g), DefaultConfig(), flows)
		}},
		{"r2r_dring_ecmp", func(t *testing.T) Results {
			// Every flow between two racks overloads the few ECMP paths:
			// drops and retransmission timeouts dominate.
			g, err := topology.DRing(topology.Uniform(6, 2, 12))
			if err != nil {
				t.Fatal(err)
			}
			flows := goldenFlows(t, g, workload.RackToRack(len(g.Racks()), 0, 5), 400, time.Millisecond, 2)
			res := runFlows(t, g, routing.NewECMP(g), DefaultConfig(), flows)
			if res.Stats.Timeouts == 0 {
				t.Fatal("R2R golden run hit no RTO; it no longer covers the timer path")
			}
			return res
		}},
		{"faults_leafspine", func(t *testing.T) Results {
			// A cut leaf-spine link repaired by a reroute and later restored,
			// plus a gray link that loses packets and runs at half rate, so
			// its tx times match no nominal serialization delay.
			g, err := topology.LeafSpine(topology.LeafSpineSpec{X: 4, Y: 2})
			if err != nil {
				t.Fatal(err)
			}
			degraded := g.Clone()
			degraded.RemoveLink(0, 6)
			tv, err := routing.NewTimeVarying(
				routing.Phase{StartNS: 0, Scheme: routing.NewECMP(g)},
				routing.Phase{StartNS: 1_500_000, Scheme: routing.NewECMP(degraded)},
				routing.Phase{StartNS: 3_500_000, Scheme: routing.NewECMP(g)},
			)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.HostRateBps = 25e9
			cfg.HostDelayNS = 500
			sim, err := New(g, tv, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sched := &faults.Schedule{Seed: 5}
			sched.Cut(1_000_000, 0, 6)
			sched.Restore(3_000_000, 0, 6)
			sched.Gray(500_000, 1, 7, 0.02, 0.5)
			sched.ClearGray(4_000_000, 1, 7)
			if err := sim.InstallFaults(sched); err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(goldenFlows(t, g, workload.Uniform(len(g.Racks())), 200, 3*time.Millisecond, 3))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Blackholed == 0 || res.Stats.GrayDrops == 0 || res.Stats.Reroutes == 0 {
				t.Fatalf("fault golden run lost its fault coverage: %+v", res.Stats)
			}
			return res
		}},
		{"ecn_flowlet_dring", func(t *testing.T) Results {
			g, err := topology.DRing(topology.Uniform(6, 2, 12))
			if err != nil {
				t.Fatal(err)
			}
			su2, err := routing.NewShortestUnion(g, 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig().WithDCTCP().WithFlowlets(20 * time.Microsecond)
			flows := goldenFlows(t, g, workload.Uniform(len(g.Racks())), 200, 2*time.Millisecond, 4)
			res := runFlows(t, g, su2, cfg, flows)
			if res.Stats.ECNMarks == 0 || res.Stats.FlowletSwitches == 0 {
				t.Fatalf("ECN/flowlet golden run lost its coverage: %+v", res.Stats)
			}
			return res
		}},
	}
}

// TestGoldenDigests pins the simulator's output byte for byte: any change
// to event ordering, TCP behavior or accounting moves a digest. Regenerate
// with `go test ./internal/netsim -run Golden -update` only after deciding
// the new output is right, and record the move in CHANGES.md.
func TestGoldenDigests(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			res := c.run(t)
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			got := hex.EncodeToString(sum[:])
			t.Logf("events %d, completed %d, end %d ns, stats %+v", res.Stats.Events, res.Completed, res.EndNS, res.Stats)
			path := filepath.Join("testdata", "golden", c.name+".sha256")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if got != strings.TrimSpace(string(want)) {
				t.Fatalf("digest %s, want %s", got, strings.TrimSpace(string(want)))
			}
		})
	}
}
