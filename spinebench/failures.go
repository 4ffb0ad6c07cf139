package main

import (
	"fmt"
	"math/rand"
	"time"

	"spineless/internal/bgp"
	"spineless/internal/parallel"
	"spineless/internal/resilience"
	"spineless/internal/routing"
	"spineless/internal/topology"
)

var failuresWorkload = workloadDef{
	name: "failures_control",
	why: "The §7 static failure study on the paper-scale DRing without packet replay: BGP reconvergence and FIB " +
		"rebase do the work, and the routing layer written here is the one fig4_fct reads.",
	setup:   setupFailures,
	tailPct: 90, // 24 trials per round, 20–24 rounds in 20 s: 480–576 units
}

type failuresSize struct {
	scale     int
	trials    int
	fractions []float64
	samples   int // rack pairs CompareDiversity samples per trial
}

var failuresSizes = map[string]failuresSize{
	"full": {scale: 0, trials: 24, fractions: []float64{0.01, 0.05, 0.10}, samples: 64},
	"tiny": {scale: 4, trials: 6, fractions: []float64{0.01, 0.05, 0.10}, samples: 16},
}

const failuresK = 2 // shortest-union(2), the paper's scheme and resilience.Study's default

type failuresTrial struct {
	Fraction float64 `json:"fraction"`
	Seed     int64   `json:"seed"`
}

type failuresInputs struct {
	Fabric  string          `json:"fabric"`
	K       int             `json:"k"`
	Samples int             `json:"diversity_samples"`
	Trials  []failuresTrial `json:"trials"`
}

type failuresBench struct {
	g       *topology.Graph
	baseFib *routing.Fib
	baseRib bgp.Rib
	to      foldTarget // where the wrapped schemes fold their calls
	in      failuresInputs
}

func setupFailures(seed int64, size string, _ *state, tr *tracer) (bench, error) {
	sz := failuresSizes[size]
	fs, err := buildFabrics(sz.scale, seed, tr)
	if err != nil {
		return nil, err
	}
	g := fs.DRing
	b := &failuresBench{g: g, in: failuresInputs{Fabric: g.String(), K: failuresK, Samples: sz.samples}}
	sp := tr.begin("routing.fib_build", -1, -1)
	b.baseFib, err = routing.NewShortestUnion(g, failuresK)
	tr.end(sp)
	tr.add("routing.fib_builds", 1)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("bgp.build", -1, -1)
	net, err := bgp.Build(g, failuresK)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("bgp.converge", -1, -1)
	rib, rounds, err := net.Converge()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.add("bgp.converge_rounds", float64(rounds))
	b.baseRib = rib
	for t := 0; t < sz.trials; t++ {
		b.in.Trials = append(b.in.Trials, failuresTrial{
			Fraction: sz.fractions[t%len(sz.fractions)],
			Seed:     parallel.DeriveSeed(seed, t),
		})
	}
	return b, nil
}

func (b *failuresBench) inputs() any  { return b.in }
func (b *failuresBench) close() error { return nil }

// failuresRow is a trial's checked output: resilience.StudyRow without the
// packet replay.
type failuresRow struct {
	Fraction     float64
	FailedLinks  int
	Connected    bool
	Paths        resilience.PathReport
	Diversity    resilience.DiversityReport
	ReconvRounds int
}

func (b *failuresBench) round(_ int, tr *tracer) []unit {
	units := make([]unit, len(b.in.Trials))
	for i, t := range b.in.Trials {
		t0 := time.Now()
		row, err := b.trial(t, int32(i), tr)
		u := unit{key: fmt.Sprintf("trial/%d", i), ms: msSince(t0), err: err}
		if err == nil {
			u.digest, u.err = digest(row)
		}
		units[i] = u
	}
	return units
}

// trial fails a random link set and measures the damage the way
// resilience.Study does for one fraction: dilation, FIB rebase, path
// diversity, and incremental BGP reconvergence from the base RIB, whose
// result must still satisfy Theorem 1.
func (b *failuresBench) trial(t failuresTrial, unitID int32, tr *tracer) (failuresRow, error) {
	rng := rand.New(rand.NewSource(t.Seed))
	row := failuresRow{Fraction: t.Fraction}
	sp := tr.begin("resilience.fail", -1, unitID)
	failed, failures, err := resilience.FailRandomLinks(b.g, t.Fraction, rng)
	tr.end(sp)
	if err != nil {
		return row, err
	}
	row.FailedLinks = len(failures)
	row.Connected = failed.Connected()

	sp = tr.begin("resilience.compare_paths", -1, unitID)
	row.Paths, err = resilience.ComparePaths(b.g, failed)
	tr.end(sp)
	if err != nil || !row.Connected {
		return row, err
	}

	sp = tr.begin("routing.rebase", -1, unitID)
	failedFib, err := b.baseFib.Rebase(failed)
	tr.end(sp)
	if err != nil {
		return row, err
	}
	var before, after routing.Scheme = b.baseFib, failedFib
	sp = tr.begin("resilience.diversity", -1, unitID)
	if tr != nil {
		b.to = foldTarget{tr, sp}
		if before, err = wrapScheme(before, &b.to); err != nil {
			return row, err
		}
		if after, err = wrapScheme(after, &b.to); err != nil {
			return row, err
		}
	}
	row.Diversity = resilience.CompareDiversity(b.g, failed, before, after, b.in.Samples, 0, rng)
	tr.end(sp)

	sp = tr.begin("bgp.trial_build", -1, unitID)
	failedNet, err := bgp.Build(failed, failuresK)
	tr.end(sp)
	if err != nil {
		return row, err
	}
	dirty := make([]int, 0, 2*len(failures))
	for _, fl := range failures {
		dirty = append(dirty, fl.A, fl.B)
	}
	sp = tr.begin("bgp.reconverge", -1, unitID)
	rib, rounds, err := failedNet.ConvergeDirty(b.baseRib, dirty)
	tr.end(sp)
	if err != nil {
		return row, err
	}
	tr.add("bgp.reconverge_rounds", float64(rounds))
	row.ReconvRounds = rounds
	sp = tr.begin("bgp.verify", -1, unitID)
	err = bgp.VerifyTheorem1(failedNet, rib)
	tr.end(sp)
	return row, err
}
