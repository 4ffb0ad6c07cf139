// Command spinebench is the repository's benchmark: it runs one workload of
// the spineless reproduction for a fixed time, checks every output against
// digests, and prints end-to-end metrics (untraced run) or per-layer
// metrics (traced run). See README.md for the workloads and metrics, and
// run.sh for the entry point that builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run sets its workload up at least minSetups times, and keeps setting
// it up until the set-ups took setupBudgetS in total (at most maxSetups
// times); setup_s is the median, so one slow set-up does not move it and
// a set-up of a millisecond is sampled often enough to repeat.
const (
	minSetups    = 5
	maxSetups    = 100
	setupBudgetS = 1.0
)

// unit is one checked, timed piece of a round's output: an FCT combo, a
// heatmap panel or fluid solve, a failure trial, or a service request.
type unit struct {
	key    string // units with the same key must have the same digest
	ms     float64
	digest string
	class  string // spinelessd_mix: "hit" or "miss"
	err    error
}

// bench is one set-up instance of a workload.
type bench interface {
	// round runs the workload's fixed input once and returns its units in
	// a fixed order. tr is nil in untraced rounds.
	round(r int, tr *tracer) []unit
	// inputs describes the concrete generated inputs, for the run record.
	inputs() any
	close() error
}

// warmer is implemented by a bench whose first rounds fill a cache. They
// run inside each timed set-up, since they come before the first timed
// unit, and their units are checked like any other.
type warmer interface{ warmupRounds() int }

// prober is implemented by a bench that takes extra per-layer samples
// after a traced round, outside its timed interval.
type prober interface{ probe(tr *tracer) error }

// pooler is implemented by a bench whose per-layer latency percentiles are
// pooled over every timed round instead of taken per round.
type pooler interface{ pooled() map[string]float64 }

// summarizer is implemented by a bench with extra human-readable results.
type summarizer interface{ summary() []string }

// workloadDef names a workload and builds it for a seed and input size.
// tailPct is the percentile unit_ms_tail is taken at; see tailAt.
type workloadDef struct {
	name    string
	why     string
	setup   func(seed int64, size string, st *state, tr *tracer) (bench, error)
	tailPct float64
}

// state is the benchmark's own scratch area inside the checkout.
type state struct{ dir string }

func (s *state) tempDir(prefix string) (string, error) {
	d := filepath.Join(s.dir, "tmp")
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(d, prefix)
}

var workloads = []workloadDef{fig4Workload, fig5Workload, failuresWorkload, mixWorkload}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spinebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	stateDir := fs.String("state", ".bench_build/spinebench", "directory for run records, span dumps and temporary stores")
	goldenPath := fs.String("golden", "", "recorded unit digests to check outputs against")
	update := fs.Bool("update-golden", false, "record this run's unit digests in -golden (only if every unit passed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "spinebench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "spinebench: -trace must be 0 or 1\n")
		return 2
	}
	gold, err := loadGolden(*goldenPath)
	if err != nil {
		fmt.Fprintf(stderr, "spinebench: %v\n", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, size: "full", st: &state{dir: *stateDir}, gold: gold}
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "spinebench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.write(o); err != nil {
		fmt.Fprintf(stderr, "spinebench: writing run record: %v\n", err)
		return 1
	}
	if *update {
		if rep.res.Failed > 0 {
			fmt.Fprintf(stderr, "spinebench: not recording digests of a run with failures\n")
			return 1
		}
		gold.record(goldenKey(w.name, o.size, o.seed), rep.digests, goldenLimit)
		if err := gold.save(*goldenPath); err != nil {
			fmt.Fprintf(stderr, "spinebench: %v\n", err)
			return 1
		}
	}
	if err := rep.emit(stdout); err != nil {
		fmt.Fprintf(stderr, "spinebench: %v\n", err)
		return 1
	}
	return 0
}

// goldenLimit caps the digests recorded per workload and seed.
const goldenLimit = 40

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type options struct {
	seed    int64
	seconds float64
	traced  bool
	size    string
	st      *state
	gold    golden
}

// report is everything one run measured.
type report struct {
	Workload string             `json:"workload"`
	Why      string             `json:"why"`
	Seed     int64              `json:"seed"`
	Size     string             `json:"size"`
	Traced   bool               `json:"traced"`
	Host     hostRecord         `json:"host"`
	Inputs   any                `json:"inputs"`
	Seconds  float64            `json:"seconds"`
	SetupS   []float64          `json:"setup_s_samples"`
	RoundS   []float64          `json:"round_s_samples"` // timed rounds; traced rounds in a traced run
	RoundRSS []float64          `json:"round_peak_rss_mb_samples"`
	Tail     tail               `json:"unit_ms_tail"`
	UnitMS   map[string]float64 `json:"unit_ms_p50_by_key"`
	Layers   map[string]float64 `json:"per_layer,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	Golden   int                `json:"golden_checked"`
	res      result
	digests  map[string]string
	spans    [][]span
	extra    []string // human-readable lines printed before the result
}

// measure sets w up several times (see minSetups), each set-up including
// the bench's warm-up rounds, then runs rounds until o.seconds have passed.
// In a traced run, rounds alternate untraced and traced, so the same
// process yields the tracing overhead and a digest cross-check.
func measure(w workloadDef, o options) (*report, error) {
	rep := &report{Workload: w.name, Why: w.why, Seed: o.seed, Size: o.size, Traced: o.traced,
		Host: host(), Seconds: o.seconds, digests: map[string]string{}}
	if err := os.MkdirAll(o.st.dir, 0o755); err != nil {
		return nil, err
	}
	var b bench
	var setupLayers []map[string]float64
	var units []unit
	warm := 0
	for i, total := 0, 0.0; i < minSetups || (i < maxSetups && total < setupBudgetS); i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
			b = nil // let the collector reclaim it before the next set-up
		}
		var tr *tracer
		if o.traced {
			tr = newTracer()
		}
		runtime.GC()
		t0 := time.Now()
		nb, err := w.setup(o.seed, o.size, o.st, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		b = nb
		if wm, ok := b.(warmer); ok {
			warm = wm.warmupRounds()
			for r := 0; r < warm; r++ {
				units = append(units, b.round(r, nil)...)
			}
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		total += rep.SetupS[i]
		if tr != nil {
			spans, counters := tr.snapshot()
			setupLayers = append(setupLayers, layerMetrics(spans, counters))
			rep.spans = append(rep.spans, spans)
		}
	}
	defer b.close()

	var untracedS []float64
	var roundLayers []map[string]float64
	var unitMS []float64
	byKey := map[string][]float64{}
	var rates []float64 // units per second of each timed round
	rss := startRSSSampler()
	defer rss.close()
	runtime.GC()
	start := time.Now()
	for r := warm; ; r++ {
		traced := o.traced && (r-warm)%2 == 1
		if time.Since(start).Seconds() >= o.seconds && r > warm && (!o.traced || r > warm+1) {
			break
		}
		var tr *tracer
		var ms0 runtime.MemStats
		if traced {
			tr = newTracer()
			runtime.ReadMemStats(&ms0)
		}
		rss.take()
		t0 := time.Now()
		us := b.round(r, tr)
		dt := time.Since(t0).Seconds()
		peakRSS := rss.take()
		if traced {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			tr.add("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
			tr.add("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
			if p, ok := b.(prober); ok {
				if err := p.probe(tr); err != nil {
					units = append(units, unit{key: "probe", err: err})
				}
			}
			spans, counters := tr.snapshot()
			rep.spans = append(rep.spans, spans)
			roundLayers = append(roundLayers, layerMetrics(spans, counters))
		}
		units = append(units, us...)
		if !o.traced || traced {
			rep.RoundS = append(rep.RoundS, dt)
			rep.RoundRSS = append(rep.RoundRSS, peakRSS)
			rates = append(rates, float64(len(us))/dt)
			for _, u := range us {
				unitMS = append(unitMS, u.ms)
				byKey[u.key] = append(byKey[u.key], u.ms)
			}
		} else {
			untracedS = append(untracedS, dt)
		}
	}
	rep.Inputs = b.inputs() // after the rounds: spinelessd_mix plans its specs round by round
	rep.check(units, o)
	rep.Tail = tailAt(unitMS, w.tailPct)
	if len(byKey) <= goldenLimit {
		rep.UnitMS = map[string]float64{}
		for k, xs := range byKey {
			rep.UnitMS[k] = median(xs)
		}
	}

	m := map[string]metric{}
	if o.traced {
		rep.Layers = medianLayers(setupLayers, roundLayers)
		if p, ok := b.(pooler); ok {
			for k, v := range p.pooled() {
				rep.Layers[k] = v
			}
		}
		for k, v := range rep.Layers {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				rep.Layers[k] = 0 // an empty sample set, e.g. no misses in a traced round
			}
		}
		rep.Layers["trace.overhead_s"] = median(rep.RoundS) - median(untracedS)
		rep.Layers["trace.spans"] = float64(countSpans(rep.spans))
		for _, d := range perLayer {
			m[d.name] = metric{Value: rep.Layers[d.name], Unit: d.unit}
		}
		rep.extra = append(rep.extra, fmt.Sprintf("traced rounds %d, untraced rounds %d: traced wall_s %.4f - untraced wall_s %.4f = overhead %.4f s",
			len(rep.RoundS), len(untracedS), median(rep.RoundS), median(untracedS), rep.Layers["trace.overhead_s"]))
	} else {
		m["setup_s"] = metric{median(rep.SetupS), "s"}
		m["wall_s"] = metric{median(rep.RoundS), "s"}
		m["unit_ms_p50"] = metric{median(unitMS), "ms"}
		m["unit_ms_tail"] = metric{rep.Tail.Value, "ms"}
		m["units_per_s"] = metric{median(rates), "1/s"}
		m["peak_rss_mb"] = metric{median(rep.RoundRSS), "MB"}
		rep.extra = append(rep.extra, fmt.Sprintf("unit_ms_tail is p%g over %d units (%d beyond it); %d timed rounds; %d warm-up rounds in each set-up",
			rep.Tail.Pct, rep.Tail.Samples, rep.Tail.Beyond, len(rep.RoundS), warm))
	}
	if c, ok := b.(summarizer); ok {
		rep.extra = append(rep.extra, c.summary()...)
	}
	rep.res.Metrics = m
	return rep, nil
}

// check counts failed units: an error, a digest that differs from the
// first unit with the same key (every round repeats the same inputs, and a
// traced round must match an untraced one), or a digest that differs from
// the recorded one for this seed.
func (rep *report) check(units []unit, o options) {
	key := goldenKey(rep.Workload, o.size, o.seed)
	for _, u := range units {
		rep.res.Attempted++
		err := u.err
		if err == nil {
			if first, ok := rep.digests[u.key]; ok && first != u.digest {
				err = fmt.Errorf("unit %s: digest %.16s differs from an earlier round's %.16s", u.key, u.digest, first)
			} else if !ok {
				rep.digests[u.key] = u.digest
				var recorded bool
				recorded, err = o.gold.check(key, u.key, u.digest)
				if recorded {
					rep.Golden++
				}
			}
		}
		if err != nil {
			rep.res.Failed++
			if len(rep.Failures) < 20 {
				rep.Failures = append(rep.Failures, err.Error())
			}
		}
	}
	rep.res.Correct = rep.res.Failed == 0 && rep.res.Attempted > 0
}

func countSpans(spans [][]span) int {
	n := 0
	for _, s := range spans {
		n += len(s)
	}
	return n
}

func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "spinebench %s seed=%d size=%s traced=%v on %s (%s, GOMAXPROCS=%d, nproc=%d)\n",
		rep.Workload, rep.Seed, rep.Size, rep.Traced, rep.Host.CPUModel, rep.Host.GoVersion, rep.Host.GOMAXPROCS, rep.Host.NumCPU)
	names := make([]string, 0, len(rep.res.Metrics))
	for n := range rep.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, rep.res.Metrics[n].Value, rep.res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  %-34s %14.6g (failed %d / attempted %d; %d units checked against recorded digests)\n",
		"fail_frac", float64(rep.res.Failed)/float64(max(rep.res.Attempted, 1)), rep.res.Failed, rep.res.Attempted, rep.Golden)
	for _, l := range rep.extra {
		fmt.Fprintf(w, "  %s\n", l)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// emit prints the report and then, as the last line, the result object.
func (rep *report) emit(w io.Writer) error {
	line, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	rep.print(w)
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// write saves the run record (and, for a traced run, the spans) under the
// state directory.
func (rep *report) write(o options) error {
	dir := filepath.Join(o.st.dir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if rep.Traced {
		trace = 1
	}
	base := fmt.Sprintf("%s-%s-seed%d-trace%d", rep.Workload, rep.Size, rep.Seed, trace)
	rec := struct {
		*report
		Result  result            `json:"result"`
		Digests map[string]string `json:"digests"`
	}{rep, rep.res, rep.digests}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if !rep.Traced {
		return nil
	}
	b, err = json.Marshal(rep.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+"-spans.json"), b, 0o644)
}
