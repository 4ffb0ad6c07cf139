package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spineless/internal/core"
	"spineless/internal/jobs"
	"spineless/internal/serve"
	"spineless/internal/store"
)

var mixWorkload = workloadDef{
	name: "spinelessd_mix",
	why: "The spinelessd request path over loopback HTTP with a result store: the only workload where serve, jobs, " +
		"store and telemetry do the work, mixing cache-hit reads with fsynced miss writes.",
	setup: setupMix,
	// About 5000 requests in 20 s would allow p99, but p99 sits on the
	// steep part of the tail, where the few misses of up to 3 s that a
	// run draws (rare huge Pareto flows) decide it: it spread 0.16 over
	// ten seeds, p95 (about 250 samples beyond it) 0.05.
	tailPct: 95,
}

type mixSize struct {
	perRound  int // requests per round
	windowSec float64
	tms       []core.TMKind
}

var mixSizes = map[string]mixSize{
	"full": {perRound: 60, windowSec: 0.001,
		tms: []core.TMKind{core.TMA2A, core.TMFBSkewed, core.TMR2R}},
	"tiny": {perRound: 8, windowSec: 0.0005,
		tms: []core.TMKind{core.TMA2A, core.TMR2R}},
}

// After round 0, exactly mixHitShare of each round's requests repeat an
// earlier spec; every mixTelemetryEvery-th fresh spec asks for telemetry.
const (
	mixHitShare       = 0.75
	mixTelemetryEvery = 4
	mixScale          = 8 // fabric scale of the fct cells
)

// mixClients is the closed-loop client count: each sends its next request
// only after the previous one has its result. It matches the two CPUs the
// benchmark was sized on.
const mixClients = 2

// pollInterval is the clients' wait between GET /v1/jobs/{id} polls.
const pollInterval = time.Millisecond

var mixFabrics = []string{"dring", "rrg", "leafspine"}

// mixCell is one kind of fresh spec: a fabric, scheme and TM.
type mixCell struct {
	Fabric string `json:"fabric"`
	Scheme string `json:"scheme"`
	TM     string `json:"tm"`
}

// mixCells lists every cell kind: each fabric with ecmp, the flat fabrics
// also with su2, on each of the size's TMs. A full round's 15 fresh specs
// are one shuffled deck of the 15 kinds, so rounds cost about the same.
func mixCells(tms []core.TMKind) []mixCell {
	var cells []mixCell
	for _, f := range mixFabrics {
		schemes := []string{"ecmp", "su2"}
		if f == "leafspine" {
			schemes = schemes[:1]
		}
		for _, s := range schemes {
			for _, tm := range tms {
				cells = append(cells, mixCell{f, s, string(tm)})
			}
		}
	}
	return cells
}

type mixInputs struct {
	Clients        int       `json:"clients"`
	PerRound       int       `json:"requests_per_round"`
	HitShare       float64   `json:"hit_share_after_round0"`
	TelemetryEvery int       `json:"telemetry_every_nth_fresh_spec"`
	Cells          []mixCell `json:"cells"`
	Scale          int       `json:"scale"`
	WindowSec      float64   `json:"window_sec"`
	Executors      int       `json:"executors"`
	PollInterval   string    `json:"poll_interval"`
	// Specs is the spec list generated so far: fresh specs in order; a
	// round's requests index into it.
	Specs []jobs.Spec `json:"specs"`
	Plan  [][]int     `json:"plan"` // per round, the fresh-spec index of each request
}

type mixBench struct {
	sz     mixSize
	seed   int64
	dir    string
	st     *store.Store
	side   *store.Store // probe target for direct Put timings
	m      *jobs.Manager
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	rng    *rand.Rand
	deck   []mixCell // cell kinds not yet drawn in the current pass
	in     mixInputs

	mu     sync.Mutex
	bodies map[string][]byte // result bytes by spec hash, from the miss that stored them
	lat    map[string][]float64
	rounds int // untraced timed rounds finished
	timedS float64
}

func setupMix(seed int64, size string, st *state, tr *tracer) (bench, error) {
	sz := mixSizes[size]
	dir, err := st.tempDir("mix-")
	if err != nil {
		return nil, err
	}
	b := &mixBench{sz: sz, seed: seed, dir: dir, rng: rand.New(rand.NewSource(seed)),
		bodies: map[string][]byte{}, lat: map[string][]float64{}}
	b.in = mixInputs{Clients: mixClients, PerRound: sz.perRound, HitShare: mixHitShare,
		TelemetryEvery: mixTelemetryEvery, Cells: mixCells(sz.tms), Scale: mixScale,
		WindowSec: sz.windowSec, Executors: 1, PollInterval: pollInterval.String()}
	if err := b.start(tr); err != nil {
		_ = b.close()
		return nil, err
	}
	return b, nil
}

func (b *mixBench) start(tr *tracer) error {
	var err error
	sp := tr.begin("store.open", -1, -1)
	b.st, err = store.Open(filepath.Join(b.dir, "store"), store.Options{})
	if err == nil {
		b.side, err = store.Open(filepath.Join(b.dir, "probe"), store.Options{})
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	b.m = jobs.New(b.st, jobs.Config{Executors: b.in.Executors, TrialWorkers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.hs = &http.Server{Handler: serve.New(b.m, nil), ReadHeaderTimeout: 10 * time.Second}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: mixClients, MaxConnsPerHost: mixClients}}
	resp, err := b.client.Get(b.base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

func (b *mixBench) close() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if b.hs != nil {
		errs = append(errs, b.hs.Shutdown(ctx))
		if err := <-b.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		b.client.CloseIdleConnections()
	}
	if b.m != nil {
		errs = append(errs, b.m.Drain(ctx))
	}
	for _, s := range []*store.Store{b.st, b.side} {
		if s != nil {
			errs = append(errs, s.Close())
		}
	}
	errs = append(errs, os.RemoveAll(b.dir))
	return errors.Join(errs...)
}

func (b *mixBench) inputs() any       { return b.in }
func (b *mixBench) warmupRounds() int { return 1 }

// plan appends round r's requests to the spec stream. Round 0 is all fresh
// specs; in later rounds exactly mixHitShare of the requests repeat a spec
// from an earlier round, at shuffled positions, so every repeat is a cache
// hit and every fresh spec a miss, whatever the timing.
func (b *mixBench) plan(r int) []int {
	earlier := len(b.in.Specs)
	fresh := b.sz.perRound
	if r > 0 {
		fresh -= int(math.Round(float64(b.sz.perRound) * mixHitShare))
	}
	idx := make([]int, b.sz.perRound)
	for k := range idx {
		if k < fresh {
			idx[k] = b.fresh()
		} else {
			idx[k] = b.rng.Intn(earlier)
		}
	}
	b.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	b.in.Plan = append(b.in.Plan, idx)
	return idx
}

// fresh appends a new spec of the next cell kind from the deck, refilling
// and reshuffling the deck when it runs out, and returns its index.
func (b *mixBench) fresh() int {
	if len(b.deck) == 0 {
		b.deck = append(b.deck, b.in.Cells...)
		b.rng.Shuffle(len(b.deck), func(i, j int) { b.deck[i], b.deck[j] = b.deck[j], b.deck[i] })
	}
	c := b.deck[len(b.deck)-1]
	b.deck = b.deck[:len(b.deck)-1]
	j := len(b.in.Specs)
	b.in.Specs = append(b.in.Specs, jobs.Spec{
		Kind:      "fct",
		Topo:      jobs.TopoSpec{Scale: mixScale},
		Fabric:    c.Fabric,
		Scheme:    c.Scheme,
		TM:        c.TM,
		WindowSec: b.sz.windowSec,
		Seed:      b.seed<<20 + int64(j),
		Telemetry: j%mixTelemetryEvery == 0,
	})
	return j
}

// round sends the round's requests from mixClients closed-loop clients.
// Each request is a unit: submit, poll until terminal on a miss, fetch the
// result bytes.
func (b *mixBench) round(r int, tr *tracer) []unit {
	idx := b.plan(r)
	var before jobs.Metrics
	var beforeSt store.Counters
	if tr != nil {
		before, beforeSt = b.m.Snapshot(), b.st.Snapshot()
	}
	t0 := time.Now()
	units := make([]unit, len(idx))
	polls := make([]int, len(idx))
	phases := make([][2]float64, len(idx))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(idx); k = int(next.Add(1) - 1) {
				units[k], polls[k], phases[k] = b.request(idx[k], int32(k), tr)
			}
		}()
	}
	wg.Wait()
	dt := time.Since(t0).Seconds()
	switch {
	case r < b.warmupRounds():
	case tr != nil:
		b.roundLayers(tr, idx, units, polls, phases, before, beforeSt)
	default:
		// Latencies pool untraced rounds only, so span overhead stays out.
		b.mu.Lock()
		b.rounds++
		b.timedS += dt
		for k, u := range units {
			b.lat[u.class] = append(b.lat[u.class], u.ms)
			if u.class == "miss" {
				c := observedClass(b.in.Specs[idx[k]])
				b.lat[c] = append(b.lat[c], u.ms)
			}
		}
		b.mu.Unlock()
	}
	return units
}

// request runs one client request and returns its unit, the number of
// status polls it made and its submit and result-fetch times in ms.
func (b *mixBench) request(j int, unitID int32, tr *tracer) (unit, int, [2]float64) {
	sp := b.in.Specs[j]
	u := unit{key: fmt.Sprintf("fresh/%d", j), class: "miss"}
	var phases [2]float64
	polls := 0
	t0 := time.Now()
	root := tr.begin("serve.request", -1, unitID)
	defer tr.end(root)
	body, err := json.Marshal(sp)
	if err != nil {
		u.err = err
		return u, polls, phases
	}
	s := tr.begin("serve.submit", root, unitID)
	var sr serve.SubmitResponse
	code, err := b.call(http.MethodPost, "/v1/jobs", body, &sr)
	tr.end(s)
	phases[0] = msSince(t0)
	if err == nil && code != http.StatusOK && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d", code)
	}
	if err != nil {
		u.err = fmt.Errorf("spec %d: %w", j, err)
		return u, polls, phases
	}
	if sr.Cached {
		u.class = "hit"
	} else {
		state := sr.Status.State
		for !state.Terminal() {
			time.Sleep(pollInterval)
			s := tr.begin("serve.status", root, unitID)
			var st jobs.Status
			_, err = b.call(http.MethodGet, "/v1/jobs/"+sr.Job, nil, &st)
			tr.end(s)
			polls++
			if err != nil {
				u.err = fmt.Errorf("spec %d: status: %w", j, err)
				return u, polls, phases
			}
			state = st.State
		}
		if state != jobs.StateDone {
			u.err = fmt.Errorf("spec %d: job %s ended %s", j, sr.Job, state)
			return u, polls, phases
		}
	}
	t1 := time.Now()
	s = tr.begin("serve.result", root, unitID)
	res, code, err := b.get("/v1/results/" + sr.Hash)
	tr.end(s)
	phases[1] = msSince(t1)
	u.ms = msSince(t0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", code)
	}
	if err == nil {
		err = b.checkResult(sr.Hash, res)
	}
	if err == nil {
		u.digest, err = digestJSON(res)
	}
	if err != nil {
		u.err = fmt.Errorf("spec %d: %w", j, err)
	}
	return u, polls, phases
}

// checkResult requires a hit's bytes to equal those of the miss that
// stored them, and a result to be a complete FCT cell.
func (b *mixBench) checkResult(hash string, res []byte) error {
	b.mu.Lock()
	prev, seen := b.bodies[hash]
	if !seen {
		b.bodies[hash] = res
	}
	b.mu.Unlock()
	if seen && !bytes.Equal(prev, res) {
		return fmt.Errorf("result %s: bytes differ from the ones first served", hash)
	}
	var r jobs.Result
	if err := json.Unmarshal(res, &r); err != nil {
		return fmt.Errorf("result %s: %w", hash, err)
	}
	if r.FCT == nil || r.FCT.Flows == 0 || r.FCT.Stats.Incomplete != 0 {
		return fmt.Errorf("result %s: not a complete fct cell", hash)
	}
	return nil
}

func (b *mixBench) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (b *mixBench) get(path string) ([]byte, int, error) {
	resp, err := b.client.Get(b.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	res, err := io.ReadAll(resp.Body)
	return res, resp.StatusCode, err
}

// observedClass splits misses by whether the spec asked for telemetry.
func observedClass(sp jobs.Spec) string {
	if sp.Telemetry {
		return "observed"
	}
	return "plain"
}

// roundLayers records a traced round's serve, jobs and store metrics.
func (b *mixBench) roundLayers(tr *tracer, idx []int, units []unit, polls []int, phases [][2]float64, before jobs.Metrics, beforeSt store.Counters) {
	var submit, result, missMS []float64
	missPolls := 0
	for k, u := range units {
		submit = append(submit, phases[k][0])
		result = append(result, phases[k][1])
		if u.class == "miss" {
			missMS = append(missMS, u.ms)
			missPolls += polls[k]
		}
	}
	tr.add("serve.submit_ms_p50", median(submit))
	tr.add("serve.result_ms_p50", median(result))
	tr.add("serve.status_polls", ratio(float64(missPolls), float64(len(missMS))))

	after, afterSt := b.m.Snapshot(), b.st.Snapshot()
	tr.add("jobs.busy_s", after.BusySeconds-before.BusySeconds)
	runMS := ratio(after.LatencySumMS-before.LatencySumMS, float64(after.LatencyCount-before.LatencyCount))
	if len(missMS) > 0 {
		tr.add("jobs.wait_ms", mean(missMS)-runMS)
	}
	tr.add("jobs.cache_hits", float64(after.CacheHits-before.CacheHits))
	tr.add("jobs.cache_misses", float64(after.CacheMisses-before.CacheMisses))
	tr.add("jobs.deduped", float64(after.Deduped-before.Deduped))
	tr.add("jobs.shed", float64(after.Shed-before.Shed))
	tr.add("jobs.rejected", float64(after.Rejected-before.Rejected))
	tr.add("netsim.events", float64(after.SimEvents-before.SimEvents))
	tr.add("store.hits", float64(afterSt.Hits-beforeSt.Hits))
	tr.add("store.misses", float64(afterSt.Misses-beforeSt.Misses))
	tr.add("store.puts", float64(afterSt.Puts-beforeSt.Puts))
	tr.add("store.bytes", float64(afterSt.Bytes))
	tr.add("store.entries", float64(afterSt.Entries))
}

// probeGets and probePuts are the direct store calls timed after each
// traced round, outside its timed interval.
const (
	probeGets = 16
	probePuts = 3
)

// probe times store.Get on stored results and fsynced store.Put of a real
// result into a side store, so store latency is measured apart from HTTP.
func (b *mixBench) probe(tr *tracer) error {
	b.mu.Lock()
	hashes := make([]string, 0, probeGets)
	var payload []byte
	for h, body := range b.bodies {
		if len(hashes) == probeGets {
			break
		}
		hashes = append(hashes, h)
		payload = body
	}
	b.mu.Unlock()
	var gets, puts []float64
	for _, h := range hashes {
		t0 := time.Now()
		if _, ok := b.st.Get(h); !ok {
			return fmt.Errorf("store probe: stored result %s missing", h)
		}
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for i := 0; i < probePuts && payload != nil; i++ {
		v := map[string]int{"probe": b.side.Len()}
		key, err := store.Key(v)
		if err != nil {
			return err
		}
		spec, err := store.Canonical(v)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := b.side.Put(key, spec, payload); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		puts = append(puts, msSince(t0))
	}
	if len(gets) > 0 {
		tr.add("store.get_us", median(gets))
	}
	if len(puts) > 0 {
		tr.add("store.put_ms", median(puts))
	}
	return nil
}

// Hits and misses are reported at fixed tail percentiles (see tailAt),
// chosen from their counts in the untraced rounds of a traced run: about
// 1600 hits and 550 misses.
const (
	hitTailPct  = 99
	missTailPct = 90
)

// pooled returns latency metrics pooled over every untraced timed round,
// which per-round medians would estimate poorly (a round has few misses).
func (b *mixBench) pooled() map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return map[string]float64{
		"serve.hit_ms_p50":               median(b.lat["hit"]),
		"serve.hit_ms_tail":              tailAt(b.lat["hit"], hitTailPct).Value,
		"serve.miss_ms_p50":              median(b.lat["miss"]),
		"serve.miss_ms_tail":             tailAt(b.lat["miss"], missTailPct).Value,
		"telemetry.observed_miss_ms_p50": median(b.lat["observed"]),
		"telemetry.plain_miss_ms_p50":    median(b.lat["plain"]),
	}
}

func (b *mixBench) summary() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, c := range []string{"hit", "miss", "observed", "plain"} {
		xs := b.lat[c]
		pct := float64(missTailPct)
		if c == "hit" {
			pct = hitTailPct
		}
		t := tailAt(xs, pct)
		out = append(out, fmt.Sprintf("%-8s requests: %5d  p50 %8.3f ms  tail p%g %8.3f ms (%d beyond)", c, len(xs), median(xs), t.Pct, t.Value, t.Beyond))
	}
	n := len(b.lat["hit"]) + len(b.lat["miss"])
	out = append(out, fmt.Sprintf("mean req_per_s %.2f over %d untraced timed rounds; %d distinct specs", float64(n)/b.timedS, b.rounds, len(b.in.Specs)))
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
