package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wheretime/internal/harness"
	"wheretime/internal/server"
	"wheretime/internal/tracestore"
)

// warmExperiments are the experiments whose micro and TPC-C cells
// serve_warm posts.
var warmExperiments = []string{"fig5.1", "ghj", "sortagg", "btree", "joinsort", "idxjoin", "tpcc"}

// serve_warm's tail_ms is the median over the timed loop's segments of
// tailSegment each of the segment's tailPercentile. A segment holds
// about 750 requests, so some 75 lie beyond its p90. A higher
// percentile, or a tail over the whole loop, follows contention from
// other tenants of a shared host more than it follows the program: see
// README.md.
const (
	tailPercentile = 90
	tailSegment    = 5 * time.Second
)

// warmUp is how long the closed loop runs untimed before the timed
// part, after a collection of set-up's garbage.
const warmUp = time.Second

// warmCells returns the distinct micro and TPC-C cells the warm
// experiments declare.
func warmCells(opts harness.Options) ([]harness.CellSpec, error) {
	var exps []harness.Experiment
	for _, name := range warmExperiments {
		e, err := harness.Find(name)
		if err != nil {
			return nil, err
		}
		exps = append(exps, e)
	}
	var out []harness.CellSpec
	for _, s := range gridCells(opts, exps) {
		if s.Kind != harness.CellTPCD {
			out = append(out, s)
		}
	}
	return out, nil
}

// cellRequest is the wire shape of POST /v1/cells.
type cellRequest struct {
	Kind   string `json:"kind"`
	System string `json:"system"`
	Query  string `json:"query,omitempty"`
	Txns   int    `json:"txns,omitempty"`
	L2KB   int    `json:"l2kb,omitempty"`
	BTB    int    `json:"btb,omitempty"`
}

// requestBody renders the request that asks the server for a micro or
// TPC-C spec. Base options are left for the server to fill in; a
// platform that differs from base is spelled out.
func requestBody(base harness.Options, spec harness.CellSpec) []byte {
	req := cellRequest{System: spec.System.String()}
	if spec.Kind == harness.CellTPCC {
		req.Kind, req.Txns = "tpcc", spec.Txns
	} else {
		req.Kind, req.Query = "micro", spec.Query.String()
	}
	if spec.Config.L2SizeKB != base.Config.L2SizeKB {
		req.L2KB = spec.Config.L2SizeKB
	}
	if spec.Config.BTBEntries != base.Config.BTBEntries {
		req.BTB = spec.Config.BTBEntries
	}
	b, _ := json.Marshal(req) // strings and ints always marshal
	return b
}

// daemon is one in-process wheretimed behind httptest.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
}

// startDaemon builds a server in the wheretimed default configuration
// over store (nil for none). batching=false turns the gang window off.
func startDaemon(opts harness.Options, store *tracestore.Store, batching bool) (*daemon, error) {
	cfg := server.Config{
		Opts:          opts,
		Store:         store,
		Timeout:       server.DefaultTimeout,
		MaxConcurrent: server.DefaultMaxConcurrent,
		GangMax:       server.DefaultGangMax,
	}
	if batching {
		cfg.GangWindow = server.DefaultGangWindow
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// close stops the listener and drains the server, which flushes its
// store.
func (d *daemon) close() error {
	d.ts.Close()
	return d.srv.Close()
}

// client posts cells over at most two connections and times each
// request from send to the full body.
type client struct {
	http *http.Client
	url  string
	tr   *tracer
	ids  *atomic.Int64 // the run's request ids, shared by its clients
}

func newClient(url string, r *run) *client {
	t := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	return &client{http: &http.Client{Transport: t}, url: url, tr: r.tr, ids: &r.requestIDs}
}

func (c *client) closeIdle() { c.http.CloseIdleConnections() }

// post sends one cell request and returns the status, the body and
// the latency.
func (c *client) post(ctx context.Context, body []byte, parent int) (int, []byte, time.Duration, error) {
	id := c.ids.Add(1)
	sp := c.tr.begin("server.POST /v1/cells", parent, id)
	defer c.tr.end(sp)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, out, time.Since(start), nil
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Requests    int64 `json:"requests"`
	Simulations int64 `json:"simulations"`
	Coalesced   int64 `json:"coalesced"`
	Failures    int64 `json:"failures"`
	Batch       struct {
		GangsFormed  int64   `json:"gangsFormed"`
		MeanK        float64 `json:"meanK"`
		WindowCloses int64   `json:"windowCloses"`
		CapCloses    int64   `json:"capCloses"`
	} `json:"batch"`
}

func (c *client) health(ctx context.Context) (health, error) {
	var h health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// sample is one timed request of a timed loop.
type sample struct {
	spec    int // index into the workload's spec list
	latency time.Duration
	done    time.Duration // when the answer arrived, since the loop began
	ok      bool
}

// postAll posts every body over two connections in a closed loop and
// returns the 200 bodies; any other status is an error.
func postAll(ctx context.Context, c *client, bodies [][]byte, parent int) ([][]byte, error) {
	out := make([][]byte, len(bodies))
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				status, body, _, err := c.post(ctx, bodies[i], parent)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("POST %s: status %d: %s", bodies[i], status, body)
				}
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = body
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// counters snapshots the server and store counters around a timed
// phase; the per-layer record reports their deltas.
type counters struct {
	h  health
	st tracestore.Stats
}

func snapshot(ctx context.Context, c *client, store *tracestore.Store) (counters, error) {
	h, err := c.health(ctx)
	return counters{h: h, st: store.Stats()}, err
}

// setDeltas reports the counter movement across a timed phase.
// tracestore.simulations counts the cells the phase measured rather
// than served from a tally: specs whose tally entry the phase added.
// The /healthz simulations counter also rises on tally hits, so it is
// reported separately as server.simulations.
func setDeltas(r *run, before, after counters, simulated int) {
	r.set("server.requests", float64(after.h.Requests-before.h.Requests))
	r.set("server.coalesced", float64(after.h.Coalesced-before.h.Coalesced))
	r.set("server.failures", float64(after.h.Failures-before.h.Failures))
	r.set("server.simulations", float64(after.h.Simulations-before.h.Simulations))
	gangs := after.h.Batch.GangsFormed - before.h.Batch.GangsFormed
	members := after.h.Batch.MeanK*float64(after.h.Batch.GangsFormed) - before.h.Batch.MeanK*float64(before.h.Batch.GangsFormed)
	r.set("server.batch.gangs", float64(gangs))
	if gangs > 0 {
		r.set("server.batch.mean_k", members/float64(gangs))
	}
	r.set("server.batch.window_closes", float64(after.h.Batch.WindowCloses-before.h.Batch.WindowCloses))
	r.set("server.batch.cap_closes", float64(after.h.Batch.CapCloses-before.h.Batch.CapCloses))

	a, b := after.st, before.st
	r.set("tracestore.entry_hits", float64(a.EntryHits-b.EntryHits))
	r.set("tracestore.entry_misses", float64(a.EntryMisses-b.EntryMisses))
	r.set("tracestore.trace_hits", float64(a.TraceHits-b.TraceHits))
	r.set("tracestore.traces_written", float64(a.TracesWritten-b.TracesWritten))
	r.set("tracestore.retries", float64(a.Retries-b.Retries))
	r.set("tracestore.quarantined", float64(a.Quarantined-b.Quarantined))
	r.set("tracestore.write_failures", float64(a.WriteFailures-b.WriteFailures))
	if lookups := (a.EntryHits - b.EntryHits) + (a.EntryMisses - b.EntryMisses); lookups > 0 {
		r.set("tracestore.entry_hit_ratio", float64(a.EntryHits-b.EntryHits)/float64(lookups))
	}
	r.set("tracestore.simulations", float64(simulated))
}

// tallied reports which specs have a tally entry in store. GetEntry
// moves the store's hit and miss counters, so callers probe outside
// the counter snapshots.
func tallied(opts harness.Options, store *tracestore.Store, specs []harness.CellSpec) []bool {
	out := make([]bool, len(specs))
	for i, s := range specs {
		_, out[i] = store.GetEntry(harness.TallyKey(opts, s))
	}
	return out
}

// added counts the specs tallied after a phase that were not before it.
func added(before, after []bool) int {
	n := 0
	for i := range after {
		if after[i] && !before[i] {
			n++
		}
	}
	return n
}

// setLatencies reports the end-to-end metrics of the timed loop.
// wall_s is the loop's length: --seconds plus the last request's
// overrun, whose answers count in the last segment.
func setLatencies(r *run, samples []sample, elapsed time.Duration) {
	lat := make([]float64, len(samples))
	seg := make([][]float64, max(int(r.seconds/tailSegment), 1))
	for i, s := range samples {
		lat[i] = ms(s.latency)
		k := min(int(s.done/tailSegment), len(seg)-1)
		seg[k] = append(seg[k], lat[i])
	}
	var tails, sizes []float64
	for _, xs := range seg {
		tv, _ := percentile(xs, tailPercentile)
		tails = append(tails, tv)
		sizes = append(sizes, float64(len(xs)))
	}
	r.set("p50_ms", median(lat))
	r.set("tail_ms", median(tails))
	r.set("wall_s", elapsed.Seconds())
	r.set("throughput_rps", float64(len(samples))/elapsed.Seconds())
	r.set("peak_rss_mb", peakRSSMB())
	r.note("%s: %d requests in %.3f s over %d connections", r.workload, len(samples), elapsed.Seconds(), workers)
	r.set("tail_percentile", tailPercentile)
	r.set("tail_samples", median(sizes))
	r.note("tail_ms is the median over %d segments of %v of each one's p%d, of about %.0f samples per segment",
		len(seg), tailSegment, tailPercentile, median(sizes))
}

// newStore opens a fresh store directory under the run's scratch
// directory, the way wheretimed opens its store.
func newStore(r *run, name string) (*tracestore.Store, error) {
	dir := filepath.Join(r.dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return tracestore.OpenRecovering(dir)
}

// runServeWarm: set-up populates a fresh store through the server with
// every micro and TPC-C cell of the warm experiments; the timed part
// is a closed loop of two connections posting cells drawn from the
// seed with a skewed popularity, so every request is a tally hit. Each
// body must equal the one set-up received for the same cell.
func runServeWarm(ctx context.Context, r *run) error {
	opts := harness.DefaultOptions()
	specs, err := warmCells(opts)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		bodies[i] = requestBody(opts, s)
	}

	setupSpan := r.tr.begin("setup", 0, 0)
	start := time.Now()
	store, err := newStore(r, "warm")
	if err != nil {
		return err
	}
	d, err := startDaemon(opts, store, true)
	if err != nil {
		return err
	}
	defer d.close()
	c := newClient(d.ts.URL, r)
	defer c.closeIdle()
	want, err := postAll(ctx, c, bodies, setupSpan)
	if err != nil {
		return fmt.Errorf("serve_warm set-up: %w", err)
	}
	r.set("setup_s", time.Since(start).Seconds())
	r.tr.end(setupSpan)

	wasTallied := tallied(opts, store, specs)
	for i, ok := range wasTallied {
		r.check(ok, fmt.Sprintf("serve_warm: set-up left %s without a tally", specs[i]))
	}
	runtime.GC()
	warm := r.tr.begin("warm_up", 0, 0)
	closedLoop(ctx, r, c, bodies, want, warmUp, warm)
	r.tr.end(warm)
	before, err := snapshot(ctx, c, store)
	if err != nil {
		return err
	}
	loop := r.tr.begin("timed_loop", 0, 0)
	samples, elapsed := closedLoop(ctx, r, c, bodies, want, r.seconds, loop)
	r.tr.end(loop)
	after, err := snapshot(ctx, c, store)
	if err != nil {
		return err
	}
	setLatencies(r, samples, elapsed)
	if r.tr == nil {
		return nil
	}
	setDeltas(r, before, after, added(wasTallied, tallied(opts, store, specs)))

	// A direct MeasureContext on the same store and spec: the tally hit
	// without HTTP, the batcher or singleflight in front of it.
	measured := make([]float64, len(specs))
	mopts := opts
	mopts.Store = store
	for i, s := range specs {
		var reps []float64
		for k := 0; k < 3; k++ {
			var err error
			dur := r.tr.do("harness.MeasureContext", 0, func() {
				_, err = harness.MeasureContext(ctx, mopts, []harness.CellSpec{s}, 1)
			})
			if err != nil {
				return fmt.Errorf("serve_warm: measuring %s: %w", s, err)
			}
			reps = append(reps, ms(dur))
		}
		measured[i] = median(reps)
	}
	// server.self_ms: the median over requests of latency minus the
	// direct measure of the same spec.
	self := make([]float64, 0, len(samples))
	for _, s := range samples {
		self = append(self, ms(s.latency)-measured[s.spec])
	}
	r.set("server.self_ms", median(self))
	r.set("harness.measure_ms", median(measured))
	return nil
}

// zipfPicker draws cell indices with a skewed popularity: ranks follow
// a Zipf law and a seeded permutation decides which cell holds which
// rank.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPicker(seed int64, n int) *zipfPicker {
	rng := rand.New(rand.NewSource(seed))
	return &zipfPicker{z: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (p *zipfPicker) next() int { return p.perm[p.z.Uint64()] }

// closedLoop runs two connections for length, each posting its next
// cell as soon as the previous answer arrived, and checks every answer.
func closedLoop(ctx context.Context, r *run, c *client, bodies, want [][]byte, length time.Duration, parent int) ([]sample, time.Duration) {
	per := make([][]sample, workers)
	start := time.Now()
	deadline := start.Add(length)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pick := newZipfPicker(r.seed*workers+int64(w), len(bodies))
			for time.Now().Before(deadline) {
				i := pick.next()
				status, got, lat, err := c.post(ctx, bodies[i], parent)
				ok := err == nil && status == http.StatusOK && bytes.Equal(got, want[i])
				per[w] = append(per[w], sample{spec: i, latency: lat, done: time.Since(start), ok: ok})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	for _, s := range all {
		r.check(s.ok, fmt.Sprintf("%s: response for %s differs from the expected body", r.workload, bodies[s.spec]))
	}
	return all, elapsed
}
