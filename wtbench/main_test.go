package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"wheretime/internal/engine"
	"wheretime/internal/harness"
)

// newTestRun returns a short untraced run of the warm loop.
func newTestRun(t *testing.T) *run {
	return &run{
		workload: "serve_warm",
		seed:     7,
		seconds:  200 * time.Millisecond,
		dir:      t.TempDir(),
		metrics:  make(map[string]float64),
	}
}

// TestWarmCheckCatchesAlteredBody posts one cell, then runs the warm
// loop against the body the server really answered and against a copy
// with one byte changed: the first run must report no mismatch, the
// second must count every request as failed.
func TestWarmCheckCatchesAlteredBody(t *testing.T) {
	opts := harness.DefaultOptions()
	opts.Scale = 0.002
	spec := harness.CellSpec{
		Kind: harness.CellMicro, System: engine.SystemB, Query: harness.BRS,
		Selectivity: opts.Selectivity, RecordSize: opts.RecordSize, Config: opts.Config,
	}
	d, err := startDaemon(opts, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	r := newTestRun(t)
	c := newClient(d.ts.URL, r)
	defer c.closeIdle()
	ctx := context.Background()
	bodies := [][]byte{requestBody(opts, spec)}
	want, err := postAll(ctx, c, bodies, 0)
	if err != nil {
		t.Fatal(err)
	}

	samples, _ := closedLoop(ctx, r, c, bodies, want, r.seconds, 0)
	if len(samples) == 0 || r.attempted != len(samples) || r.failed != 0 {
		t.Fatalf("true body: %d samples, %d attempted, %d failed; want all passing", len(samples), r.attempted, r.failed)
	}

	altered := bytes.Clone(want[0])
	altered[len(altered)/2] ^= 1
	bad := newTestRun(t)
	samples, _ = closedLoop(ctx, bad, c, bodies, [][]byte{altered}, bad.seconds, 0)
	if len(samples) == 0 || bad.failed != len(samples) || bad.attempted != len(samples) {
		t.Fatalf("altered body: %d samples, %d attempted, %d failed; want every sample failed", len(samples), bad.attempted, bad.failed)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, beyond := percentile(xs, 90); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10 beyond", v, beyond)
	}
	if v, beyond := percentile([]float64{3, 1, 2}, 90); v != 3 || beyond != 0 {
		t.Errorf("p90 of 3 samples = %v with %d beyond, want the maximum with none beyond", v, beyond)
	}
}
