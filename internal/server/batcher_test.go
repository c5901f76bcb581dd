package server

// The gang-batcher suite. Every test drives the accumulation window
// with the fake clock and synchronizes on server counters or fault
// gates — never a real-time sleep — so the batching, deadline and
// drain races are exercised deterministically under -race.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wheretime/internal/faults"
	"wheretime/internal/trace"
	"wheretime/internal/tracestore"
)

// Three platform-only variants of the SRS microbenchmark: same
// emission key, distinct tally keys — the shape the batcher exists
// for.
var srsVariants = []string{
	srsCell,
	`{"kind":"micro","system":"B","query":"SRS","l2kb":1024}`,
	`{"kind":"micro","system":"B","query":"SRS","l2kb":2048}`,
}

// newBatchedServer assembles a batching server on a fake clock.
func newBatchedServer(t *testing.T, fc *fakeClock, window time.Duration, max int, inj *faults.Injector) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		Opts:       testOpts(),
		Inj:        inj,
		Logf:       t.Logf,
		GangWindow: window,
		GangMax:    max,
		clk:        fc,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

type postResult struct {
	status int
	body   []byte
}

// asyncPost posts one cell body on its own goroutine.
func asyncPost(t *testing.T, url, body string) <-chan postResult {
	t.Helper()
	ch := make(chan postResult, 1)
	go func() {
		status, b := postCell(t, url, body)
		ch <- postResult{status, b}
	}()
	return ch
}

// TestBatchedByteEquivalence is the tentpole acceptance test: N
// concurrent requests for K platform variants of one workload,
// batched behind the window, answer byte-identically to a
// gangwindow=0 control server — and cost ONE workload execution
// instead of K.
func TestBatchedByteEquivalence(t *testing.T) {
	fc := newFakeClock()
	srv, ts := newBatchedServer(t, fc, 50*time.Millisecond, 0, nil)

	// Two concurrent requests per variant: duplicates coalesce at the
	// singleflight layer, distinct variants meet in the batch window.
	const per = 2
	k := len(srsVariants)
	n := k * per
	results := make([][]postResult, k)
	var wg sync.WaitGroup
	for vi, body := range srsVariants {
		results[vi] = make([]postResult, per)
		for j := 0; j < per; j++ {
			wg.Add(1)
			go func(vi, j int, body string) {
				defer wg.Done()
				status, b := postCell(t, ts.URL, body)
				results[vi][j] = postResult{status, b}
			}(vi, j, body)
		}
	}
	// Wait until every flight leader is parked in the window and every
	// duplicate has attached to its flight, then release the window.
	spinUntil(t, "members to accumulate", func() bool {
		return srv.batch.batched.Load() == int64(k) && srv.coalesced.Load() == int64(n-k)
	})
	fc.Advance(50 * time.Millisecond)
	wg.Wait()

	if got := srv.simulations.Load(); got != 1 {
		t.Errorf("batched burst ran %d simulations, want 1", got)
	}
	h := health(t, ts.URL)
	if h.Batch == nil {
		t.Fatal("healthz has no batch section with batching on")
	}
	if h.Batch.GangsFormed != 1 || h.Batch.MeanK != float64(k) ||
		h.Batch.WindowCloses != 1 || h.Batch.CapCloses != 0 ||
		h.Batch.BatchedRequests != int64(k) {
		t.Errorf("batch counters = %+v, want 1 gang of K=%d closed by its window", h.Batch, k)
	}

	// Control: the same request set against a server with batching off.
	_, control := newTestServer(t, nil, nil)
	for vi, body := range srsVariants {
		status, want := postCell(t, control.URL, body)
		if status != http.StatusOK {
			t.Fatalf("control %d: status %d: %s", vi, status, want)
		}
		for j := 0; j < per; j++ {
			r := results[vi][j]
			if r.status != http.StatusOK {
				t.Errorf("batched %d/%d: status %d: %s", vi, j, r.status, r.body)
				continue
			}
			if !bytes.Equal(r.body, want) {
				t.Errorf("variant %d request %d: batched response differs from unbatched control:\n%s\nvs\n%s",
					vi, j, r.body, want)
			}
		}
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestBatchTallyHitSkipsWindow: with batching on and the fake clock
// never advanced, a stored cell answers at once with the bytes its
// cold measurement produced, and never enters a window.
func TestBatchTallyHitSkipsWindow(t *testing.T) {
	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_, cold := newTestServer(t, store, nil)
	status, want := postCell(t, cold.URL, srsVariants[1])
	if status != http.StatusOK {
		t.Fatalf("cold request: status %d: %s", status, want)
	}

	srv, err := New(Config{Opts: testOpts(), Store: store, Logf: t.Logf, GangWindow: time.Hour, clk: newFakeClock()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.BeginDrain() // before ts.Close: flushes a window a miss would wait in

	res := asyncPost(t, ts.URL, srsVariants[1])
	var r postResult
	spinUntil(t, "the tally hit to answer", func() bool {
		select {
		case r = <-res:
			return true
		default:
			return srv.batch.batched.Load() > 0
		}
	})
	if srv.batch.batched.Load() > 0 {
		t.Fatal("a stored cell entered the gang window")
	}
	if r.status != http.StatusOK || !bytes.Equal(r.body, want) {
		t.Errorf("tally hit: status %d, body equal to cold=%v:\n%s\nvs\n%s", r.status, bytes.Equal(r.body, want), r.body, want)
	}
	h := health(t, ts.URL)
	if h.Batch.BatchedRequests != 0 || h.Batch.GangsFormed != 0 || h.TallyHits != 1 || h.Simulations != 0 {
		t.Errorf("batch %+v tallyHits %d simulations %d, want no window, one hit, no simulation",
			h.Batch, h.TallyHits, h.Simulations)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestBatchCapCloses: a window that fills to GangMax dispatches
// immediately — no clock advance at all — and the counter says the
// cap closed it.
func TestBatchCapCloses(t *testing.T) {
	fc := newFakeClock()
	srv, ts := newBatchedServer(t, fc, time.Hour, 2, nil)

	r1 := asyncPost(t, ts.URL, srsVariants[0])
	r2 := asyncPost(t, ts.URL, srsVariants[1])
	for i, ch := range []<-chan postResult{r1, r2} {
		if r := <-ch; r.status != http.StatusOK {
			t.Errorf("request %d: status %d: %s", i, r.status, r.body)
		}
	}
	h := health(t, ts.URL)
	if h.Batch.CapCloses != 1 || h.Batch.WindowCloses != 0 || h.Batch.GangsFormed != 1 || h.Batch.MeanK != 2 {
		t.Errorf("batch counters = %+v, want 1 gang of 2 closed by the cap", h.Batch)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestBatchDeadlineInsideWindow: a request whose deadline expires
// while it is HELD IN the accumulation window answers 504 — hold time
// counts against the budget — without poisoning the gang: the other
// member still measures and answers 200. Buffers return to baseline.
func TestBatchDeadlineInsideWindow(t *testing.T) {
	c0, e0, b0 := trace.LiveBuffers()
	fc := newFakeClock()
	srv, ts := newBatchedServer(t, fc, 100*time.Millisecond, 0, nil)

	impatient := `{"kind":"micro","system":"B","query":"SRS","timeoutMs":50}`
	rA := asyncPost(t, ts.URL, impatient)
	rB := asyncPost(t, ts.URL, srsVariants[1])
	spinUntil(t, "both members in the window", func() bool {
		return srv.batch.batched.Load() == 2
	})

	// Past A's deadline, still inside the window: A answers 504 now.
	fc.Advance(50 * time.Millisecond)
	a := <-rA
	if a.status != http.StatusGatewayTimeout || !bytes.Contains(a.body, []byte("deadline")) {
		t.Fatalf("impatient member: status %d body %s, want a 504 naming the deadline", a.status, a.body)
	}

	// The rest of the window elapses; the gang runs without A.
	fc.Advance(50 * time.Millisecond)
	b := <-rB
	if b.status != http.StatusOK {
		t.Fatalf("surviving member: status %d: %s", b.status, b.body)
	}
	_, control := newTestServer(t, nil, nil)
	if _, want := postCell(t, control.URL, srsVariants[1]); !bytes.Equal(b.body, want) {
		t.Errorf("surviving member differs from control:\n%s\nvs\n%s", b.body, want)
	}

	h := health(t, ts.URL)
	if h.Batch.GangsFormed != 1 || h.Batch.MeanK != 1 {
		t.Errorf("batch counters = %+v, want 1 gang of 1 (the abandoned member skipped)", h.Batch)
	}
	if h.Failures < 1 {
		t.Errorf("failures = %d, want >= 1 for the abandoned member", h.Failures)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	if c, e, bl := trace.LiveBuffers(); c != c0 || e != e0 || bl != b0 {
		t.Errorf("leaked trace buffers: chunks %d->%d encBufs %d->%d blocks %d->%d", c0, c, e0, e, b0, bl)
	}
}

// TestBatchLeaderDisconnectMidWindow: the client that OPENED the
// window going away does not kill the gang — the member rides along,
// the simulation runs once, and the surviving member's response is
// untouched.
func TestBatchLeaderDisconnectMidWindow(t *testing.T) {
	c0, e0, b0 := trace.LiveBuffers()
	fc := newFakeClock()
	srv, ts := newBatchedServer(t, fc, 100*time.Millisecond, 0, nil)

	// The window opener, on a cancelable request.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/cells",
			strings.NewReader(srsVariants[0]))
		if err != nil {
			errc <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	spinUntil(t, "the leader to open the window", func() bool {
		return srv.batch.batched.Load() == 1
	})
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request did not error")
	}

	rB := asyncPost(t, ts.URL, srsVariants[1])
	spinUntil(t, "the second member to join", func() bool {
		return srv.batch.batched.Load() == 2
	})
	fc.Advance(100 * time.Millisecond)
	b := <-rB
	if b.status != http.StatusOK {
		t.Fatalf("surviving member: status %d: %s", b.status, b.body)
	}

	h := health(t, ts.URL)
	if got := srv.simulations.Load(); got != 1 {
		t.Errorf("gang after leader disconnect ran %d simulations, want 1", got)
	}
	if h.Batch.GangsFormed != 1 || h.Batch.MeanK != 2 {
		t.Errorf("batch counters = %+v, want 1 gang of 2 (the departed leader's member included)", h.Batch)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	if c, e, bl := trace.LiveBuffers(); c != c0 || e != e0 || bl != b0 {
		t.Errorf("leaked trace buffers: chunks %d->%d encBufs %d->%d blocks %d->%d", c0, c, e0, e, b0, bl)
	}
}

// TestBatchDrainFlushesHalfFullWindow: drain with a half-full window
// dispatches it immediately — members admitted before the drain get
// real answers, nothing waits out the window, and Close returns
// cleanly with buffers at baseline.
func TestBatchDrainFlushesHalfFullWindow(t *testing.T) {
	c0, e0, b0 := trace.LiveBuffers()
	fc := newFakeClock()
	srv, ts := newBatchedServer(t, fc, time.Hour, 0, nil)

	rA := asyncPost(t, ts.URL, srsVariants[0])
	rB := asyncPost(t, ts.URL, srsVariants[1])
	spinUntil(t, "both members in the window", func() bool {
		return srv.batch.batched.Load() == 2
	})
	srv.BeginDrain() // never advances the clock: the flush must not wait

	for i, ch := range []<-chan postResult{rA, rB} {
		if r := <-ch; r.status != http.StatusOK {
			t.Errorf("drained member %d: status %d: %s", i, r.status, r.body)
		}
	}
	h := health(t, ts.URL)
	if h.Batch.DrainFlushes < 1 {
		t.Errorf("batch counters = %+v, want a drain flush", h.Batch)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	if c, e, bl := trace.LiveBuffers(); c != c0 || e != e0 || bl != b0 {
		t.Errorf("leaked trace buffers: chunks %d->%d encBufs %d->%d blocks %d->%d", c0, c, e0, e, b0, bl)
	}
}

// TestBatchWorkerPanic: a panic inside the gang answers 500 to every
// member and the server keeps serving.
func TestBatchWorkerPanic(t *testing.T) {
	fc := newFakeClock()
	inj := faults.New()
	inj.PanicN(faults.OpWorker, 1, "blown gang fuse")
	srv, ts := newBatchedServer(t, fc, 50*time.Millisecond, 0, inj)

	rA := asyncPost(t, ts.URL, srsVariants[0])
	rB := asyncPost(t, ts.URL, srsVariants[1])
	spinUntil(t, "both members in the window", func() bool {
		return srv.batch.batched.Load() == 2
	})
	fc.Advance(50 * time.Millisecond)
	for i, ch := range []<-chan postResult{rA, rB} {
		r := <-ch
		if r.status != http.StatusInternalServerError || !bytes.Contains(r.body, []byte("panic")) {
			t.Errorf("member %d: status %d body %s, want a 500 naming the panic", i, r.status, r.body)
		}
	}

	// The next window is healthy.
	rc := asyncPost(t, ts.URL, srsVariants[0])
	spinUntil(t, "the retry to open a window", func() bool {
		return srv.batch.batched.Load() == 3
	})
	fc.Advance(50 * time.Millisecond)
	if r := <-rc; r.status != http.StatusOK {
		t.Errorf("request after gang panic: status %d: %s", r.status, r.body)
	}
	if h := health(t, ts.URL); h.Failures < 2 {
		t.Errorf("failures = %d, want >= 2 (both panicked members)", h.Failures)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestBatchConfigValidation: negative knobs are rejected; a zero
// window means no batcher and no /healthz batch section.
func TestBatchConfigValidation(t *testing.T) {
	if _, err := New(Config{Opts: testOpts(), GangWindow: -time.Millisecond}); err == nil {
		t.Error("New accepted a negative gang window")
	}
	if _, err := New(Config{Opts: testOpts(), GangWindow: time.Millisecond, GangMax: -1}); err == nil {
		t.Error("New accepted a negative gang max")
	}
	_, ts := newTestServer(t, nil, nil)
	if h := health(t, ts.URL); h.Batch != nil {
		t.Error("healthz has a batch section with batching off")
	}
}
