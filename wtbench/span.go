package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the
// program's layers. Spans stay in memory and are written once, when
// the run ends. A nil *tracer records nothing, so the untraced run
// pays only a nil check per call site.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the 1-based row of the span that
// caused it in the written file (0 for a root span); spans of one
// request share a request id (0 when the span belongs to no request).
type span struct {
	name       string
	start, end time.Duration
	parent     int
	request    int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id, which is also its row in the
// written file. The caller closes it with end.
func (t *tracer) begin(name string, parent int, request int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, request: request})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// do runs f inside a span and returns how long f took. The duration is
// measured whether or not tracing is on.
func (t *tracer) do(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent, 0)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// count reports how many spans were recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves the spans as CSV rows "name,start_ns,end_ns,parent,request_id",
// preceded by comment lines carrying notes (such as the tracing
// overhead). Times are nanoseconds since the run began.
func (t *tracer) write(path string, notes []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, n := range notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,request_id")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.request)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
