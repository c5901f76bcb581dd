package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wheretime/internal/engine"
	"wheretime/internal/harness"
	"wheretime/internal/trace"
	"wheretime/internal/tracestore"
	"wheretime/internal/workload"
	"wheretime/internal/xeon"
)

// The layer measurements the traced run adds on every workload: each
// calls one layer directly, on inputs the benchmark builds itself, and
// reports the median of a few repetitions.

const (
	// layerReps is how many times each layer measurement repeats.
	layerReps = 5
	// keepEvents caps how many events of each stream are kept in memory
	// for the codec and drain measurements (32 bytes each).
	keepEvents = 1 << 19
	// tpccTxns is the transaction count of the TPC-C stream.
	tpccTxns = 100
	// calibEvents is the length of the calibration stream, and
	// calibPasses how many times it is drained.
	calibEvents = 1 << 20
	calibPasses = 15
)

// discard is a BatchProcessor that drops every event and counts them.
type discard struct {
	trace.Discard
	n int
}

func (d *discard) ProcessBatch(events []trace.Event) { d.n += len(events) }

// collector drops events after keeping the first keepEvents of them.
type collector struct {
	trace.Discard
	n    int
	kept []trace.Event
}

func (c *collector) ProcessBatch(events []trace.Event) {
	c.n += len(events)
	if room := keepEvents - len(c.kept); room > 0 {
		if len(events) > room {
			events = events[:room]
		}
		c.kept = append(c.kept, events...)
	}
}

// stream is one fixed engine emission: a query or transaction mix run
// from reset engine state.
type stream struct {
	name string
	emit func(proc trace.Processor) error
}

// engineStreams builds the fixed set of streams over env.
func engineStreams(env *harness.Env) []stream {
	query := func(s engine.System, sql string) func(trace.Processor) error {
		return func(proc trace.Processor) error {
			e := env.Engine(s)
			e.ResetState()
			_, err := e.Query(sql, proc)
			return err
		}
	}
	return []stream{
		{"srs_a", query(engine.SystemA, env.Dims.QuerySRS(env.Opts.Selectivity))},
		{"irs_d", query(engine.SystemD, env.Dims.QueryIRS(env.Opts.Selectivity))},
		{"sj_b", query(engine.SystemB, env.Dims.QuerySJ())},
		{"tpcc_c", func(proc trace.Processor) error {
			db, err := workload.BuildTPCC(workload.DefaultTPCCDims())
			if err != nil {
				return err
			}
			_, err = workload.RunTPCC(db, engine.New(engine.SystemC, db.Catalog), proc, tpccTxns)
			return err
		}},
	}
}

// runLayers measures every layer directly and records the results.
func runLayers(r *run) {
	if err := measureLayers(r); err != nil {
		// A failing layer call is a failed operation, not a crash.
		r.check(false, "layers: "+err.Error())
	}
}

func measureLayers(r *run) error {
	opts := harness.DefaultOptions()
	root := r.tr.begin("layers", 0, 0)
	defer r.tr.end(root)

	var newenv []float64
	var env *harness.Env
	for i := 0; i < layerReps; i++ {
		var err error
		d := r.tr.do("harness.NewEnv", root, func() { env, err = harness.NewEnv(opts) })
		if err != nil {
			return err
		}
		newenv = append(newenv, ms(d))
	}
	r.set("harness.newenv_ms", median(newenv))

	r.set("harness.tallykey_us", tallyKeyUS(r, opts, root))

	var build []float64
	for i := 0; i < 3; i++ {
		var err error
		d := r.tr.do("workload.BuildTPCC", root, func() { _, err = workload.BuildTPCC(workload.DefaultTPCCDims()) })
		if err != nil {
			return err
		}
		build = append(build, ms(d))
	}
	r.set("workload.build_tpcc_ms", median(build))

	kept, err := measureEngine(r, env, root)
	if err != nil {
		return err
	}
	recs := measureCodec(r, kept, root)
	defer func() {
		for _, rec := range recs {
			rec.Release()
		}
	}()
	if err := measureOverflow(r, env, root); err != nil {
		return err
	}
	measureXeon(r, opts, kept, root)
	return measureStore(r, recs, root)
}

// tallyKeyUS times harness.TallyKey over every serve_warm cell.
func tallyKeyUS(r *run, opts harness.Options, parent int) float64 {
	specs, err := warmCells(opts)
	if err != nil || len(specs) == 0 {
		return 0
	}
	const calls = 2000
	var reps []float64
	for i := 0; i < layerReps; i++ {
		d := r.tr.do("harness.TallyKey", parent, func() {
			for k := 0; k < calls; k++ {
				_ = harness.TallyKey(opts, specs[k%len(specs)])
			}
		})
		reps = append(reps, float64(d.Nanoseconds())/1e3/calls)
	}
	return median(reps)
}

// measureEngine emits every stream into a discarding processor,
// checking that repeated emissions are identical in length, and
// returns the kept prefix of each stream.
func measureEngine(r *run, env *harness.Env, parent int) (map[string][]trace.Event, error) {
	kept := make(map[string][]trace.Event)
	var perEvent []float64
	streams := engineStreams(env)
	for rep := 0; rep < 3; rep++ {
		var total time.Duration
		events := 0
		for _, s := range streams {
			sink := &discard{}
			var err error
			d := r.tr.do("engine.emit "+s.name, parent, func() { err = s.emit(sink) })
			if err != nil {
				return nil, fmt.Errorf("emitting %s: %w", s.name, err)
			}
			if rep == 0 {
				c := &collector{}
				if err := s.emit(c); err != nil {
					return nil, fmt.Errorf("emitting %s: %w", s.name, err)
				}
				kept[s.name] = c.kept
				r.check(c.n == sink.n, fmt.Sprintf("engine: stream %s emitted %d then %d events", s.name, sink.n, c.n))
				r.set("engine.events."+s.name, float64(sink.n))
			} else {
				r.check(float64(sink.n) == r.metrics["engine.events."+s.name],
					fmt.Sprintf("engine: stream %s changed length to %d events", s.name, sink.n))
			}
			total += d
			events += sink.n
		}
		perEvent = append(perEvent, float64(total.Nanoseconds())/float64(events))
	}
	r.set("engine.emit_ns_per_event", median(perEvent))
	return kept, nil
}

// measureCodec encodes each kept stream into a compressed recording and
// decodes it into a discarding sink, checking the round trip.
func measureCodec(r *run, kept map[string][]trace.Event, parent int) []*trace.Recording {
	var enc, dec []float64
	var recs []*trace.Recording
	bytes, events := 0, 0
	for _, name := range sortedKeys(kept) {
		evs := kept[name]
		if len(evs) == 0 {
			continue
		}
		for rep := 0; rep < layerReps; rep++ {
			rec := trace.NewRecorder(&discard{}, 0)
			d := r.tr.do("trace.encode "+name, parent, func() {
				for off := 0; off < len(evs); off += trace.DefaultBatchCap {
					rec.ProcessBatch(evs[off:min(off+trace.DefaultBatchCap, len(evs))])
				}
			})
			enc = append(enc, float64(d.Nanoseconds())/float64(len(evs)))
			rc := rec.Recording()
			sink := &discard{}
			d = r.tr.do("trace.decode "+name, parent, func() { rc.Drain(sink) })
			dec = append(dec, float64(d.Nanoseconds())/float64(len(evs)))
			r.check(sink.n == len(evs), fmt.Sprintf("trace: %s decoded %d of %d events", name, sink.n, len(evs)))
			if rep == 0 {
				bytes += rc.Bytes()
				events += rc.Len()
				recs = append(recs, rc)
			} else {
				rc.Release()
			}
		}
	}
	r.set("trace.encode_ns_per_event", median(enc))
	r.set("trace.decode_ns_per_event", median(dec))
	if events > 0 {
		r.set("trace.bytes_per_event", float64(bytes)/float64(events))
	}
	return recs
}

// overflowProbe forwards a TPC-D stream into a recorder capped at the
// harness's recording limit, timing the recorder, until the capture
// overflows: the encode work the harness throws away on such streams.
type overflowProbe struct {
	trace.Discard
	rec      *trace.Recorder
	accepted int
	spent    time.Duration
	wasted   int
}

func (p *overflowProbe) ProcessBatch(events []trace.Event) {
	if p.rec.Overflowed() {
		return
	}
	start := time.Now()
	p.rec.ProcessBatch(events)
	p.spent += time.Since(start)
	if p.rec.Overflowed() {
		p.wasted = p.accepted
		return
	}
	p.accepted += len(events)
}

func measureOverflow(r *run, env *harness.Env, parent int) error {
	probe := &overflowProbe{rec: trace.NewRecorder(&discard{}, harness.DefaultMaxRecordedEvents)}
	e := env.Engine(engine.SystemD)
	e.ResetState()
	sp := r.tr.begin("trace.overflow tpcd_d", parent, 0)
	for _, q := range env.Dims.TPCDQueries() {
		if _, err := e.Query(q, probe); err != nil {
			return fmt.Errorf("TPC-D on System D: %w", err)
		}
		if probe.rec.Overflowed() {
			break
		}
	}
	r.tr.end(sp)
	if !probe.rec.Overflowed() {
		// The suite fit under the cap: nothing was wasted.
		probe.spent = 0
		if rc := probe.rec.Recording(); rc != nil {
			rc.Release()
		}
	}
	r.set("trace.overflow_wasted_events", float64(probe.wasted))
	r.set("trace.overflow_wasted_ms", ms(probe.spent))
	return nil
}

// measureXeon drains the kept streams, pre-decoded, through one
// pipeline and through a two-config gang, and times a snapshot and a
// restore of the drained state.
func measureXeon(r *run, opts harness.Options, kept map[string][]trace.Event, parent int) {
	var solo, gang []float64
	alt := opts.Config
	alt.L2SizeKB *= 2
	for _, name := range sortedKeys(kept) {
		evs := kept[name]
		if len(evs) == 0 {
			continue
		}
		p := xeon.New(opts.Config)
		p.ProcessBatch(evs) // warm the simulated hierarchy
		m := xeon.NewMulti([]xeon.Config{opts.Config, alt})
		m.ProcessBatch(evs)
		for rep := 0; rep < layerReps; rep++ {
			d := r.tr.do("xeon.Pipeline.ProcessBatch "+name, parent, func() { p.ProcessBatch(evs) })
			solo = append(solo, float64(d.Nanoseconds())/float64(len(evs)))
			d = r.tr.do("xeon.MultiPipeline.ProcessBatch "+name, parent, func() { m.ProcessBatch(evs) })
			gang = append(gang, float64(d.Nanoseconds())/float64(2*len(evs)))
		}
	}
	r.set("xeon.drain_ns_per_event", median(solo))
	r.set("xeon.drain_k2_ns_per_config_event", median(gang))

	p := xeon.New(opts.Config)
	p.ProcessBatch(kept["sj_b"])
	var snap, restore []float64
	var st *xeon.State
	for rep := 0; rep < 4*layerReps; rep++ {
		d := r.tr.do("xeon.Pipeline.Snapshot", parent, func() { st = p.Snapshot(st) })
		snap = append(snap, float64(d.Nanoseconds())/1e3)
		var err error
		d = r.tr.do("xeon.Pipeline.Restore", parent, func() { err = p.Restore(st) })
		restore = append(restore, float64(d.Nanoseconds())/1e3)
		r.check(err == nil, fmt.Sprintf("xeon: restore: %v", err))
	}
	r.set("xeon.snapshot_us", median(snap))
	r.set("xeon.restore_us", median(restore))
}

// measureStore times the tracestore on a scratch directory: trace and
// entry writes, a flush, then reads through a freshly opened store.
func measureStore(r *run, recs []*trace.Recording, parent int) error {
	dir := filepath.Join(r.dir, "layers-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	store, err := tracestore.Open(dir)
	if err != nil {
		return err
	}
	var putTrace []float64
	var digests []string
	for _, rc := range recs {
		var digest string
		d := r.tr.do("tracestore.PutTrace", parent, func() { digest, err = store.PutTrace(rc) })
		if err != nil {
			return err
		}
		putTrace = append(putTrace, ms(d))
		digests = append(digests, digest)
	}
	r.set("tracestore.put_trace_ms", median(putTrace))

	// Entries the size of a stored tally (a few hundred bytes).
	blob := make([]byte, 512)
	for i := range blob {
		blob[i] = byte(i)
	}
	const entries = 1000
	var putEntry, flush []float64
	for rep := 0; rep < 3; rep++ {
		d := r.tr.do("tracestore.PutEntry", parent, func() {
			for k := 0; k < entries; k++ {
				store.PutEntry(fmt.Sprintf("bench-%d-%d", rep, k), blob)
			}
		})
		putEntry = append(putEntry, float64(d.Nanoseconds())/1e3/entries)
		d = r.tr.do("tracestore.Flush", parent, func() { err = store.Flush() })
		if err != nil {
			return err
		}
		flush = append(flush, ms(d))
	}
	r.set("tracestore.put_entry_us", median(putEntry))
	r.set("tracestore.flush_ms", median(flush))

	reread, err := tracestore.Open(dir)
	if err != nil {
		return err
	}
	var getEntry []float64
	for rep := 0; rep < layerReps; rep++ {
		found := 0
		d := r.tr.do("tracestore.GetEntry", parent, func() {
			for k := 0; k < entries; k++ {
				if _, ok := reread.GetEntry(fmt.Sprintf("bench-0-%d", k)); ok {
					found++
				}
			}
		})
		r.check(found == entries, fmt.Sprintf("tracestore: %d of %d entries read back", found, entries))
		getEntry = append(getEntry, float64(d.Nanoseconds())/1e3/entries)
	}
	r.set("tracestore.get_entry_us", median(getEntry))

	var getTrace []float64
	for i, digest := range digests {
		var rc *trace.Recording
		d := r.tr.do("tracestore.GetTrace", parent, func() { rc, err = reread.GetTrace(digest) })
		if err != nil {
			return err
		}
		r.check(rc != nil && rc.Equal(recs[i]), "tracestore: trace "+digest+" read back different")
		if rc != nil {
			rc.Release()
		}
		getTrace = append(getTrace, ms(d))
	}
	r.set("tracestore.get_trace_ms", median(getTrace))
	return nil
}

// calibrate drains a fixed synthetic stream through a fresh pipeline:
// a host-speed reference that depends on no input the workloads vary.
func calibrate(tr *tracer) float64 {
	evs := synthStream(calibEvents)
	p := xeon.New(xeon.DefaultConfig())
	p.ProcessBatch(evs)
	var reps []float64
	for i := 0; i < calibPasses; i++ {
		d := tr.do("calib.drain", 0, func() { p.ProcessBatch(evs) })
		reps = append(reps, float64(d.Nanoseconds())/float64(len(evs)))
	}
	return median(reps)
}

// synthStream builds an event mix shaped like the grid's hot stream
// from a fixed xorshift sequence: fetches, loads and branches, with
// occasional stores, bursts, stalls and record marks.
func synthStream(n int) []trace.Event {
	evs := make([]trace.Event, 0, n+4)
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; len(evs) < n; i++ {
		code := trace.CodeBase + next()%(1<<18)
		data := trace.HeapBase + next()%(1<<22)
		evs = append(evs,
			trace.Event{Kind: trace.EvFetchBlock, Addr: code &^ 31, Size: 28, A: 7, B: 11},
			trace.Event{Kind: trace.EvLoad, Addr: data, Size: 8},
			trace.Event{Kind: trace.EvBranch, Addr: code, Aux: code + 64, Taken: next()&1 == 0},
		)
		switch i % 8 {
		case 0:
			evs = append(evs, trace.Event{Kind: trace.EvStore, Addr: data + 16, Size: 8})
		case 1:
			evs = append(evs, trace.Event{Kind: trace.EvDataBurst, Addr: trace.PrivateBase + next()%(1<<14), Size: 256, A: 6, B: 2})
		case 2:
			evs = append(evs, trace.ResourceStallEvent(1.5, 0.5, 0.25))
		case 3:
			evs = append(evs, trace.Event{Kind: trace.EvRecordProcessed})
		}
	}
	return evs[:n]
}

func sortedKeys(m map[string][]trace.Event) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
