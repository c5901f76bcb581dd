package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"wheretime/internal/engine"
	"wheretime/internal/fanout"
	"wheretime/internal/trace"
	"wheretime/internal/tracestore"
	"wheretime/internal/workload"
	"wheretime/internal/xeon"
)

// This file is the concurrent experiment grid. Every figure and table
// of the paper decomposes into independent measurement cells — one
// (system, query, parameter point) simulation each — declared up front
// as CellSpecs, measured by a worker pool over isolated per-worker
// simulator stacks, and aggregated deterministically so the rendered
// tables are byte-identical regardless of completion order or worker
// count.

// CellKind selects the measurement protocol of a grid cell.
type CellKind int

const (
	// CellMicro is one microbenchmark query (Section 3.3) under the
	// warm-cache protocol of Section 4.3.
	CellMicro CellKind = iota
	// CellTPCD is the summed 17-query decision-support suite.
	CellTPCD
	// CellTPCC is the OLTP transaction mix of Section 5.5.
	CellTPCC
)

// CellSpec is one independent cell of the experiment grid, fully
// resolved (no defaults left implicit) so that equal specs from
// different figures deduplicate to a single simulation. It is a
// comparable value and doubles as the aggregation key.
type CellSpec struct {
	Kind   CellKind
	System engine.System
	// Query is the microbenchmark query (CellMicro only).
	Query QueryKind
	// Selectivity applies to CellMicro range selections.
	Selectivity float64
	// RecordSize is the R/S record width; cells off the base width are
	// measured in a sub-environment built at that width.
	RecordSize int
	// Txns is the transaction count (CellTPCC only).
	Txns int
	// Config is the simulated platform the cell is measured on. The
	// zero value means the run options' platform. Config never
	// influences the emitted event stream — only how the stream is
	// costed — so cells differing only here share one recording and
	// gang into a single multi-config drain (see Measure).
	Config xeon.Config
}

// emissionKey strips the platform configuration from a spec, leaving
// exactly the fields that determine the emitted event stream: the key
// the trace cache stores captures under, and the key the gang
// scheduler groups by.
func emissionKey(spec CellSpec) CellSpec {
	spec.Config = xeon.Config{}
	return spec
}

// configFor resolves a spec's platform: its explicit Config, or the
// options' when the spec leaves it zero.
func (o Options) configFor(spec CellSpec) xeon.Config {
	if spec.Config == (xeon.Config{}) {
		return o.Config
	}
	return spec.Config
}

// String names the cell for diagnostics, including the platform when
// the spec pins one (sweeps measure otherwise-identical cells on
// several platforms, and an error must say which).
func (c CellSpec) String() string {
	var name string
	switch c.Kind {
	case CellTPCD:
		name = fmt.Sprintf("%s/TPC-D", c.System)
	case CellTPCC:
		name = fmt.Sprintf("%s/TPC-C(%d)", c.System, c.Txns)
	default:
		name = fmt.Sprintf("%s/%s(sel=%g,rec=%dB)", c.System, c.Query, c.Selectivity, c.RecordSize)
	}
	if c.Config != (xeon.Config{}) {
		name += fmt.Sprintf("@[L1=%d/%dKB L2=%dKB BTB=%d]",
			c.Config.L1ISizeKB, c.Config.L1DSizeKB, c.Config.L2SizeKB, c.Config.BTBEntries)
	}
	return name
}

// microCell returns the base-environment spec for (s, q) under opts.
func microCell(opts Options, s engine.System, q QueryKind) CellSpec {
	return CellSpec{
		Kind:        CellMicro,
		System:      s,
		Query:       q,
		Selectivity: opts.Selectivity,
		RecordSize:  opts.RecordSize,
		Config:      opts.Config,
	}
}

// RunSpec measures one grid cell against this environment, building
// and caching a sub-environment when the cell's record size differs
// from the base. Not safe for concurrent use — the concurrent grid
// gives each worker a private Env via EnvFactory.
func (env *Env) RunSpec(spec CellSpec) (Cell, error) {
	cfg := env.Opts.configFor(spec)
	switch spec.Kind {
	case CellTPCD:
		return env.runTPCDMemo(spec.System, cfg)
	case CellTPCC:
		cell, _, err := env.runTPCCCfg(spec.System, spec.Txns, cfg)
		return cell, err
	case CellMicro:
		target, err := env.microTarget(spec)
		if err != nil {
			return Cell{}, err
		}
		return target.runMemo(spec.System, spec.Query, cfg)
	default:
		return Cell{}, fmt.Errorf("harness: unknown cell kind %d", spec.Kind)
	}
}

// microTarget routes a micro cell to the environment it measures in:
// the base env, the cached sub-environment at the cell's record size,
// and/or a shallow selectivity shift.
func (env *Env) microTarget(spec CellSpec) (*Env, error) {
	target := env
	if spec.RecordSize != env.Opts.RecordSize {
		sub, err := env.subEnv(spec.RecordSize)
		if err != nil {
			return nil, err
		}
		target = sub
	}
	if spec.Selectivity != target.Opts.Selectivity {
		// A shallow copy shares the databases, engines and memo map
		// (the memo key includes selectivity); only the query text
		// changes.
		shifted := *target
		shifted.Opts.Selectivity = spec.Selectivity
		target = &shifted
	}
	return target, nil
}

// RunGang measures one gang: cells that share an emission-relevant
// key (same system, query and workload parameters) and differ only in
// platform configuration. The whole gang is one work unit on one
// multi-config drain — the engine executes (or the recording is read)
// once for all K configurations. Each cell's counters are
// bit-identical to measuring it alone; the golden suite runs the grid
// both gang-on and gang-off against the same files.
func (env *Env) RunGang(unit []CellSpec) ([]Cell, error) {
	cfgs := make([]xeon.Config, len(unit))
	for i := range unit {
		cfgs[i] = env.Opts.configFor(unit[i])
	}
	spec := unit[0]
	switch spec.Kind {
	case CellTPCD:
		return env.runGangTPCD(unit, cfgs)
	case CellTPCC:
		return env.runGangTPCC(unit, cfgs)
	case CellMicro:
		target, err := env.microTarget(spec)
		if err != nil {
			return nil, err
		}
		return target.runGangMicro(unit, cfgs)
	default:
		return nil, fmt.Errorf("harness: unknown cell kind %d", spec.Kind)
	}
}

// subEnv returns the cached environment rebuilt at the given record
// size, constructing it on first use. Sub-environments share the
// parent's trace cache (the cache key includes the record size), so
// the worker's recording budget is accounted once.
func (env *Env) subEnv(recordSize int) (*Env, error) {
	if sub, ok := env.subenvs[recordSize]; ok {
		return sub, nil
	}
	opts := env.Opts
	opts.RecordSize = recordSize
	// The sub-environment shares the parent's warm-start machinery
	// rather than opening its own: clear the store options before
	// building, then alias the parent's cache, memo and store handle
	// (the keys all include the record size, so sharing is safe).
	opts.StoreDir = ""
	opts.Store = nil
	sub, err := NewEnv(opts)
	if err != nil {
		return nil, err
	}
	sub.traces = env.traces
	sub.snaps = env.snaps
	sub.store = env.store
	env.subenvs[recordSize] = sub
	return sub, nil
}

// cellTrace is one cached capture: the recorded stream of a cell
// (one run of a micro query, one suite pass for TPC-D, the measured
// mix for TPC-C, whose warm-up slice rides along in warm) plus the
// execution results replay cannot recompute. A cellTrace is immutable
// once stored; replays only read it.
type cellTrace struct {
	stream *trace.Recording
	warm   *trace.Recording
	result engine.Result
	stats  workload.TPCCStats
}

// bytes returns the capture's retained arena footprint — compressed
// bytes, the quantity the worker's cache budget is denominated in
// (raw bytes under Options.UncompressedArena).
func (ct *cellTrace) bytes() int {
	n := ct.stream.Bytes()
	if ct.warm != nil {
		n += ct.warm.Bytes()
	}
	return n
}

// release returns the capture's chunks to the shared free list.
func (ct *cellTrace) release() {
	ct.stream.Release()
	if ct.warm != nil {
		ct.warm.Release()
	}
}

// traceCache is a worker's record-once/replay-many store: captured
// event streams keyed by the emission-relevant cell spec — system,
// query, workload parameters; deliberately not the platform Config,
// which never influences the emitted stream. A revisit of the same
// cell replays the capture instead of re-running the engine. Note
// where the hits actually come from: the grid scheduler deduplicates
// specs and the breakdown memo absorbs repeated Run calls, so inside
// one RunExperiments pass the cache mostly feeds the within-cell
// warm-up replays; the cross-cell wins are direct Env revisits that
// bypass the memo — repeated RunTPCC calls (which also skip the
// database rebuild) and memo-cleared reruns. The retained footprint
// is budgeted in arena bytes — compressed bytes since the columnar
// codec, so one budget holds ~8x the events it held raw — and
// insertion-order eviction releases the oldest captures back to the
// free lists. Like everything under an Env, a traceCache belongs to
// one worker goroutine.
type traceCache struct {
	budget int // retained-arena budget, bytes
	total  int // retained arena across entries, bytes
	order  []CellSpec
	cells  map[CellSpec]*cellTrace
}

func newTraceCache(budget int) *traceCache {
	return &traceCache{budget: budget, cells: make(map[CellSpec]*cellTrace)}
}

// lookup returns the capture for key, if cached. Keys normalise
// through emissionKey, so a config-bearing spec finds the capture its
// stream shares with every other platform. Nil-safe: a nil cache
// (recording disabled) never hits.
func (tc *traceCache) lookup(key CellSpec) (*cellTrace, bool) {
	if tc == nil {
		return nil, false
	}
	ct, ok := tc.cells[emissionKey(key)]
	return ct, ok
}

// store retains a capture, evicting the oldest entries when the
// worker's byte budget would overflow. A capture bigger than the
// whole budget is released immediately. Keys normalise through
// emissionKey like lookup's.
func (tc *traceCache) store(key CellSpec, ct *cellTrace) {
	if tc == nil {
		ct.release()
		return
	}
	key = emissionKey(key)
	if old, ok := tc.cells[key]; ok {
		// Replacing an entry (same cell re-captured): drop the old one.
		tc.total -= old.bytes()
		old.release()
		delete(tc.cells, key)
		for i, k := range tc.order {
			if k == key {
				tc.order = append(tc.order[:i], tc.order[i+1:]...)
				break
			}
		}
	}
	n := ct.bytes()
	if n > tc.budget {
		ct.release()
		return
	}
	for tc.total+n > tc.budget && len(tc.order) > 0 {
		oldest := tc.order[0]
		tc.order = tc.order[1:]
		if old, ok := tc.cells[oldest]; ok {
			tc.total -= old.bytes()
			old.release()
			delete(tc.cells, oldest)
		}
	}
	tc.cells[key] = ct
	tc.order = append(tc.order, key)
	tc.total += n
}

// drop releases every retained capture back to the shared free lists
// and empties the cache. Called from Env.Close: a finished grid must
// hand its arenas back so a long-running process (the wheretimed
// service) does not accrete one cache of captures per request.
func (tc *traceCache) drop() {
	if tc == nil {
		return
	}
	for _, ct := range tc.cells {
		ct.release()
	}
	tc.cells = make(map[CellSpec]*cellTrace)
	tc.order = nil
	tc.total = 0
}

// EnvFactory lazily builds one isolated simulator stack — databases,
// engines, caches, pipelines — for a single worker. Nothing under a
// factory is shared with any other factory, so workers never contend:
// the xeon pipeline, storage pool, engine routine state and result
// memo are all private to the worker that built them.
type EnvFactory struct {
	opts Options
	base *Env
}

// NewEnvFactory returns a factory for stacks at the given options.
func NewEnvFactory(opts Options) *EnvFactory {
	return &EnvFactory{opts: opts}
}

// Env returns the factory's environment, building it on first use so
// workers that never receive a cell never pay for data generation.
func (f *EnvFactory) Env() (*Env, error) {
	if f.base == nil {
		env, err := NewEnv(f.opts)
		if err != nil {
			return nil, err
		}
		f.base = env
	}
	return f.base, nil
}

// RunSpec measures one cell on the factory's private stack.
func (f *EnvFactory) RunSpec(spec CellSpec) (Cell, error) {
	env, err := f.Env()
	if err != nil {
		return Cell{}, err
	}
	return env.RunSpec(spec)
}

// Results holds measured cells keyed by spec. Renders read from it in
// their own canonical order, so the tables they produce do not depend
// on the order cells were measured in.
type Results struct {
	cells map[CellSpec]Cell
	// env, when set, measures missing cells on demand: the serial path
	// and the env-backed compatibility wrappers use it.
	env *Env
	// envs counts the environments MeasureContext built to fill the
	// set, so tests can assert that stored answers built none.
	envs int
}

// envResults wraps an environment as a lazily-measuring result set.
func envResults(env *Env) *Results {
	return &Results{cells: make(map[CellSpec]Cell), env: env}
}

// Get returns the measured cell for spec.
func (r *Results) Get(spec CellSpec) (Cell, error) {
	if c, ok := r.cells[spec]; ok {
		return c, nil
	}
	if r.env == nil {
		return Cell{}, fmt.Errorf("harness: cell %s was not measured", spec)
	}
	c, err := r.env.RunSpec(spec)
	if err != nil {
		return Cell{}, err
	}
	r.cells[spec] = c
	return c, nil
}

// DefaultParallelism is the worker count the CLIs default to.
func DefaultParallelism() int { return runtime.NumCPU() }

// dedupeSpecs drops duplicate cells, preserving first-seen order.
func dedupeSpecs(specs []CellSpec) []CellSpec {
	seen := make(map[CellSpec]bool, len(specs))
	out := specs[:0:0]
	for _, s := range specs {
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// gangUnits partitions deduplicated specs into scheduler work units.
// With the gang drain enabled, cells sharing an emission-relevant key
// — the same key the trace cache uses, everything but the platform
// Config — form one multi-config unit; order is first-seen, so the
// serial path remains deterministic. With it disabled (or on the
// unbatched reference path, which measures one event at a time), every
// cell is its own unit.
func gangUnits(opts Options, specs []CellSpec) [][]CellSpec {
	if !opts.Gang || opts.Unbatched {
		units := make([][]CellSpec, len(specs))
		for i, s := range specs {
			units[i] = []CellSpec{s}
		}
		return units
	}
	var order []CellSpec
	groups := make(map[CellSpec][]CellSpec, len(specs))
	for _, s := range specs {
		k := emissionKey(s)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	units := make([][]CellSpec, len(order))
	for i, k := range order {
		units[i] = groups[k]
	}
	return units
}

// measureUnit runs one work unit on an environment: the gang drain
// when enabled, the per-cell path otherwise.
func measureUnit(env *Env, unit []CellSpec, gang bool) ([]Cell, error) {
	if gang {
		cells, err := env.RunGang(unit)
		if err != nil {
			return nil, fmt.Errorf("gang of %d x %s: %w", len(unit), unit[0], err)
		}
		return cells, nil
	}
	cells := make([]Cell, len(unit))
	for i, spec := range unit {
		c, err := env.RunSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", spec, err)
		}
		cells[i] = c
	}
	return cells, nil
}

// PartialError reports a measurement cut short by context
// cancellation: Done of Total scheduler work units finished before the
// barrier fired. It wraps the context's error, so callers distinguish
// a deadline (errors.Is(err, context.DeadlineExceeded)) from an
// explicit cancel (context.Canceled). MeasureContext returns it
// together with the partial Results, which hold every cell the
// finished units measured.
type PartialError struct {
	// Done counts the work units whose cells were fully measured.
	Done int
	// Total is the number of work units the grid scheduled.
	Total int
	// Err is the context's error: Canceled or DeadlineExceeded.
	Err error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("harness: measurement cancelled after %d/%d units: %v", e.Done, e.Total, e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }

// Measure simulates every cell of the grid, fanning the scheduler's
// work units out across parallel workers (parallel <= 1 preserves the
// serial path: one environment, units in declaration order). Cells
// that differ only in platform configuration gang into single units
// measured in one pass over their shared event stream (see RunGang);
// everything else is one cell per unit. Each worker owns an isolated
// simulator stack built by its private EnvFactory, and the aggregated
// Results are independent of scheduling: a cell's measurement is a
// pure function of (opts, spec), which TestParallelMatchesSerial and
// the gang equivalence suite pin down.
func Measure(opts Options, specs []CellSpec, parallel int) (*Results, error) {
	return MeasureContext(context.Background(), opts, specs, parallel)
}

// MeasureContext is Measure under a context: the grid checks for
// cancellation between work units (and, inside a cell, between
// re-execution runs) and stops at the first barrier after ctx is
// cancelled or its deadline passes, returning the partial Results
// measured so far together with a *PartialError wrapping ctx.Err().
// Cancellation never interrupts a cell mid-drain, so no recording is
// abandoned half-captured and no trace buffer leaks; a run that is
// never cancelled is byte-identical to Measure, which the golden
// matrix pins. A store opened from Options.StoreDir is flushed even on
// the cancelled path — the cells already measured warm the next run.
// Before any environment is built, every work unit is offered to the
// tally store (see StoredTallies); units it answers count as done, and
// only the rest are simulated.
func MeasureContext(ctx context.Context, opts Options, specs []CellSpec, parallel int) (*Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Context = ctx
	specs = dedupeSpecs(specs)
	gang := opts.Gang && !opts.Unbatched
	units := gangUnits(opts, specs)
	total := len(units)

	// A StoreDir opens one persistent store for the whole run, shared
	// across every worker (the Store is mutex-guarded) and flushed at
	// the end. A run that was handed an open Store leaves flushing to
	// its owner.
	var flushStore *tracestore.Store
	if opts.Store == nil && opts.StoreDir != "" && opts.maxRecorded() >= 0 {
		store, err := tracestore.Open(opts.StoreDir)
		if err != nil {
			return nil, err
		}
		opts.Store = store
		opts.StoreDir = ""
		flushStore = store
	}
	// finish flushes the run's store additions; on the cancelled path
	// the flush error (if any) rides along with the partial error.
	finish := func(retErr error) error {
		if flushStore == nil {
			return retErr
		}
		if err := flushStore.Flush(); err != nil {
			return errors.Join(retErr, err)
		}
		return retErr
	}

	// Stored tallies first: a unit the store answers whole costs its
	// index reads and nothing else, and counts as done. Only the units
	// left over get an environment; a fully tallied grid builds none.
	res, units := answerUnits(opts, units)
	answered := total - len(units)
	if len(units) == 0 {
		return res, finish(nil)
	}

	if parallel <= 1 {
		env, err := NewEnv(opts)
		if err != nil {
			return nil, err
		}
		defer env.Close()
		res.envs = 1
		for i, unit := range units {
			done := answered + i
			if cerr := ctx.Err(); cerr != nil {
				return res, finish(&PartialError{Done: done, Total: total, Err: cerr})
			}
			cells, err := measureUnit(env, unit, gang)
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					// The unit stopped at an in-cell cancellation
					// barrier, not on a simulation failure.
					return res, finish(&PartialError{Done: done, Total: total, Err: cerr})
				}
				return nil, fmt.Errorf("harness: %w", err)
			}
			for i, spec := range unit {
				res.cells[spec] = cells[i]
			}
		}
		return res, finish(nil)
	}

	type outcome struct {
		cells []Cell
		err   error
	}
	outcomes := make([]outcome, len(units))
	// Worker environments are tracked so their retained captures are
	// released once the grid is done — a long-running caller (the
	// wheretimed service) measures many grids per process and must not
	// accrete trace arenas.
	var envMu sync.Mutex
	var envs []*Env
	fanout.RunContext(ctx, len(units), parallel, func() func(int) bool {
		factory := NewEnvFactory(opts)
		registered := false
		return func(i int) bool {
			env, err := factory.Env()
			if err == nil {
				if !registered {
					envMu.Lock()
					envs = append(envs, env)
					envMu.Unlock()
					registered = true
				}
				var cells []Cell
				cells, err = measureUnit(env, units[i], gang)
				outcomes[i] = outcome{cells: cells, err: err}
			} else {
				outcomes[i] = outcome{err: err}
			}
			return err == nil
		}
	})
	for _, env := range envs {
		env.Close()
	}
	res.envs = len(envs)

	done := answered
	var firstErr error
	for i, o := range outcomes {
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		if o.cells == nil {
			continue // undispatched: the context fired first
		}
		for j, spec := range units[i] {
			res.cells[spec] = o.cells[j]
		}
		done++
	}
	if cerr := ctx.Err(); cerr != nil {
		return res, finish(&PartialError{Done: done, Total: total, Err: cerr})
	}
	if firstErr != nil {
		return nil, fmt.Errorf("harness: %w", firstErr)
	}
	return res, finish(nil)
}

// MeasureGang measures cells that share one emission key — platform
// variants of a single workload — as a single gang work unit: the
// engine executes (or the recording replays) once for every
// configuration in the set (see RunGang). It is the entry the
// wheretimed batcher dispatches an accumulated request window
// through. Specs are deduplicated, and every spec must share the
// first's emission key (equal GangKeys); a mixed set is refused
// rather than split, because silently batching incompatible cells is
// exactly the failure mode the gang key exists to prevent. Each
// cell's result is bit-identical to measuring it alone, which
// TestMeasureGangMatchesMeasure pins against the gang-off path.
func MeasureGang(opts Options, specs []CellSpec) (*Results, error) {
	return MeasureGangContext(context.Background(), opts, specs)
}

// MeasureGangContext is MeasureGang under a context, with the same
// cancellation contract as MeasureContext: the gang stops at the
// first barrier after cancellation and the *PartialError wraps
// ctx.Err().
func MeasureGangContext(ctx context.Context, opts Options, specs []CellSpec) (*Results, error) {
	if opts.Unbatched {
		return nil, errors.New("harness: MeasureGang requires the batched pipeline (Options.Unbatched is set)")
	}
	specs = dedupeSpecs(specs)
	if len(specs) == 0 {
		return &Results{cells: make(map[CellSpec]Cell)}, nil
	}
	key := emissionKey(specs[0])
	for _, s := range specs[1:] {
		if emissionKey(s) != key {
			return nil, fmt.Errorf("harness: MeasureGang: %s does not share an emission key with %s", s, specs[0])
		}
	}
	opts.Gang = true
	return MeasureContext(ctx, opts, specs, 1)
}

// RunExperiments measures the union of the experiments' grids with the
// given parallelism and renders each experiment in the order given.
// The union is deduplicated before scheduling, so running "all"
// simulates each distinct cell exactly once no matter how many figures
// share it.
func RunExperiments(opts Options, exps []Experiment, parallel int) ([][]Table, error) {
	return RunExperimentsContext(context.Background(), opts, exps, parallel)
}

// RunExperimentsContext is RunExperiments under a context: the grid
// stops at the first between-cells barrier after cancellation and the
// error (a *PartialError) reports how far it got. Nothing renders on
// the cancelled path — a figure over half a grid would be misleading —
// but a store configured via Options.StoreDir keeps the finished
// cells, so the interrupted run still warms the next one.
func RunExperimentsContext(ctx context.Context, opts Options, exps []Experiment, parallel int) ([][]Table, error) {
	var specs []CellSpec
	for _, e := range exps {
		specs = append(specs, e.Cells(opts)...)
	}
	res, err := MeasureContext(ctx, opts, specs, parallel)
	if err != nil {
		return nil, err
	}
	out := make([][]Table, len(exps))
	for i, e := range exps {
		tables, err := e.Render(opts, res)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", e.Name, err)
		}
		out[i] = tables
	}
	return out, nil
}
