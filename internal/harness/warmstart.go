package harness

// This file is the warm-start layer: everything that lets a grid cell
// skip work a previous measurement already did, at three depths.
//
//  1. Snapshot memo (in-process). After a cell's warm-up drains, the
//     pipeline's complete simulated state (xeon.State) is memoized per
//     (emission key, platform config). A revisit restores the state
//     and runs only the measured drain — the warm-up passes become a
//     handful of memcpys. On top of that, consecutive warm-up drains
//     are compared for a fixed point: once the state stops changing,
//     further warm-up passes are provably no-ops and stop early.
//  2. Trace store (on disk). Captured streams persist as
//     content-addressed files (tracestore.PutTrace) with a small ref
//     entry carrying what replay cannot recompute; a fresh process
//     replays from disk instead of re-executing the engine.
//  3. Tally store (on disk). The finished breakdown of a cell —
//     counts, cycle components (as float bits, so the round trip is
//     exact), rates, result — persists keyed by (emission key, config,
//     warm-up count). A warm process skips the simulation entirely,
//     and the tally is checked before anything else: StoredTallies
//     answers from the store before an environment is even built.
//
// Every shortcut reproduces the Section 4.3 protocol bit-for-bit: the
// golden suite renders the grid with snapshotting on and off, and with
// the store cold, warm and absent, against the same committed files.
// Store keys fold in engine.StreamSchema(), so a store populated by
// one emission schema is never consulted by another.

import (
	"encoding/json"
	"fmt"
	"math"

	"wheretime/internal/core"
	"wheretime/internal/engine"
	"wheretime/internal/trace"
	"wheretime/internal/tracestore"
	"wheretime/internal/workload"
	"wheretime/internal/xeon"
)

// snapMemoCap bounds the per-worker snapshot memo. A State is ~150 KB
// at the default geometry, so the cap keeps the memo's footprint in
// the tens of megabytes, in line with the trace cache budget.
const snapMemoCap = 128

// snapKey identifies a post-warm-up pipeline state: the emission key
// names the stream that warmed the pipeline, the config names the
// platform it warmed. Gang members share the solo path's entries —
// a gang pipe's state after warm-up is identical to the solo pipe's.
type snapKey struct {
	spec CellSpec
	cfg  xeon.Config
}

// snapMemo holds memoized post-warm-up states with insertion-order
// eviction. Like the trace cache, it belongs to one worker goroutine.
type snapMemo struct {
	limit int
	order []snapKey
	m     map[snapKey]*xeon.State
}

func newSnapMemo(limit int) *snapMemo {
	return &snapMemo{limit: limit, m: make(map[snapKey]*xeon.State)}
}

func (sm *snapMemo) lookup(k snapKey) *xeon.State {
	if sm == nil {
		return nil
	}
	return sm.m[k]
}

func (sm *snapMemo) store(k snapKey, st *xeon.State) {
	if sm == nil || st == nil {
		return
	}
	if _, ok := sm.m[k]; ok {
		sm.m[k] = st
		return
	}
	for len(sm.order) >= sm.limit {
		oldest := sm.order[0]
		sm.order = sm.order[1:]
		delete(sm.m, oldest)
	}
	sm.m[k] = st
	sm.order = append(sm.order, k)
}

// snapshotOn reports whether the snapshot layer is active: it requires
// both the option and recording (a snapshot is only sound when every
// warm-up pass drains the identical recorded stream; the re-execution
// fallback paths never consult it).
func (env *Env) snapshotOn() bool { return env.snaps != nil }

// keyMaterial builds the index-key material for one stored artifact.
// Every key folds in the emission schema token, so a store written by
// one engine version is a clean miss for any other. Config-dependent
// artifacts (tallies, snapshots) also fold in the platform and the
// warm-up count; trace refs deliberately do not — the stream is a
// pure function of the emission key, which is the whole point of
// gangs.
//
// The emission-key fields are spelled out one by one — never through
// CellSpec.String, whose diagnostic rendering drops workload fields
// for some kinds and would collide distinct specs onto one key
// (FuzzGangKeyCompat hunts exactly this). Selectivity folds in as its
// IEEE-754 bits so the material is injective over distinct floats.
func keyMaterial(kind string, spec CellSpec, cfg *xeon.Config, warmup int) string {
	e := emissionKey(spec)
	mat := fmt.Sprintf("wheretime|%s|schema=%s|spec=kind=%d,sys=%d,q=%d,selbits=%x,rec=%d,txns=%d",
		kind, engine.StreamSchema(), e.Kind, e.System, e.Query,
		math.Float64bits(e.Selectivity), e.RecordSize, e.Txns)
	if cfg != nil {
		mat = fmt.Sprintf("%s|cfg=%+v|warmup=%d", mat, *cfg, warmup)
	}
	return mat
}

// storeKey derives the index key for one stored artifact under this
// environment's options.
func (env *Env) storeKey(kind string, spec CellSpec, cfg *xeon.Config) string {
	return tracestore.KeyHash(keyMaterial(kind, spec, cfg, env.Opts.Warmup))
}

// storedKey returns the spec a cell's stored artifacts (tally, trace
// ref, snapshots) are filed under: exactly the emission fields its
// kind's run path measures, so equal measurements share one entry.
// Micro cells keep query, selectivity and record size. A TPC-D suite
// runs on the environment's own databases whatever the spec says, so
// it is filed under opts.RecordSize with no query or selectivity. A
// TPC-C mix builds its own database and keeps only the transaction
// count. An unknown kind keeps its kind, so it can only miss. Every run
// path and StoredTallies derive their keys here.
func storedKey(opts Options, spec CellSpec) CellSpec {
	switch spec.Kind {
	case CellMicro:
		return CellSpec{Kind: CellMicro, System: spec.System, Query: spec.Query,
			Selectivity: spec.Selectivity, RecordSize: spec.RecordSize}
	case CellTPCD:
		return CellSpec{Kind: CellTPCD, System: spec.System, RecordSize: opts.RecordSize}
	case CellTPCC:
		return CellSpec{Kind: CellTPCC, System: spec.System, Txns: spec.Txns}
	default:
		return emissionKey(spec)
	}
}

// TallyKey returns the key that names one fully costed measurement of
// spec at opts: emission key, platform configuration (the spec's, or
// the options' when the spec leaves it zero), warm-up count and
// emission schema, hashed from the spec exactly as given. The
// wheretimed service coalesces identical in-flight requests on it and
// echoes it as the key field of every response. For micro and TPC-C
// specs in the service's normal form it equals the index key of the
// cell's stored tally. It does not for TPC-D, whose tally is filed
// under the options' record size (see storedKey), so store lookups go
// through StoredTallies, never through TallyKey.
func TallyKey(opts Options, spec CellSpec) string {
	cfg := opts.configFor(spec)
	return tracestore.KeyHash(keyMaterial("tally", spec, &cfg, opts.Warmup))
}

// GangKey returns the batching key under which distinct cells may
// share one gang work unit: the platform-free half of the tally key —
// emission key, warm-up count and emission schema, everything except
// the platform configuration. Two specs with equal gang keys emit the
// identical event stream under the identical protocol, so a
// multi-config drain may measure them together (MeasureGang); specs
// with different gang keys must never share a gang, which
// FuzzGangKeyCompat pins from random spec pairs. The wheretimed
// batcher accumulates compatible requests on this key.
func GangKey(opts Options, spec CellSpec) string {
	return tracestore.KeyHash(fmt.Sprintf("%s|warmup=%d", keyMaterial("gang", spec, nil, 0), opts.Warmup))
}

// snapLookup returns the memoized post-warm-up state for (spec, cfg),
// falling back to the store. Only called on the snapshot path.
func (env *Env) snapLookup(spec CellSpec, cfg xeon.Config) *xeon.State {
	k := snapKey{spec: emissionKey(spec), cfg: cfg}
	if st := env.snaps.lookup(k); st != nil {
		return st
	}
	if env.store == nil {
		return nil
	}
	blob, ok := env.store.GetEntry(env.storeKey("snap", spec, &cfg))
	if !ok {
		return nil
	}
	st := &xeon.State{}
	if err := st.UnmarshalBinary(blob); err != nil {
		return nil // corrupt snapshot blob: treat as a miss, recompute
	}
	env.snaps.store(k, st)
	return st
}

// snapStore memoizes a post-warm-up state and persists it when a
// store is attached. The state must not be mutated afterwards.
func (env *Env) snapStore(spec CellSpec, cfg xeon.Config, st *xeon.State) {
	if env.snaps == nil || st == nil {
		return
	}
	env.snaps.store(snapKey{spec: emissionKey(spec), cfg: cfg}, st)
	if env.store != nil {
		if blob, err := st.MarshalBinary(); err == nil {
			env.store.PutEntry(env.storeKey("snap", spec, &cfg), blob)
		}
	}
}

// drainWarmSolo applies the Section 4.3 protocol to a captured stream
// on one pipeline: runs-1 warm-up drains, ResetStats, one measured
// drain — with done passes already performed live by the caller (1 on
// the cold path, whose first execution was captured in flight; 0 on a
// cache hit). With the snapshot layer on, a memoized post-warm-up
// state replaces the remaining warm-up drains with one restore; and
// each warm-up drain's state is compared with the previous one, so a
// fixed point stops warm-up early — every further pass is provably a
// no-op because the next drain's outcome depends only on this state.
// Either shortcut leaves the pipeline exactly where the full protocol
// would; the golden suite pins this across every leg.
func (env *Env) drainWarmSolo(pipe *xeon.Pipeline, stream *trace.Recording, spec CellSpec, cfg xeon.Config, runs, done int) {
	if done >= runs {
		return
	}
	warm := runs - 1
	if env.snapshotOn() && warm > 0 {
		if st := env.snapLookup(spec, cfg); st != nil && pipe.Restore(st) == nil {
			pipe.ResetStats()
			stream.Drain(pipe)
			return
		}
		var prev, cur *xeon.State
		for i := done; i < warm; i++ {
			stream.Drain(pipe)
			cur = pipe.Snapshot(cur)
			if cur.Equal(prev) {
				break // fixed point: the remaining warm-up passes are no-ops
			}
			prev, cur = cur, prev
		}
		env.snapStore(spec, cfg, pipe.Snapshot(prev))
		pipe.ResetStats()
		stream.Drain(pipe)
		return
	}
	for i := done; i < runs; i++ {
		if i == runs-1 {
			pipe.ResetStats()
		}
		stream.Drain(pipe)
	}
}

// drainWarmGang is drainWarmSolo on a multi-config gang. Snapshots
// are looked up and stored per configuration under the same keys the
// solo path uses — a gang pipe's post-warm-up state is identical to
// the solo pipe's for the same (stream, config) — and a restore is
// all-or-nothing (RestoreStates geometry-checks the whole gang before
// touching any pipe), so a partial memo falls back to draining.
func (env *Env) drainWarmGang(multi *xeon.MultiPipeline, stream *trace.Recording, spec CellSpec, cfgs []xeon.Config, runs, done int) {
	if done >= runs {
		return
	}
	warm := runs - 1
	if env.snapshotOn() && warm > 0 {
		states := make([]*xeon.State, len(cfgs))
		all := true
		for i, cfg := range cfgs {
			if states[i] = env.snapLookup(spec, cfg); states[i] == nil {
				all = false
				break
			}
		}
		if all && multi.RestoreStates(states) == nil {
			multi.ResetStats()
			stream.Drain(multi)
			return
		}
		var prev, cur *xeon.MultiState
		for i := done; i < warm; i++ {
			stream.Drain(multi)
			cur = multi.Snapshot(cur)
			if cur.Equal(prev) {
				break
			}
			prev, cur = cur, prev
		}
		final := multi.Snapshot(prev)
		for i, cfg := range cfgs {
			env.snapStore(spec, cfg, final.At(i))
		}
		multi.ResetStats()
		stream.Drain(multi)
		return
	}
	for i := done; i < runs; i++ {
		if i == runs-1 {
			multi.ResetStats()
		}
		stream.Drain(multi)
	}
}

// warmOLTP brings a pipeline to the post-warm-up point of the TPC-C
// protocol from a cached capture: a snapshot restore when one is
// memoized, the captured warm slice otherwise. No fixed-point loop —
// the warm slice runs exactly once and is a different stream from the
// measured mix.
func (env *Env) warmOLTP(pipe *xeon.Pipeline, ct *cellTrace, spec CellSpec, cfg xeon.Config) {
	if env.snapshotOn() {
		if st := env.snapLookup(spec, cfg); st != nil && pipe.Restore(st) == nil {
			return
		}
		ct.warm.Drain(pipe)
		env.snapStore(spec, cfg, pipe.Snapshot(nil))
		return
	}
	ct.warm.Drain(pipe)
}

// warmOLTPGang is warmOLTP on a gang, per-config keys, all-or-nothing
// restore.
func (env *Env) warmOLTPGang(multi *xeon.MultiPipeline, ct *cellTrace, spec CellSpec, cfgs []xeon.Config) {
	if env.snapshotOn() {
		states := make([]*xeon.State, len(cfgs))
		all := true
		for i, cfg := range cfgs {
			if states[i] = env.snapLookup(spec, cfg); states[i] == nil {
				all = false
				break
			}
		}
		if all && multi.RestoreStates(states) == nil {
			return
		}
		ct.warm.Drain(multi)
		st := multi.Snapshot(nil)
		for i, cfg := range cfgs {
			env.snapStore(spec, cfg, st.At(i))
		}
		return
	}
	ct.warm.Drain(multi)
}

// tallyVersion tags the storedTally JSON layout; traceRefVersion the
// storedTraceRef layout. A version bump is a clean cache miss.
const (
	tallyVersion    = 1
	traceRefVersion = 1
)

// storedRates is xeon.HardwareRates with the float fields as IEEE-754
// bits, so the stored tally round-trips exactly.
type storedRates struct {
	FloatBits     [8]uint64 `json:"floatBits"`
	L2Writebacks  uint64    `json:"l2wb"`
	L1DWritebacks uint64    `json:"l1dwb"`
}

func packRates(r xeon.HardwareRates) storedRates {
	return storedRates{
		FloatBits: [8]uint64{
			math.Float64bits(r.L1IMissRate), math.Float64bits(r.L1DMissRate),
			math.Float64bits(r.L2MissRate), math.Float64bits(r.ITLBMissRate),
			math.Float64bits(r.DTLBMissRate), math.Float64bits(r.BTBMissRate),
			math.Float64bits(r.MispredictRate), math.Float64bits(r.TakenBranchFrac),
		},
		L2Writebacks:  r.L2Writebacks,
		L1DWritebacks: r.L1DWritebacks,
	}
}

func unpackRates(s storedRates) xeon.HardwareRates {
	return xeon.HardwareRates{
		L1IMissRate:     math.Float64frombits(s.FloatBits[0]),
		L1DMissRate:     math.Float64frombits(s.FloatBits[1]),
		L2MissRate:      math.Float64frombits(s.FloatBits[2]),
		ITLBMissRate:    math.Float64frombits(s.FloatBits[3]),
		DTLBMissRate:    math.Float64frombits(s.FloatBits[4]),
		BTBMissRate:     math.Float64frombits(s.FloatBits[5]),
		MispredictRate:  math.Float64frombits(s.FloatBits[6]),
		TakenBranchFrac: math.Float64frombits(s.FloatBits[7]),
		L2Writebacks:    s.L2Writebacks,
		L1DWritebacks:   s.L1DWritebacks,
	}
}

// storedTally is a finished cell: everything Run returns, floats as
// bits (Value can be NaN — aggregate over no rows — which plain JSON
// cannot carry).
type storedTally struct {
	Version   int                 `json:"v"`
	Counts    core.Counts         `json:"counts"`
	CycleBits []uint64            `json:"cycleBits"`
	Rates     storedRates         `json:"rates"`
	ValueBits uint64              `json:"valueBits"`
	Rows      uint64              `json:"rows"`
	Stats     *workload.TPCCStats `json:"stats,omitempty"`
}

// readTally reconstructs the finished cell stored under key (a
// storedKey) for platform cfg after warmup warm-up runs. No store, and
// any decode problem — wrong version, wrong shape, a breakdown that
// fails Validate, a TPC-C tally without its transaction statistics —
// is a miss, never an error: the cell is simply recomputed.
func readTally(store *tracestore.Store, warmup int, key CellSpec, cfg xeon.Config) (Cell, *workload.TPCCStats, bool) {
	if store == nil {
		return Cell{}, nil, false
	}
	blob, ok := store.GetEntry(tracestore.KeyHash(keyMaterial("tally", key, &cfg, warmup)))
	if !ok {
		return Cell{}, nil, false
	}
	var t storedTally
	if err := json.Unmarshal(blob, &t); err != nil || t.Version != tallyVersion ||
		len(t.CycleBits) != len(core.Breakdown{}.Cycles) || (key.Kind == CellTPCC && t.Stats == nil) {
		return Cell{}, nil, false
	}
	b := &core.Breakdown{Counts: t.Counts}
	for i, bits := range t.CycleBits {
		b.Cycles[i] = math.Float64frombits(bits)
	}
	if err := b.Validate(); err != nil {
		return Cell{}, nil, false
	}
	cell := Cell{System: key.System, Query: key.Query, Breakdown: b, Rates: unpackRates(t.Rates),
		Result: engine.Result{Value: math.Float64frombits(t.ValueBits), Rows: t.Rows}}
	return cell, t.Stats, true
}

// lookupTally is readTally on this environment's store and warm-up
// count.
func (env *Env) lookupTally(key CellSpec, cfg xeon.Config) (Cell, *workload.TPCCStats, bool) {
	return readTally(env.store, env.Opts.Warmup, key, cfg)
}

// putTally persists a finished cell.
func (env *Env) putTally(spec CellSpec, cfg xeon.Config, cell Cell, stats *workload.TPCCStats) {
	if env.store == nil {
		return
	}
	t := storedTally{
		Version:   tallyVersion,
		Counts:    cell.Breakdown.Counts,
		CycleBits: make([]uint64, len(cell.Breakdown.Cycles)),
		Rates:     packRates(cell.Rates),
		ValueBits: math.Float64bits(cell.Result.Value),
		Rows:      cell.Result.Rows,
		Stats:     stats,
	}
	for i, c := range cell.Breakdown.Cycles {
		t.CycleBits[i] = math.Float64bits(c)
	}
	blob, err := json.Marshal(t)
	if err != nil {
		return
	}
	env.store.PutEntry(env.storeKey("tally", spec, &cfg), blob)
}

// lookupGangTallies returns the whole gang's cells when every member's
// tally is stored — all-or-nothing, so a partial store still measures
// the gang in one pass rather than mixing loaded and simulated cells.
func (env *Env) lookupGangTallies(key CellSpec, cfgs []xeon.Config) ([]Cell, bool) {
	return readGangTallies(env.store, env.Opts.Warmup, key, cfgs)
}

// readGangTallies is the all-or-nothing read behind lookupGangTallies
// and StoredTallies.
func readGangTallies(store *tracestore.Store, warmup int, key CellSpec, cfgs []xeon.Config) ([]Cell, bool) {
	cells := make([]Cell, len(cfgs))
	for i, cfg := range cfgs {
		c, _, ok := readTally(store, warmup, key, cfg)
		if !ok {
			return nil, false
		}
		cells[i] = c
	}
	return cells, true
}

// putGangTallies persists every gang member's cell.
func (env *Env) putGangTallies(key CellSpec, cfgs []xeon.Config, cells []Cell, stats *workload.TPCCStats) {
	for i, cfg := range cfgs {
		env.putTally(key, cfg, cells[i], stats)
	}
}

// StoredTallies answers specs from the tally store alone, with no
// environment, no database and no simulation: the first thing
// MeasureContext and the wheretimed flight body try. Specs are grouped
// into the work units Measure would schedule, and each unit is
// answered all or nothing, so a partly stored gang still measures in
// one pass. It returns the answered cells, bit-identical to what a
// measurement would return, and the deduplicated specs left to
// measure. Only opts.Store is read (MeasureContext opens StoreDir into
// it first), and only when recording is on, the same condition under
// which an environment attaches the store.
func StoredTallies(opts Options, specs []CellSpec) (*Results, []CellSpec) {
	res, pending := answerUnits(opts, gangUnits(opts, dedupeSpecs(specs)))
	var missing []CellSpec
	for _, unit := range pending {
		missing = append(missing, unit...)
	}
	return res, missing
}

// answerUnits files every unit the store answers whole into a fresh
// result set and returns the units still to be measured, in order.
func answerUnits(opts Options, units [][]CellSpec) (*Results, [][]CellSpec) {
	res := &Results{cells: make(map[CellSpec]Cell)}
	if opts.Store == nil || opts.maxRecorded() < 0 {
		return res, units
	}
	var pending [][]CellSpec
	for _, unit := range units {
		cfgs := make([]xeon.Config, len(unit))
		for i, spec := range unit {
			cfgs[i] = opts.configFor(spec)
		}
		cells, ok := readGangTallies(opts.Store, opts.Warmup, storedKey(opts, unit[0]), cfgs)
		if !ok {
			pending = append(pending, unit)
			continue
		}
		for i, spec := range unit {
			res.cells[spec] = cells[i]
		}
	}
	return res, pending
}

// storedTraceRef is the index entry binding a cell's emission key to
// its content-addressed stream(s), plus the execution results replay
// cannot recompute. TPC-C refs carry a second digest (the warm slice)
// and the transaction statistics.
type storedTraceRef struct {
	Version    int                 `json:"v"`
	Digest     string              `json:"digest"`
	WarmDigest string              `json:"warmDigest,omitempty"`
	ValueBits  uint64              `json:"valueBits"`
	Rows       uint64              `json:"rows"`
	Stats      *workload.TPCCStats `json:"stats,omitempty"`
}

// putStoredTrace persists a cell capture: stream (and warm slice) as
// trace files, plus the ref entry. Write errors are swallowed — the
// store is a cache; the measurement that produced the capture stands.
func (env *Env) putStoredTrace(spec CellSpec, ct *cellTrace) {
	if env.store == nil {
		return
	}
	digest, err := env.store.PutTrace(ct.stream)
	if err != nil {
		return
	}
	ref := storedTraceRef{Version: traceRefVersion, Digest: digest,
		ValueBits: math.Float64bits(ct.result.Value), Rows: ct.result.Rows}
	if ct.warm != nil {
		wd, err := env.store.PutTrace(ct.warm)
		if err != nil {
			return
		}
		ref.WarmDigest = wd
	}
	if spec.Kind == CellTPCC {
		stats := ct.stats
		ref.Stats = &stats
	}
	blob, err := json.Marshal(ref)
	if err != nil {
		return
	}
	env.store.PutEntry(env.storeKey("trace", spec, nil), blob)
}

// loadStoredTrace fetches a persisted capture. Like lookupTally, every
// decode problem is a miss; a ref whose trace files went missing or
// corrupt releases whatever loaded and recomputes.
func (env *Env) loadStoredTrace(spec CellSpec) (*cellTrace, bool) {
	if env.store == nil {
		return nil, false
	}
	blob, ok := env.store.GetEntry(env.storeKey("trace", spec, nil))
	if !ok {
		return nil, false
	}
	var ref storedTraceRef
	if err := json.Unmarshal(blob, &ref); err != nil || ref.Version != traceRefVersion {
		return nil, false
	}
	stream, err := env.store.GetTrace(ref.Digest)
	if err != nil || stream == nil {
		return nil, false
	}
	if stream.Len() > env.Opts.maxRecorded() {
		// Stored under a larger recording cap than this run allows.
		stream.Release()
		return nil, false
	}
	ct := &cellTrace{stream: stream,
		result: engine.Result{Value: math.Float64frombits(ref.ValueBits), Rows: ref.Rows}}
	if ref.WarmDigest != "" {
		warm, err := env.store.GetTrace(ref.WarmDigest)
		if err != nil || warm == nil {
			stream.Release()
			return nil, false
		}
		ct.warm = warm
	}
	if spec.Kind == CellTPCC {
		if ref.Stats == nil || ct.warm == nil {
			ct.release()
			return nil, false
		}
		ct.stats = *ref.Stats
	}
	return ct, true
}

// cellStream returns the capture for spec from the worker's in-memory
// cache, or loads it from the persistent store. fromStore tells the
// caller to file the capture into the in-memory cache once done
// draining it — insertion can evict-and-release immediately when the
// capture exceeds the budget, so it must happen after the last use.
func (env *Env) cellStream(spec CellSpec) (ct *cellTrace, fromStore bool) {
	if ct, ok := env.traces.lookup(spec); ok {
		return ct, false
	}
	if ct, ok := env.loadStoredTrace(spec); ok {
		return ct, true
	}
	return nil, false
}

// Close tears an environment down: the retained captures of the trace
// cache are released back to the shared free lists (sub-environments
// alias the same cache, so one drop covers them), and when the env
// owns its store (built from Options.StoreDir rather than handed an
// open handle), the staged index entries are flushed to disk. The env
// stays usable afterwards — recording is simply off, every run
// re-executes — but callers should treat Close as the end of its
// life. Safe on an env without a store, and safe to call twice.
func (env *Env) Close() error {
	if env.traces != nil {
		env.traces.drop()
		env.traces = nil
		for _, sub := range env.subenvs {
			sub.traces = nil
		}
	}
	if env.store != nil && env.ownStore {
		return env.store.Flush()
	}
	return nil
}
