package harness

import (
	"os"
	"testing"

	"wheretime/internal/engine"
	"wheretime/internal/tracestore"
)

// The warm-start contract, pinned from both ends: every shortcut —
// snapshot restore, fixed-point early stop, store-loaded replay,
// store-loaded tally — must reproduce the full Section 4.3 protocol
// exactly, and a warm store must actually be consulted.

// diffCellsExact fails unless two cells match on every counter, stall
// component, hardware rate and result bit.
func diffCellsExact(t *testing.T, name string, a, b Cell) {
	t.Helper()
	if a.Breakdown.Counts != b.Breakdown.Counts {
		t.Errorf("%s: counts differ:\n got %+v\nwant %+v", name, a.Breakdown.Counts, b.Breakdown.Counts)
	}
	if a.Breakdown.Cycles != b.Breakdown.Cycles {
		t.Errorf("%s: stall cycles differ:\n got %v\nwant %v", name, a.Breakdown.Cycles, b.Breakdown.Cycles)
	}
	if a.Rates != b.Rates {
		t.Errorf("%s: hardware rates differ", name)
	}
	if a.Result != b.Result {
		t.Errorf("%s: result %+v != %+v", name, a.Result, b.Result)
	}
}

// TestSnapshotRestoreMatchesDrain measures cells with the snapshot
// layer on and off — first visits (fixed-point early stop) and forced
// revisits (snapshot restore replacing the warm-up drains) — and
// asserts byte-identical breakdowns throughout. Warmup of 3 gives the
// fixed-point comparison real work on the first visit and the restore
// three drains to skip on the second.
func TestSnapshotRestoreMatchesDrain(t *testing.T) {
	snapOpts := replayTestOptions()
	snapOpts.Warmup = 3
	plainOpts := snapOpts
	plainOpts.Snapshot = false

	snapEnv, err := NewEnv(snapOpts)
	if err != nil {
		t.Fatal(err)
	}
	if snapEnv.snaps == nil {
		t.Fatal("snapshot env built without a snapshot memo")
	}
	plainEnv, err := NewEnv(plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if plainEnv.snaps != nil {
		t.Fatal("snapshot-disabled env still built a snapshot memo")
	}

	for _, q := range []QueryKind{SRS, IRS, SJ, GHJ} {
		for _, s := range engine.Systems() {
			if !validMicro(s, q) {
				continue
			}
			name := s.String() + "/" + q.String()
			a, err := snapEnv.Run(s, q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := plainEnv.Run(s, q)
			if err != nil {
				t.Fatal(err)
			}
			diffCellsExact(t, name+" first", a, b)

			// Clear the memos so the revisit goes back through run():
			// the snapshot env restores its memoized post-warm-up state
			// and drains once, the plain env drains all Warmup+1 times.
			snapEnv.memo = map[memoKey]Cell{}
			plainEnv.memo = map[memoKey]Cell{}
			a2, err := snapEnv.Run(s, q)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := plainEnv.Run(s, q)
			if err != nil {
				t.Fatal(err)
			}
			diffCellsExact(t, name+" revisit", a2, b2)
			diffCellsExact(t, name+" revisit vs first", a2, a)
		}
	}
	if len(snapEnv.snaps.m) == 0 {
		t.Error("snapshot memo is empty — the restore path was never exercised")
	}

	// TPC-D: the fixed protocol (one warm pass, one measured pass).
	a, err := snapEnv.RunTPCD(engine.SystemD)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plainEnv.RunTPCD(engine.SystemD)
	if err != nil {
		t.Fatal(err)
	}
	diffCellsExact(t, "D/TPC-D", a, b)
	snapEnv.memo = map[memoKey]Cell{}
	plainEnv.memo = map[memoKey]Cell{}
	a2, err := snapEnv.RunTPCD(engine.SystemD)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := plainEnv.RunTPCD(engine.SystemD)
	if err != nil {
		t.Fatal(err)
	}
	diffCellsExact(t, "D/TPC-D revisit", a2, b2)

	// TPC-C: the revisit restores the post-warm-slice state instead of
	// draining the captured warm slice.
	const txns = 60
	ca, saStats, err := snapEnv.RunTPCC(engine.SystemC, txns)
	if err != nil {
		t.Fatal(err)
	}
	cb, sbStats, err := plainEnv.RunTPCC(engine.SystemC, txns)
	if err != nil {
		t.Fatal(err)
	}
	diffCellsExact(t, "C/TPC-C", ca, cb)
	if saStats != sbStats {
		t.Errorf("TPC-C stats differ: %+v vs %+v", saStats, sbStats)
	}
	ca2, _, err := snapEnv.RunTPCC(engine.SystemC, txns)
	if err != nil {
		t.Fatal(err)
	}
	cb2, _, err := plainEnv.RunTPCC(engine.SystemC, txns)
	if err != nil {
		t.Fatal(err)
	}
	diffCellsExact(t, "C/TPC-C revisit", ca2, cb2)
	diffCellsExact(t, "C/TPC-C revisit vs first", ca2, ca)
}

// TestStoreWarmHits runs the same small grid twice against one store
// directory. The cold run populates it; the warm run must hit the
// entry index (tallies short-circuit the simulation entirely) and
// reproduce the cold run's cells exactly.
func TestStoreWarmHits(t *testing.T) {
	dir := t.TempDir()
	opts := replayTestOptions()
	specs := []CellSpec{
		microCell(opts, engine.SystemA, SRS),
		microCell(opts, engine.SystemB, IRS),
		microCell(opts, engine.SystemD, SJ),
	}

	cold, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = cold
	resCold, err := Measure(opts, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Flush(); err != nil {
		t.Fatal(err)
	}
	if cold.Stats().EntriesAdded == 0 {
		t.Fatal("cold run added no store entries")
	}

	warm, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = warm
	resWarm, err := Measure(opts, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.EntryHits == 0 {
		t.Errorf("warm run hit no store entries: %+v", st)
	}
	for _, spec := range specs {
		a, err := resCold.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := resWarm.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		diffCellsExact(t, spec.String(), b, a)
	}
}

// TestStoreDirOptionFlushes pins the Options.StoreDir path: Measure
// opens the store itself, and the entries survive to a reopened
// handle (the flush happened).
func TestStoreDirOptionFlushes(t *testing.T) {
	dir := t.TempDir()
	opts := replayTestOptions()
	opts.StoreDir = dir
	specs := []CellSpec{microCell(opts, engine.SystemA, SRS)}
	if _, err := Measure(opts, specs, 1); err != nil {
		t.Fatal(err)
	}
	s, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A second run through a fresh env must find the tally.
	env, err := NewEnv(replayTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	env.store = s
	cfg := env.Opts.Config
	if _, _, ok := env.lookupTally(storedKey(env.Opts, specs[0]), cfg); !ok {
		t.Error("flushed store has no tally for the measured cell")
	}
}

// TestSnapshotDisabledMatchesGoldens renders the full experiment grid
// with the snapshot layer force-disabled and diffs it against the
// goldens the snapshot-enabled default produced: the snapshot layer
// must be invisible to every figure.
func TestSnapshotDisabledMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment grid in -short mode")
	}
	opts := goldenOptions()
	opts.Snapshot = false
	got := renderGolden(t, opts)
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(e.Name))
			if err != nil {
				t.Fatalf("missing golden (run TestGoldenFiles with -update first): %v", err)
			}
			if got[e.Name] != string(want) {
				t.Errorf("snapshot-disabled output differs from snapshot-enabled golden for %s", e.Name)
			}
		})
	}
}

// TestStoreColdWarmMatchesGoldens renders the full grid twice against
// one store directory — cold (populating) then warm (loading) — and
// diffs both against the committed goldens: persistence must be
// invisible to every figure, whichever temperature the store is at.
func TestStoreColdWarmMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment grid in -short mode")
	}
	dir := t.TempDir()
	for _, leg := range []string{"cold", "warm"} {
		opts := goldenOptions()
		opts.StoreDir = dir
		got := renderGolden(t, opts)
		for _, e := range Experiments() {
			t.Run(leg+"/"+e.Name, func(t *testing.T) {
				want, err := os.ReadFile(goldenPath(e.Name))
				if err != nil {
					t.Fatalf("missing golden (run TestGoldenFiles with -update first): %v", err)
				}
				if got[e.Name] != string(want) {
					t.Errorf("%s-store output differs from golden for %s", leg, e.Name)
				}
			})
		}
	}
}
