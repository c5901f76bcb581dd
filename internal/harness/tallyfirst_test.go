package harness

// The tally-first contract: a cell whose finished tally is stored is
// answered from the store before any environment exists, and a gang
// is answered all or nothing.

import (
	"context"
	"testing"

	"wheretime/internal/core"
	"wheretime/internal/engine"
	"wheretime/internal/tracestore"
	"wheretime/internal/workload"
)

// sentinelCell is a valid breakdown no simulation produces, so a test
// can tell a stored answer from a measured one.
func sentinelCell(spec CellSpec, n int) Cell {
	b := &core.Breakdown{}
	b.Cycles[core.TC] = float64(1000 + n)
	q := QueryKind(0)
	if spec.Kind == CellMicro {
		q = spec.Query
	}
	return Cell{System: spec.System, Query: q, Breakdown: b,
		Result: engine.Result{Value: float64(n), Rows: uint64(n)}}
}

// TestMeasureContextStoredTallies stores one micro, one TPC-D and one
// TPC-C tally through the environment's own putTally, with no
// simulation, then requires MeasureContext to return exactly those
// cells, serially and in parallel, without building an environment.
// The TPC-D spec has the grid's and the service's shape (no record
// size), which the run path files under the options' record size.
func TestMeasureContextStoredTallies(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = store
	specs := []CellSpec{
		microCell(opts, engine.SystemB, SRS),
		{Kind: CellTPCD, System: engine.SystemD, Config: opts.Config},
		{Kind: CellTPCC, System: engine.SystemC, Txns: 40, Config: opts.Config},
	}
	stats := &workload.TPCCStats{NewOrders: 17, Payments: 19, OrderStatuses: 4}

	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[CellSpec]Cell)
	for i, spec := range specs {
		cell := sentinelCell(spec, i)
		var st *workload.TPCCStats
		if spec.Kind == CellTPCC {
			st = stats
		}
		env.putTally(storedKey(opts, spec), opts.configFor(spec), cell, st)
		want[spec] = cell
	}
	// A TPC-C tally without its statistics is not an answer.
	noStats := CellSpec{Kind: CellTPCC, System: engine.SystemC, Txns: 41, Config: opts.Config}
	env.putTally(storedKey(opts, noStats), opts.Config, sentinelCell(noStats, 9), nil)

	for _, parallel := range []int{1, 2} {
		res, err := MeasureContext(context.Background(), opts, specs, parallel)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if res.envs != 0 {
			t.Errorf("parallel=%d: a fully tallied grid built %d environments, want 0", parallel, res.envs)
		}
		for _, spec := range specs {
			got, err := res.Get(spec)
			if err != nil {
				t.Fatalf("parallel=%d: %v", parallel, err)
			}
			diffCellsExact(t, spec.String(), got, want[spec])
			if got.System != spec.System || *got.Breakdown != *want[spec].Breakdown {
				t.Errorf("parallel=%d: %s answered as %+v", parallel, spec, got)
			}
		}
	}

	// The environment's own run paths read the same entries, and a
	// tally hit never builds the databases.
	cell, gotStats, err := env.RunTPCC(engine.SystemC, 40)
	if err != nil {
		t.Fatal(err)
	}
	diffCellsExact(t, "RunTPCC", cell, want[specs[2]])
	if gotStats != *stats {
		t.Errorf("RunTPCC stats %+v, want %+v", gotStats, *stats)
	}
	if cell, err := env.RunTPCD(engine.SystemD); err != nil {
		t.Fatal(err)
	} else {
		diffCellsExact(t, "RunTPCD", cell, want[specs[1]])
	}
	if env.data.built {
		t.Error("tally hits built the databases")
	}
	shifted, err := env.microTarget(CellSpec{Kind: CellMicro, Selectivity: 0.5, RecordSize: opts.RecordSize})
	if err != nil {
		t.Fatal(err)
	}
	if shifted == env || shifted.data != env.data {
		t.Error("a selectivity shift does not share the base environment's databases")
	}

	// StoredTallies reports what it could not answer.
	missSpec := microCell(opts, engine.SystemD, SJ)
	res, missing := StoredTallies(opts, []CellSpec{specs[0], noStats, missSpec, specs[0]})
	if len(missing) != 2 || missing[0] != noStats || missing[1] != missSpec {
		t.Errorf("missing = %v, want [%s %s]", missing, noStats, missSpec)
	}
	if got, err := res.Get(specs[0]); err != nil {
		t.Error(err)
	} else {
		diffCellsExact(t, "StoredTallies", got, want[specs[0]])
	}
	noStore := opts
	noStore.Store = nil
	if _, missing := StoredTallies(noStore, specs); len(missing) != len(specs) {
		t.Errorf("without a store, %d of %d specs are missing", len(missing), len(specs))
	}
}

// TestMeasureGangPartlyTallied: a gang with one member's tally stored
// is not split. The stored member is measured again with the rest, so
// every cell equals the plain gang measurement, not the stored value.
func TestMeasureGangPartlyTallied(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	configs := gangSweepConfigs()[:3]
	unit := make([]CellSpec, len(configs))
	for i, cfg := range configs {
		o := opts
		o.Config = cfg
		unit[i] = microCell(o, engine.SystemB, SRS)
	}
	plain, err := MeasureGang(opts, unit)
	if err != nil {
		t.Fatal(err)
	}

	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = store
	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	env.putTally(storedKey(opts, unit[0]), configs[0], sentinelCell(unit[0], 1), nil)
	if _, missing := StoredTallies(opts, unit); len(missing) != len(unit) {
		t.Errorf("a partly tallied gang answered %d of %d members", len(unit)-len(missing), len(unit))
	}

	res, err := MeasureGang(opts, unit)
	if err != nil {
		t.Fatal(err)
	}
	if res.envs != 1 {
		t.Errorf("the gang built %d environments, want 1", res.envs)
	}
	for _, spec := range unit {
		got, err := res.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		compareCells(t, spec, got, want)
	}
}
