package harness

import (
	"testing"

	"wheretime/internal/engine"
)

// renderAll measures and renders the given experiments at the given
// worker count, returning one concatenated string per experiment.
func renderAll(t *testing.T, opts Options, exps []Experiment, parallel int) []string {
	t.Helper()
	rendered, err := RunExperiments(opts, exps, parallel)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rendered))
	for i, tables := range rendered {
		for _, tb := range tables {
			out[i] += tb.Render()
		}
	}
	return out
}

// TestParallelMatchesSerialSubset pins the grid's core guarantee on a
// fast subset every run (including -short CI): the parallel grid's
// tables are byte-identical to the serial path's. The subset covers
// the three cell kinds of sub-environment use — base grid, selectivity
// overrides and record-size rebuilds.
func TestParallelMatchesSerialSubset(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.001
	var exps []Experiment
	for _, name := range []string{"fig5.1", "fig5.4b", "recsize"} {
		e, err := Find(name)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	serial := renderAll(t, opts, exps, 1)
	parallel := renderAll(t, opts, exps, 4)
	for i, e := range exps {
		if serial[i] != parallel[i] {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				e.Name, serial[i], parallel[i])
		}
	}
}

// TestParallelMatchesSerial asserts the full guarantee: every
// registered experiment renders byte-identical tables at -parallel=8
// and -parallel=1, and the claim verdicts agree.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid determinism check measures every cell twice")
	}
	opts := DefaultOptions()
	opts.Scale = 0.002
	exps := Experiments()
	serial := renderAll(t, opts, exps, 1)
	parallel := renderAll(t, opts, exps, 8)
	for i, e := range exps {
		if serial[i] != parallel[i] {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				e.Name, serial[i], parallel[i])
		}
	}

	// Claim verdicts, compared structurally as well as rendered.
	serialRes, err := Measure(opts, claimsCells(opts), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallelRes, err := Measure(opts, claimsCells(opts), 8)
	if err != nil {
		t.Fatal(err)
	}
	serialClaims, err := checkClaims(opts, serialRes)
	if err != nil {
		t.Fatal(err)
	}
	parallelClaims, err := checkClaims(opts, parallelRes)
	if err != nil {
		t.Fatal(err)
	}
	if len(serialClaims) != len(parallelClaims) {
		t.Fatalf("claim counts differ: %d vs %d", len(serialClaims), len(parallelClaims))
	}
	for i := range serialClaims {
		if serialClaims[i] != parallelClaims[i] {
			t.Errorf("claim %s differs:\nserial   %+v\nparallel %+v",
				serialClaims[i].ID, serialClaims[i], parallelClaims[i])
		}
	}
}

// TestMeasureDeduplicates verifies that equal cells emitted by several
// experiments are scheduled once.
func TestMeasureDeduplicates(t *testing.T) {
	opts := DefaultOptions()
	spec := microCell(opts, engine.SystemD, SRS)
	specs := dedupeSpecs([]CellSpec{spec, spec, spec})
	if len(specs) != 1 {
		t.Fatalf("dedupe kept %d of 3 equal specs", len(specs))
	}
	a := microCell(opts, engine.SystemD, SRS)
	a.Selectivity = 0.5
	specs = dedupeSpecs([]CellSpec{spec, a, spec})
	if len(specs) != 2 {
		t.Fatalf("dedupe kept %d of 2 distinct specs", len(specs))
	}
}

// TestResultsRejectUndeclaredCell verifies the aggregation refuses to
// serve a cell no experiment declared (the error that catches a
// Cells/Render mismatch).
func TestResultsRejectUndeclaredCell(t *testing.T) {
	res := &Results{cells: map[CellSpec]Cell{}}
	if _, err := res.Get(CellSpec{Kind: CellTPCD, System: engine.SystemA}); err == nil {
		t.Error("Results.Get of an unmeasured cell should fail without an env fallback")
	}
}

// TestExperimentCellsCoverRenders verifies, for every registered
// experiment, that Render consumes only cells Cells declared: a
// render against a result set holding exactly the declared cells (no
// env fallback) must succeed.
func TestExperimentCellsCoverRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the full declared grid")
	}
	opts := DefaultOptions()
	opts.Scale = 0.002
	for _, e := range Experiments() {
		res, err := Measure(opts, e.Cells(opts), 2)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if _, err := e.Render(opts, res); err != nil {
			t.Errorf("%s: render needs a cell Cells did not declare: %v", e.Name, err)
		}
	}
}

// TestEnvFactoryIsolation verifies two factories at the same options
// build fully distinct simulator stacks — nothing shared that a
// worker could race on.
func TestEnvFactoryIsolation(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	a, err := NewEnvFactory(opts).Env()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnvFactory(opts).Env()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("factories shared an Env")
	}
	for _, s := range engine.Systems() {
		if a.Engine(s) == b.Engine(s) {
			t.Errorf("factories shared the %s engine", s)
		}
	}
	if a.data.nsm == b.data.nsm || a.data.pax == b.data.pax {
		t.Error("factories shared a database")
	}
}

// TestRunSpecKinds exercises each cell kind through RunSpec on one
// environment, including a record-size rebuild and a selectivity
// shift.
func TestRunSpecKinds(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	micro := microCell(opts, engine.SystemC, SRS)
	cell, err := env.RunSpec(micro)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Breakdown.Counts.Records == 0 {
		t.Error("micro cell processed no records")
	}

	shifted := micro
	shifted.Selectivity = 0.5
	if _, err := env.RunSpec(shifted); err != nil {
		t.Errorf("selectivity shift: %v", err)
	}

	resized := micro
	resized.RecordSize = 20
	if _, err := env.RunSpec(resized); err != nil {
		t.Errorf("record-size rebuild: %v", err)
	}
	if _, ok := env.subenvs[20]; !ok {
		t.Error("record-size sub-environment was not cached")
	}

	if _, err := env.RunSpec(CellSpec{Kind: CellTPCC, System: engine.SystemC, Txns: 50}); err != nil {
		t.Errorf("TPC-C cell: %v", err)
	}
	if _, err := env.RunSpec(CellSpec{Kind: CellKind(99)}); err == nil {
		t.Error("unknown cell kind should fail")
	}
}
