package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wheretime/internal/engine"
)

// The golden-file regression suite: every experiment table the paper
// reproduction renders is pinned, byte for byte, under testdata/. Any
// refactor of the trace/engine/simulator stack that changes a single
// rendered figure fails here first — this is the safety net the
// batched pipeline was built behind.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/harness -run TestGoldenFiles -update
//
// and review the diff like any other code change.

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenOptions is the configuration the goldens are rendered at: the
// default paper setup at simulation scale.
func goldenOptions() Options { return DefaultOptions() }

// renderGolden measures the full grid once and renders every
// registered experiment, returning experiment name -> rendered output.
func renderGolden(t *testing.T, opts Options) map[string]string {
	t.Helper()
	exps := Experiments()
	rendered, err := RunExperiments(opts, exps, DefaultParallelism())
	if err != nil {
		t.Fatalf("measuring experiment grid: %v", err)
	}
	out := make(map[string]string, len(exps))
	for i, e := range exps {
		var sb strings.Builder
		fmt.Fprintf(&sb, "== %s — %s ==\n\n", e.Name, e.Paper)
		for _, tab := range rendered[i] {
			sb.WriteString(tab.Render())
			sb.WriteString("\n")
		}
		out[e.Name] = sb.String()
	}
	return out
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden")
}

// TestGoldenFiles renders every experiment through the batched
// pipeline and diffs the output against the checked-in goldens.
func TestGoldenFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment grid in -short mode")
	}
	got := renderGolden(t, goldenOptions())
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			path := goldenPath(e.Name)
			if *update {
				if err := os.WriteFile(path, []byte(got[e.Name]), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got[e.Name] != string(want) {
				t.Errorf("%s output drifted from golden %s\n--- got ---\n%s--- want ---\n%s",
					e.Name, path, got[e.Name], want)
			}
		})
	}
}

// TestUnbatchedMatchesGoldens renders the same grid through the
// one-call-per-event reference path and diffs it against the same
// goldens: the tentpole equivalence — batched and unbatched pipelines
// must be byte-identical — asserted end to end on every figure.
func TestUnbatchedMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment grid in -short mode")
	}
	opts := goldenOptions()
	opts.Unbatched = true
	got := renderGolden(t, opts)
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(e.Name))
			if err != nil {
				t.Fatalf("missing golden (run TestGoldenFiles with -update first): %v", err)
			}
			if got[e.Name] != string(want) {
				t.Errorf("unbatched reference output differs from batched golden for %s", e.Name)
			}
		})
	}
}

// TestBatchedMatchesReferenceSubset is the -short safety net: a cell
// of each kind — two microbenchmark queries, a TPC-D suite and a TPC-C
// mix — measured both ways must agree exactly on every counter and
// stall component, not just on rendered digits. It checks the
// unbatched reference wrapper on the one run path for all three kinds.
func TestBatchedMatchesReferenceSubset(t *testing.T) {
	opts := goldenOptions()
	// Equivalence does not depend on dataset size, and a small scale
	// keeps the TPC-D pass affordable under the race detector.
	opts.Scale = 0.0005
	batched, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Unbatched = true
	reference, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := []CellSpec{
		microCell(opts, engine.SystemD, SRS),
		microCell(opts, engine.SystemD, SJ),
		{Kind: CellTPCD, System: engine.SystemB},
		{Kind: CellTPCC, System: engine.SystemC, Txns: 40},
	}
	for _, spec := range specs {
		b, err := batched.RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := reference.RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if b.Breakdown.Counts != r.Breakdown.Counts {
			t.Errorf("%s: batched counts differ from reference:\n got %+v\nwant %+v",
				spec, b.Breakdown.Counts, r.Breakdown.Counts)
		}
		if b.Breakdown.Cycles != r.Breakdown.Cycles {
			t.Errorf("%s: batched stall cycles differ from reference:\n got %v\nwant %v",
				spec, b.Breakdown.Cycles, r.Breakdown.Cycles)
		}
		if b.Rates != r.Rates {
			t.Errorf("%s: batched hardware rates differ from reference", spec)
		}
	}
}
