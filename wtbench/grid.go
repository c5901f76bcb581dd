package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wheretime/internal/harness"
)

// goldenDir holds the committed renderings the grid must reproduce.
const goldenDir = "internal/harness/testdata"

// The grid's set-up is what it does before its first cell: load the
// goldens it is checked against and build one environment per worker,
// concurrently, as the grid's workers do (EnvFactory.Env). One pass
// takes about 10 ms, too short to time steadily on a shared host, so a
// sample is the mean of gridSetupReps passes (about 0.2 s) and setup_s
// is the median of gridSetups samples. Half the samples are taken
// before the regeneration and half after it, so that a drift in the
// host's speed during the run weighs on setup_s as it does on wall_s.
const (
	gridSetups    = 10
	gridSetupReps = 20
)

// runGrid regenerates every registered experiment at the goldens'
// options with two workers and no store, exactly as the golden suite
// renders them, and diffs each against its committed golden. The grid
// is a fixed amount of work: it runs once whatever --seconds says.
func runGrid(ctx context.Context, r *run) error {
	opts := harness.DefaultOptions()
	exps := harness.Experiments()

	var goldens map[string][]byte
	var setups []float64
	timeSetups := func() error {
		runtime.GC()
		for i := 0; i < gridSetups/2; i++ {
			var err error
			d := r.tr.do("setup", 0, func() {
				for k := 0; k < gridSetupReps && err == nil; k++ {
					goldens, err = gridSetup(opts, exps)
				}
			})
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds()/gridSetupReps)
		}
		return nil
	}
	if err := timeSetups(); err != nil {
		return err
	}

	var rendered [][]harness.Table
	var err error
	wall := r.tr.do("harness.RunExperimentsContext", 0, func() {
		rendered, err = harness.RunExperimentsContext(ctx, opts, exps, workers)
	})
	if err != nil {
		return fmt.Errorf("grid: %w", err)
	}
	r.set("peak_rss_mb", peakRSSMB())
	for i, e := range exps {
		got := renderExperiment(e, rendered[i])
		r.check(got == string(goldens[e.Name]), fmt.Sprintf("grid: %s differs from %s", e.Name, goldenPath(e.Name)))
	}
	r.set("wall_s", wall.Seconds())
	if err := timeSetups(); err != nil {
		return err
	}
	r.set("setup_s", median(setups))
	// The grid is one operation: regenerating the paper.
	r.set("p50_ms", ms(wall))
	r.set("tail_ms", ms(wall))
	r.set("throughput_rps", 1/wall.Seconds())
	r.set("tail_percentile", 100)
	r.set("tail_samples", 1)
	r.note("grid: %d experiments rendered in %.3f s with %d workers; tail_ms is the single regeneration (p100 of 1 sample)",
		len(exps), wall.Seconds(), workers)

	if r.tr != nil {
		return gridLayers(r, opts, exps, wall)
	}
	return nil
}

// gridSetup loads the goldens and builds one environment per worker,
// which it then drops: RunExperimentsContext builds its own.
func gridSetup(opts harness.Options, exps []harness.Experiment) (map[string][]byte, error) {
	goldens, err := loadGoldens(exps)
	if err != nil {
		return nil, err
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = harness.NewEnvFactory(opts).Env()
		}(w)
	}
	wg.Wait()
	return goldens, errors.Join(errs...)
}

func goldenPath(name string) string { return filepath.Join(goldenDir, name+".golden") }

func loadGoldens(exps []harness.Experiment) (map[string][]byte, error) {
	out := make(map[string][]byte, len(exps))
	for _, e := range exps {
		b, err := os.ReadFile(goldenPath(e.Name))
		if err != nil {
			return nil, fmt.Errorf("grid: %w (run from the repository root)", err)
		}
		out[e.Name] = b
	}
	return out, nil
}

// renderExperiment renders one experiment's tables the way the golden
// suite writes them.
func renderExperiment(e harness.Experiment, tables []harness.Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n\n", e.Name, e.Paper)
	for _, tab := range tables {
		sb.WriteString(tab.Render())
		sb.WriteString("\n")
	}
	return sb.String()
}

// gridCells lists the distinct cells of every experiment, in
// declaration order.
func gridCells(opts harness.Options, exps []harness.Experiment) []harness.CellSpec {
	seen := make(map[harness.CellSpec]bool)
	var specs []harness.CellSpec
	for _, e := range exps {
		for _, s := range e.Cells(opts) {
			if !seen[s] {
				seen[s] = true
				specs = append(specs, s)
			}
		}
	}
	return specs
}

// gridLayers times every grid cell through EnvFactory.RunSpec, summed
// by cell kind, and relates the sum to the grid's two-worker wall time.
// The cells are dealt in declaration order to two workers with a
// factory each, not run in one serial pass: a serial pass takes about
// 80 s on the host the benchmark was defined on, and would make the
// traced run last over two minutes.
func gridLayers(r *run, opts harness.Options, exps []harness.Experiment, wall time.Duration) error {
	specs := gridCells(opts, exps)
	secs := make([]float64, len(specs))
	errs := make([]error, workers)
	var next atomic.Int64
	pass := r.tr.begin("cell_pass", 0, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			factory := harness.NewEnvFactory(opts)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				var err error
				d := r.tr.do("harness.EnvFactory.RunSpec "+kindName(specs[i].Kind), pass, func() {
					_, err = factory.RunSpec(specs[i])
				})
				if err != nil {
					errs[w] = fmt.Errorf("grid cell pass: %s: %w", specs[i], err)
					return
				}
				secs[i] = d.Seconds()
			}
		}(w)
	}
	wg.Wait()
	r.tr.end(pass)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	sums := map[harness.CellKind]float64{}
	total := 0.0
	for i, spec := range specs {
		sums[spec.Kind] += secs[i]
		total += secs[i]
	}
	for _, k := range []harness.CellKind{harness.CellMicro, harness.CellTPCD, harness.CellTPCC} {
		r.set("harness.cell_s."+kindName(k), sums[k])
	}
	r.set("harness.cells", float64(len(specs)))
	r.set("fanout.busy_ratio", total/(wall.Seconds()*workers))
	return nil
}

func kindName(k harness.CellKind) string {
	switch k {
	case harness.CellTPCD:
		return "tpcd"
	case harness.CellTPCC:
		return "tpcc"
	default:
		return "micro"
	}
}
