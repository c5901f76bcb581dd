// Command wtbench is the repository's benchmark: it drives wheretime
// from outside, through its public entry points, on one of two
// workloads, checks every output for correctness and prints every
// metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root (wtbench/run.sh builds it first):
//
//	bash wtbench/run.sh --workload grid --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the record holds the end-to-end metrics of
// BENCHMARK.json, measured untraced. With --trace 1 the same workload
// runs with spans recorded around each call into a layer, the record
// holds the per-layer metrics, and the spans are written to
// .bench_out/. See wtbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// workers is the worker-goroutine and client-connection count of
// every workload: the host this benchmark was defined on has 2 CPUs.
const workers = 2

// outDir holds per-run scratch stores, span files and the last
// untraced result of each workload, relative to the repository root.
const outDir = ".bench_out"

// run is the state one benchmark invocation accumulates.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil on the untraced run
	dir      string  // this run's scratch directory

	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string // human-readable lines printed before the record

	requestIDs atomic.Int64 // the last request id handed out
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// note prints a line to stdout ahead of the record and keeps it for
// the span file.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one checked operation and reports a mismatch on stderr.
func (r *run) check(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "wtbench: MISMATCH: %s\n", what)
	}
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// workloads maps each workload name to its run.
var workloads = map[string]func(context.Context, *run) error{
	"grid":       runGrid,
	"serve_warm": runServeWarm,
}

func main() {
	workload := flag.String("workload", "", "workload to run: grid or serve_warm")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "length of a serve workload's timed loop")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()

	if err := benchMain(*workload, *seed, *seconds, *traceFlag); err != nil {
		fmt.Fprintf(os.Stderr, "wtbench: %v\n", err)
		os.Exit(1)
	}
}

func benchMain(workload string, seed int64, seconds, traceFlag int) error {
	spec, err := loadBenchFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	runWorkload, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want grid or serve_warm)", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", traceFlag)
	}
	dir := filepath.Join(outDir, fmt.Sprintf("run-%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds) * time.Second,
		dir:      dir,
		metrics:  make(map[string]float64),
	}
	if traceFlag == 1 {
		r.tr = newTracer()
	}
	// Calibrate first, on a small heap, before the workload's garbage.
	runtime.GC()
	r.set("calib.drain_ns_per_event", calibrate(r.tr))
	r.note("host calibration: xeon drain of the fixed synthetic stream at %.2f ns/event", r.metrics["calib.drain_ns_per_event"])
	if err := runWorkload(context.Background(), r); err != nil {
		return err
	}
	if r.tr != nil {
		runLayers(r)
	}
	return report(r, spec)
}

func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s (run from the repository root): %w", path, err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &b, nil
}

// e2eNames are the end-to-end metrics, which the traced run also
// reports under a "traced." prefix so the two records give the
// tracing overhead.
var e2eNames = []string{"wall_s", "throughput_rps", "p50_ms", "tail_ms", "setup_s", "peak_rss_mb"}

// untracedExtras are saved beside the untraced end-to-end metrics.
var untracedExtras = []string{"calib.drain_ns_per_event", "tail_percentile", "tail_samples"}

// report prints the human-readable lines and the JSON record. An
// end-to-end metric the workload did not measure is a bug and fails
// the run; a per-layer metric that does not apply to the workload (a
// server counter on grid, a grid cell time on a serve workload) reads 0
// and is listed on stderr.
func report(r *run, spec *benchFile) error {
	if r.attempted == 0 {
		return errors.New("no operation was checked")
	}
	r.set("error_rate", float64(r.failed)/float64(r.attempted))
	list := spec.EndToEnd
	if r.tr != nil {
		for _, n := range e2eNames {
			if v, ok := r.metrics[n]; ok {
				r.metrics["traced."+n] = v
			}
		}
		list = spec.PerLayer
	} else {
		saveUntraced(r)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(list))
	var absent []string
	for _, m := range list {
		v, ok := r.metrics[m.Name]
		if !ok {
			if r.tr == nil {
				return fmt.Errorf("workload %s measured no %s", r.workload, m.Name)
			}
			absent = append(absent, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	if len(absent) > 0 {
		fmt.Fprintf(os.Stderr, "wtbench: not applicable to %s, reported as 0: %s\n", r.workload, strings.Join(absent, ", "))
	}
	if r.tr != nil {
		r.note("tracing overhead: %s", overheadNote(r))
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.csv", r.workload, r.seed))
		if err := r.tr.write(path, r.notes); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		r.note("%d spans written to %s", r.tr.count(), path)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// untracedPath holds the last untraced end-to-end record of a
// workload, which the traced run compares itself against, with the
// host calibration and the tail_ms definition beside it: the JSON
// record on stdout holds only the metrics BENCHMARK.json lists.
func untracedPath(workload string) string {
	return filepath.Join(outDir, "untraced-"+workload+".json")
}

func saveUntraced(r *run) {
	e2e := make(map[string]float64)
	for _, n := range append(e2eNames, untracedExtras...) {
		e2e[n] = r.metrics[n]
	}
	data, _ := json.Marshal(e2e) // a map of finite floats always marshals
	if err := os.WriteFile(untracedPath(r.workload), data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "wtbench: saving the untraced record: %v\n", err)
	}
}

// overheadNote compares the traced run's end-to-end metrics with the
// last untraced run of the same workload in this checkout.
func overheadNote(r *run) string {
	data, err := os.ReadFile(untracedPath(r.workload))
	if err != nil {
		return "no untraced record of " + r.workload + " in " + outDir + " yet"
	}
	var base map[string]float64
	if err := json.Unmarshal(data, &base); err != nil {
		return "unreadable untraced record: " + err.Error()
	}
	var parts []string
	for _, n := range e2eNames {
		b, t := base[n], r.metrics[n]
		if b == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %+.4g (%+.1f%%)", n, t-b, 100*(t-b)/b))
	}
	return strings.Join(parts, ", ")
}

// peakRSSMB is the process's resident-set high-water mark. Workloads
// read it when their timed part ends, so the checks and layer
// measurements that follow do not count.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 for none), leaving xs sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the p-th percentile of xs by nearest rank, and
// how many samples lie beyond it, leaving xs sorted.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	rank := min(max(int(math.Ceil(p/100*float64(n))), 1), n)
	return xs[rank-1], n - rank
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
