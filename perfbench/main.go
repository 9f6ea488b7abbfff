// Command perfbench is the repository's end-to-end benchmark. One run
// measures one named workload for a fixed time, checks every job's output
// against a reference computed during set-up, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around the benchmark's own calls into each layer and reports
// the per-layer split. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"pimassembler/internal/distshard"
)

// workerEnv makes the benchmark binary serve the distshard frame protocol
// on its pipes instead of benchmarking: standard-sharded re-executes itself
// as its worker processes, so set-up needs no compile step.
const workerEnv = "PERFBENCH_WORKER"

// setups is how many times a run sets its workload up; setup_s is their
// median.
const setups = 3

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string // scratch space for spill files, inside the checkout
}

// bench is one set-up workload, ready to measure.
type bench interface {
	// run measures the workload for about d. A non-nil tr records spans
	// and per-layer values into the outcome; nil is the untraced run.
	run(ctx context.Context, d time.Duration, tr *Tracer) (*outcome, error)
	// close releases what set-up acquired: processes, listeners, files.
	close() error
}

// outcome is what one measured stretch produced.
type outcome struct {
	attempted, failed int
	// invalid lists reasons the measurement itself cannot be trusted.
	invalid []string
	// unit holds one end-to-end time per job in seconds, the quantity the
	// traced and untraced stretches are compared on.
	unit []float64
	// metrics are named as in BENCHMARK.json.
	metrics map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// workload names a workload and how to set it up.
type workload struct {
	name  string
	setup func(ctx context.Context, cfg config) (bench, error)
}

var workloads = []workload{
	{"standard-inproc", setupInproc},
	{"standard-sharded", setupSharded},
	{"service-noisy", setupService},
	{"pim-functional", setupPIM},
}

// nproc is the load the benchmark may apply: threads, worker processes and
// connections.
func nproc() int { return runtime.GOMAXPROCS(0) }

func main() {
	if os.Getenv(workerEnv) == "1" {
		if err := distshard.RunWorker(os.Stdin, os.Stdout, nil); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d seconds %d trace %t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := measure(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	cfg := config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 0, "input seed (required)")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	seen := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { seen[f.Name] = true })
	switch {
	case !seen["seed"]:
		return cfg, fmt.Errorf("--seed is required")
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("--seconds must be positive")
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	if _, ok := lookupWorkload(cfg.workload); !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	return cfg, nil
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure sets the workload up several times, then measures it once:
// untraced for the end-to-end run, or untraced then traced for the
// per-layer run.
func measure(ctx context.Context, cfg config) (*result, error) {
	w, _ := lookupWorkload(cfg.workload)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir

	var b bench
	var setupS []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		b, err = w.setup(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer b.close()

	d := time.Duration(cfg.seconds) * time.Second
	var before, after runtime.MemStats
	if !cfg.trace {
		o, err := b.run(ctx, d, nil)
		if err != nil {
			return nil, err
		}
		o.metrics["setup_s"] = median(setupS)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		o.metrics["peak_rss_mb"] = max(rss, o.metrics["peak_rss_mb"])
		return finish(o, endToEnd, true)
	}

	runtime.ReadMemStats(&before)
	plain, err := b.run(ctx, d/2, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	tr := &Tracer{}
	traced, err := b.run(ctx, d-d/2, tr)
	if err != nil {
		return nil, err
	}
	m := traced.metrics
	jobs := float64(max(plain.attempted, 1))
	m["runtime.alloc_mb_per_job"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / jobs
	m["runtime.gc_cycles_per_job"] = float64(after.NumGC-before.NumGC) / jobs
	if u := median(plain.unit); u > 0 {
		m["trace.overhead_share"] = median(traced.unit)/u - 1
	}
	spans := tr.Spans()
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	printBreakdown(spans)
	merged := &outcome{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		invalid:   append(plain.invalid, traced.invalid...),
		metrics:   m,
	}
	return finish(merged, perLayer, false)
}

// finish checks the outcome and keeps exactly the catalogue's metrics. An
// end-to-end metric the workload did not produce is a benchmark bug; a
// per-layer metric the workload does not exercise reads 0.
func finish(o *outcome, catalogue []metricDef, required bool) (*result, error) {
	for _, why := range o.invalid {
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", why)
	}
	res := &result{
		Correct:   o.failed == 0 && len(o.invalid) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, def := range catalogue {
		v, ok := o.metrics[def.name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s not measured", def.name)
		}
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	return res, nil
}

// printBreakdown writes each span name's median duration and self time to
// standard error, the human-readable view of the trace.
func printBreakdown(spans []*Span) {
	table := byName(spans)
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-26s %6s %12s %12s\n", "span", "n", "median_ms", "self_ms")
	for _, n := range names {
		st := table[n]
		fmt.Fprintf(os.Stderr, "%-26s %6d %12.3f %12.3f\n", n, len(st.dur), median(st.dur)*1e3, median(st.self)*1e3)
	}
}
