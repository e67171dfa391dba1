// Command perfbench is the repository's end-to-end benchmark. It boots
// real ksjqd processes built from cmd/ksjqd, drives them over loopback
// HTTP from this one process, checks every answer, and prints what a
// client sees: latency, goodput, set-up time and memory.
//
//	bash perfbench/run.sh --workload cold-analytic --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 a separate traced run of the same workload and seed
// carries the per-layer metrics instead. The traced run times calls
// into the layers' public functions from this package (no tracing
// inside the program) and writes its spans to
// <work>/<workload>/trace.json. README.md maps every layer metric to
// the end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0. They
// are what a client of ksjqd sees; BENCHMARK.json bounds each of them.
// query_tail_ms and the live-mixed write, rate and disk figures are
// printed as metric lines but not bounded (see README.md).
var endToEnd = []metricSpec{
	{"query_p50_ms", "ms"},
	{"goodput_ops", "ops/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every workload reports with --trace 1. A
// layer the workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"httpapi.overhead_ms", "ms"},
	{"httpapi.resp_bytes", "bytes"},
	{"service.elapsed_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejected", "count"},
	{"service.resident_build_ms", "ms"},
	{"service.insert_ms", "ms"},
	{"service.maintained_per_batch", "count"},
	{"planner.choose_ms", "ms"},
	{"core.categorize_ms", "ms"},
	{"core.join_ms", "ms"},
	{"core.verify_ms", "ms"},
	{"core.domination_tests", "count"},
	{"core.candidates", "count"},
	{"core.churn_per_batch", "count"},
	{"store.sync_ms", "ms"},
	{"store.wal_bytes_per_batch", "bytes"},
	{"store.checkpoint_ms", "ms"},
	{"store.checkpoints", "count"},
	{"store.recovery_ms", "ms"},
	{"shard.r1_max_ms", "ms"},
	{"shard.r1_imbalance", "ratio"},
	{"shard.r2_ms", "ms"},
	{"shard.r2_messages", "count"},
	{"shard.r2_floats", "count"},
	{"shard.gateway_self_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"loadgen.backlog", "count"},
	{"trace.query_p50_ms", "ms"},
	{"trace.unaccounted_frac", "ratio"},
}

// workloads maps each --workload name to its driver.
var workloads = map[string]func(context.Context, *bench) error{
	"cold-analytic":   coldAnalytic,
	"live-mixed":      liveMixed,
	"sharded-scatter": shardedScatter,
}

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	ksjqd    string // path of the ksjqd binary under test
	work     string // directory for data, logs and trace output
	scale    scale
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b, err := newBench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := b.run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: cold-analytic, live-mixed or sharded-scatter")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured load duration in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.ksjqd, "ksjqd", "", "ksjqd binary under test")
	fs.StringVar(&o.work, "work", ".bench_build/run", "directory for data directories, logs and traces")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown --workload %q", o.workload)
	}
	if o.ksjqd == "" {
		return o, errors.New("--ksjqd is required")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	o.scale = defaultScale()
	return o, nil
}

// newBench prepares a run in an emptied <work>/<workload> directory.
func newBench(o options) (*bench, error) {
	dir, err := filepath.Abs(filepath.Join(o.work, o.workload))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &bench{opts: o, dir: dir, rep: newReport(), tr: newTracer(o.trace)}, nil
}

// run executes the workload and returns its report. Every process the
// workload started is stopped, and has exited, before run returns.
func (b *bench) run(ctx context.Context) (*report, error) {
	o := b.opts
	b.rep.env = stampEnv()
	err := workloads[o.workload](ctx, b)
	b.stopAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	b.rep.env.finish()
	b.rep.set("error_frac", float64(b.rep.failed)/float64(max(1, b.rep.attempted)), "ratio")
	if o.trace {
		if err := b.tr.finish(filepath.Join(b.dir, "trace.json"), b.rep); err != nil {
			return nil, err
		}
	}
	return b.rep, nil
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report, then the result line: the
// end-to-end metrics, or with trace the per-layer ones. A metric the
// workload did not measure is an error, never a silent zero.
func (r *report) print(w io.Writer, trace bool) error {
	env, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "metric %s %g %s\n", n, m.Value, m.Unit)
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		m, ok := r.metrics[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		if m.Unit != s.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", s.name, m.Unit, s.unit)
		}
		out.Metrics[s.name] = m
	}
	if out.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// since is the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
