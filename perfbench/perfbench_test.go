package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// ksjqdBin is the server binary under test, built once for the package.
var ksjqdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ksjqdBin = filepath.Join(dir, "ksjqd")
	build := exec.Command("go", "build", "-o", ksjqdBin, "repro/cmd/ksjqd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building ksjqd:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyScale runs every workload in about a second.
func tinyScale() scale {
	return scale{
		relations: 3, rows: 400, groups: 8, setups: 1,
		liveRelations: 2, liveRows: 300, liveGroups: 8,
		rates: []float64{40, 80}, writeShare: 0.3, batch: 4,
		limit: 500 * time.Millisecond, checkpoint: 200 * time.Millisecond,
	}
}

func tinyBench(t *testing.T, workload string, trace bool) *bench {
	t.Helper()
	b, err := newBench(options{workload: workload, seed: 7, seconds: 1, trace: trace,
		ksjqd: ksjqdBin, work: t.TempDir(), scale: tinyScale()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runPrinted runs b and returns its printed report and parsed last line.
func runPrinted(t *testing.T, b *bench) (string, result) {
	t.Helper()
	rep, err := b.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.print(&out, b.opts.trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return out.String(), res
}

func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots ksjqd processes")
	}
	for _, w := range sortedWorkloads() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				out, res := runPrinted(t, tinyBench(t, w, trace))
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", s.name, m, ok, s.unit)
					}
				}
				if !strings.Contains(out, `env {"nproc":`) {
					t.Errorf("no environment stamp in\n%s", out)
				}
			})
		}
	}
}

func TestCorruptedReferenceIsAFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("boots ksjqd processes")
	}
	b := tinyBench(t, "cold-analytic", false)
	b.tamperRefs = func(refs [][]byte) { refs[1] = append([]byte(nil), "[]"...) }
	out, res := runPrinted(t, b)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a wrong reference went unnoticed: correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
	}
	if !strings.Contains(out, "differs from the single-node reference") {
		t.Errorf("failure not named in\n%s", out)
	}
}

func TestLostAcknowledgedWriteIsAFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("boots ksjqd processes")
	}
	ctx := context.Background()
	b := tinyBench(t, "live-mixed", false)
	defer b.stopAll()
	sc := b.opts.scale
	rels, err := genRelations(1, sc.liveRelations, sc.liveRows, sc.liveGroups)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := csvBodies(rels)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(b.dir, "data")
	srv, err := b.start(ctx, "lost", "-data", dataDir)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(1)
	defer c.close()
	if err := register(ctx, c, srv.url, rels, bodies); err != nil {
		t.Fatal(err)
	}
	lv := &live{b: b, c: c, url: srv.url, rels: rels, shapes: pairShapes(rels),
		inserted: make([]atomic.Int64, len(rels)), deleted: make([]atomic.Int64, len(rels))}
	// The books say one insert into r0 was acknowledged; the server never
	// saw it, so the restart must come up one row short.
	lv.inserted[0].Store(1)
	if err := lv.crashRestart(ctx, srv, dataDir); err != nil {
		t.Fatal(err)
	}
	if b.rep.failed != 1 {
		t.Fatalf("want exactly the row-count check to fail, got %d failures: %v", b.rep.failed, b.rep.failures)
	}
	if !strings.Contains(b.rep.failures[0], "acknowledged") {
		t.Errorf("failure does not name the lost write: %s", b.rep.failures[0])
	}
}

func TestOpenLoopReportsFallingBehind(t *testing.T) {
	ctx := context.Background()
	alternate := func(i int) int { return i % 2 }
	slow := openLoop(ctx, 200, 300*time.Millisecond, 2, alternate, func(context.Context, int) error {
		time.Sleep(40 * time.Millisecond)
		return nil
	})
	// A slow server: the backlog grows and the rate is not sustained,
	// while the generator itself stays on schedule.
	if v := judge(slow, 2, 20*time.Millisecond); v.sustained || slow.backlog <= 2 {
		t.Errorf("slow server: sustained=%v backlog=%d", v.sustained, slow.backlog)
	}
	for _, o := range slow.ops {
		if o.latency() < o.end.Sub(o.start)+o.ready.Sub(o.due) {
			t.Fatal("latency not timed from the due time")
		}
	}
	fast := openLoop(ctx, 100, 300*time.Millisecond, 2, alternate, func(context.Context, int) error { return nil })
	if v := judge(fast, 2, 20*time.Millisecond); v.behind || !v.sustained || fast.backlog != 0 || len(fast.ops) != 30 {
		t.Errorf("fast server: behind=%v sustained=%v backlog=%d ops=%d", v.behind, v.sustained, fast.backlog, len(fast.ops))
	}
	// A generator that begins operations well after it was free to: its
	// step is reported as behind and not sustained.
	late := stepResult{ops: make([]opTiming, 100)}
	t0 := time.Now()
	for i := range late.ops {
		due := t0.Add(time.Duration(i) * time.Millisecond)
		late.ops[i] = opTiming{due: due, ready: due, start: due.Add(2 * lagLimit), end: due.Add(2*lagLimit + time.Millisecond)}
	}
	if v := judge(late, 2, time.Second); !v.behind || v.sustained || v.lagP99 != 2*lagLimit {
		t.Errorf("late generator: behind=%v sustained=%v lag p99=%v", v.behind, v.sustained, v.lagP99)
	}
}

func TestTailHasTenSamplesBeyondIt(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := tailOf(xs); got.value != 90 || got.pct != 90 || got.beyond != 10 || got.n != 100 {
		t.Errorf("tailOf(1..100) = %+v, want p90 = 90 with 10 beyond", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
}

// TestBenchmarkJSONMatchesTheProgram pins BENCHMARK.json's workloads
// and metrics to what the program reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedWorkloads(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		program  []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.program) {
			t.Errorf("BENCHMARK.json declares %d metrics, program reports %d", len(c.declared), len(c.program))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.program[i].name || d.Unit != c.program[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, program %s/%s", i, d.Name, d.Unit, c.program[i].name, c.program[i].unit)
			}
		}
	}
}

func sortedWorkloads() []string {
	var ws []string
	for w := range workloads {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	return ws
}
