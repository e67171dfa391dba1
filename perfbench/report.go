package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// report collects one run's outcome: operation counts, failures, metrics
// and the environment stamp. Safe for concurrent use.
type report struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	notes     []string
	metrics   map[string]metric
	env       *envStamp
}

// maxFailures bounds how many failure messages a report keeps; the
// count is always exact.
const maxFailures = 20

func newReport() *report { return &report{metrics: map[string]metric{}} }

// op counts one attempted operation; a non-nil err counts it as failed
// (refused, timed out, errored or answered wrongly).
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check counts one answer check as an operation: ok=false is a failure.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf(format, args...))
}

func (r *report) set(name string, v float64, unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setLatency records a latency sample set as <prefix>_p50_ms and
// <prefix>_tail_ms, and notes which percentile the tail is and how many
// samples stand behind it.
func (r *report) setLatency(prefix string, ms []float64) {
	t := tailOf(ms)
	r.set(prefix+"_p50_ms", percentile(ms, 50), "ms")
	r.set(prefix+"_tail_ms", t.value, "ms")
	r.note("%s_tail_ms is p%.2f of %d samples (%d beyond it)", prefix, t.pct, t.n, t.beyond)
}

// tail is the highest percentile of a sample that has at least
// tailBeyond samples above it.
type tail struct {
	value, pct float64
	n, beyond  int
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be trusted.
const tailBeyond = 10

// tailOf picks the tail percentile: the sample with exactly tailBeyond
// samples above it in sorted order. Smaller samples report their
// maximum, with fewer than tailBeyond beyond it.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	i := n - 1 - tailBeyond
	if i < 0 {
		i = n - 1
	}
	return tail{value: s[i], pct: 100 * float64(i+1) / float64(n), n: n, beyond: n - 1 - i}
}

// percentile is the nearest-rank percentile p (0..100) of xs; 0 when xs
// is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// envStamp says where a number was measured, so a sandbox figure is
// never mistaken for a device figure.
type envStamp struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	LoadBefore  string  `json:"loadavg_before"`
	LoadAfter   string  `json:"loadavg_after"`
	DataFS      string  `json:"data_fs,omitempty"`
	FlushPolicy string  `json:"flush_policy,omitempty"`
	CheckpointS float64 `json:"checkpoint_interval_s,omitempty"`
	WallSeconds float64 `json:"wall_s"`
	start       time.Time
}

func stampEnv() *envStamp {
	return &envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadBefore: loadavg(),
		start:      time.Now(),
	}
}

func (e *envStamp) finish() {
	e.LoadAfter = loadavg()
	e.WallSeconds = since(e.start)
}

// durable records the flush policy of a durable deployment and the
// filesystem its data directory lives on.
func (e *envStamp) durable(dir string, checkpoint time.Duration) {
	e.DataFS = fsType(dir)
	e.FlushPolicy = "fsync per group commit before ack"
	e.CheckpointS = checkpoint.Seconds()
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
