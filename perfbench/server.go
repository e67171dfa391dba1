package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// scale holds the workload sizes. The defaults are the benchmark; the
// benchmark's own tests shrink them.
type scale struct {
	// cold-analytic and sharded-scatter: relations of rows tuples with 3
	// local and 1 aggregate attribute over groups join keys; every pair
	// of relations is one query shape.
	relations, rows, groups int
	// setups is how many times each run deploys from scratch; setup_s is
	// their median and the last deployment carries the load.
	setups int

	// live-mixed: relation sizes, offered rates (ops/s, one step each),
	// share of operations that are writes, rows per insert or delete
	// batch, the latency limit on the tail, and the checkpoint interval.
	liveRelations, liveRows, liveGroups int
	rates                               []float64
	writeShare                          float64
	batch                               int
	limit                               time.Duration
	checkpoint                          time.Duration
}

// defaultScale is the benchmark. cold-analytic and sharded-scatter use
// 6 relations (15 query shapes) of 16000 rows over 512 join keys: a
// pair's query cost varies about 6% from seed to seed there, and the
// median over 15 shapes holds a run's p50 steady across seeds. (With 32
// keys a k=6 skyline holds 7-20 pairs and one pair's cost varies 3x
// between seeds.)
func defaultScale() scale {
	return scale{
		relations: 6, rows: 16000, groups: 512, setups: 3,
		liveRelations: 3, liveRows: 2000, liveGroups: 64,
		rates:      []float64{25, 50, 100},
		writeShare: 0.1,
		batch:      8,
		limit:      50 * time.Millisecond,
		checkpoint: 2 * time.Second,
	}
}

// queryK is the k of every query shape: with 3+1 attributes per
// relation the joined width is 7, k=5 skylines are empty and k=7 ones
// hold tens of thousands of pairs, so k=6 is the one non-trivial level.
const queryK = 6

// bench is one run in progress: options, output directory, report,
// tracer and the server processes to stop at the end.
type bench struct {
	opts options
	dir  string
	rep  *report
	tr   *tracer

	mu      sync.Mutex
	servers []*server

	// tamperRefs, when set, alters the reference answers before the load
	// runs; the benchmark's tests use it to prove a wrong answer fails.
	tamperRefs func(refs [][]byte)
}

// server is one ksjqd process.
type server struct {
	name string
	args []string
	url  string
	cmd  *exec.Cmd
	done chan struct{}
}

// start launches ksjqd with args on a free loopback port and waits until
// it answers /healthz. Its output goes to <dir>/<name>.log.
func (b *bench) start(ctx context.Context, name string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(b.dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(b.opts.ksjqd, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark that dies must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{name: name, args: args, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries nothing
		close(s.done)
	}()
	b.mu.Lock()
	b.servers = append(b.servers, s)
	b.mu.Unlock()
	if err := s.waitHealthy(ctx, 30*time.Second); err != nil {
		s.kill()
		return nil, fmt.Errorf("%s: %w (see %s.log)", name, err, name)
	}
	return s, nil
}

func (s *server) waitHealthy(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return errors.New("exited during start-up")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("not healthy in time")
}

// stop ends the server gracefully (SIGTERM, which checkpoints a durable
// server), falling back to SIGKILL, and waits for it to exit.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.kill()
	}
}

// kill ends the server with SIGKILL — a crash — and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// peakRSSMB is the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// peakRSS sums VmHWM over the servers.
func peakRSS(servers ...*server) (float64, error) {
	total := 0.0
	for _, s := range servers {
		mb, err := s.peakRSSMB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.name, err)
		}
		total += mb
	}
	return total, nil
}

// stopAll stops every server this run started and waits for each.
func (b *bench) stopAll() {
	b.mu.Lock()
	servers := b.servers
	b.servers = nil
	b.mu.Unlock()
	var wg sync.WaitGroup
	for _, s := range servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.stop()
		}()
	}
	wg.Wait()
}

// freeAddr reserves a loopback port by binding it and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}
