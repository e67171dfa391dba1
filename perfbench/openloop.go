package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// opTiming is one open-loop operation: when it was due, when its sender
// was free to send it (the due time, or later when earlier operations
// of its lane ran late), when the sender began it, when it finished, and
// how it ended.
type opTiming struct {
	due, ready, start, end time.Time
	err                    error
}

// latency is the client-seen latency timed from when the operation was
// due, so a stall also counts against the operations queued behind it.
func (o opTiming) latency() time.Duration { return o.end.Sub(o.due) }

// lag is how late the generator itself began the operation: the time
// from when its sender was free to send it until it did.
func (o opTiming) lag() time.Duration { return o.start.Sub(o.ready) }

// stepResult is one rate step of the open loop.
type stepResult struct {
	rate    float64
	ops     []opTiming
	backlog int // operations due by the step's end that no sender had begun
}

// openLoop runs n = rate×dur operations due at fixed intervals from now.
// Operation i belongs to lane lane(i) in [0, lanes), and one sender
// goroutine per lane runs its operations in order, each when it is due
// or, when the sender is late, at once: the schedule never waits for
// the server, and a stall delays the operations queued behind it. do(i)
// runs operation i. openLoop returns once every operation has finished.
func openLoop(ctx context.Context, rate float64, dur time.Duration, lanes int, lane func(i int) int, do func(ctx context.Context, i int) error) stepResult {
	n := int(rate * dur.Seconds())
	res := stepResult{rate: rate, ops: make([]opTiming, n)}
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for i := range res.ops {
		res.ops[i].due = t0.Add(time.Duration(i) * interval)
	}
	var started atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range res.ops {
				if lane(i) != l {
					continue
				}
				o := &res.ops[i]
				o.ready = o.due
				if now := time.Now(); now.After(o.due) {
					o.ready = now
				}
				sleepUntil(ctx, o.due)
				started.Add(1)
				o.start = time.Now()
				o.err = do(ctx, i)
				o.end = time.Now()
			}
		}()
	}
	sleepUntil(ctx, t0.Add(dur))
	res.backlog = int(int64(n) - started.Load())
	wg.Wait()
	return res
}

// spinWindow is how long before a due time a sender stops sleeping and
// polls the clock: a timer wake-up on a virtual machine can run
// hundreds of microseconds late, which would count as server latency.
const spinWindow = 300 * time.Microsecond

// sleepUntil returns at t, or earlier once ctx is done.
func sleepUntil(ctx context.Context, t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return
		}
	}
	for time.Now().Before(t) && ctx.Err() == nil {
	}
}

// lagLimit is how late the generator may begin an operation, at the
// 99th percentile, before its step is reported as behind schedule and
// its figures as not trusted. Timer and scheduling jitter on the 2-vCPU
// virtual machine the benchmark was built on reach 1-6 ms there.
const lagLimit = 10 * time.Millisecond

// verdict judges one step: the generator's lag percentile, whether the
// generator fell behind its schedule, and whether the server sustained
// the rate (no failures, no growing backlog, tail latencies within the
// limit, generator on schedule).
type verdict struct {
	lagP99    time.Duration
	behind    bool
	sustained bool
}

func judge(st stepResult, lanes int, limit time.Duration, tails ...float64) verdict {
	lags := make([]float64, 0, len(st.ops))
	failed := 0
	for _, o := range st.ops {
		if o.err != nil {
			failed++
			continue
		}
		lags = append(lags, ms(o.lag()))
	}
	v := verdict{lagP99: time.Duration(percentile(lags, 99) * float64(time.Millisecond))}
	v.behind = v.lagP99 > lagLimit
	v.sustained = !v.behind && failed == 0 && st.backlog <= lanes
	for _, t := range tails {
		if t > ms(limit) {
			v.sustained = false
		}
	}
	return v
}
