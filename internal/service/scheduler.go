package service

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
)

// ErrOverloaded is returned when a query cannot even be queued: every
// worker slot is busy and the wait queue is at capacity. Callers should
// shed the request (HTTP 429) rather than retry immediately.
var ErrOverloaded = errors.New("service: overloaded: worker pool and queue are full")

// scheduler is the admission controller: at most maxConcurrent queries
// execute at once, at most maxQueue more wait for a slot, and anything
// beyond that is rejected outright with ErrOverloaded. Waiting respects
// the request context, so a per-request deadline bounds queue time and
// execution together.
type scheduler struct {
	slots    chan struct{}
	maxQueue int64
	waiting  atomic.Int64
}

func newScheduler(maxConcurrent, maxQueue int) *scheduler {
	return &scheduler{
		slots:    make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueue),
	}
}

// acquire admits one request, returning the release function, or fails
// with ErrOverloaded (queue full) or ctx.Err() (deadline hit while
// queued).
func (s *scheduler) acquire(ctx context.Context) (func(), error) {
	release := func() { <-s.slots }
	// Fast path: a slot is free right now.
	select {
	case s.slots <- struct{}{}:
		return release, nil
	default:
	}
	if s.waiting.Add(1) > s.maxQueue {
		s.waiting.Add(-1)
		return nil, ErrOverloaded
	}
	defer s.waiting.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// share is the execution degree of a request that holds a slot: the
// machine's cores split evenly across the busy slots, this request's
// included, and never less than one. A lone query gets every core; once
// GOMAXPROCS or more slots are busy every query runs serially, so the
// admitted work never asks for more goroutines than there are cores. The
// degree is fixed for the request's lifetime; later arrivals do not
// shrink it.
func (s *scheduler) share() int {
	return max(1, runtime.GOMAXPROCS(0)/max(1, s.busy()))
}

// queued reports how many requests are currently waiting for a slot.
func (s *scheduler) queued() int64 { return s.waiting.Load() }

// busy reports how many slots are currently held.
func (s *scheduler) busy() int { return len(s.slots) }
