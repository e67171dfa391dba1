package service

import (
	"context"
	"runtime"
	"testing"
)

// TestSchedulerShare pins the admission-time degree rule: GOMAXPROCS
// split across the busy slots (this request's included), at least 1,
// never above GOMAXPROCS.
func TestSchedulerShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	s := newScheduler(4, 0)
	for busy, want := range []int{4, 2, 1, 1} {
		if _, err := s.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := s.share(); got != want {
			t.Errorf("GOMAXPROCS=4, busy=%d: share = %d, want %d", busy+1, got, want)
		}
	}

	// More slots than cores: a full node runs every query serially.
	s = newScheduler(8, 0)
	for i := 0; i < 8; i++ {
		if _, err := s.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.share(); got != 1 {
		t.Errorf("MaxConcurrent=8 > GOMAXPROCS=4, all busy: share = %d, want 1", got)
	}

	for procs := 1; procs <= 6; procs++ {
		runtime.GOMAXPROCS(procs)
		s := newScheduler(2*procs, 0)
		for busy := 1; busy <= 2*procs; busy++ {
			if _, err := s.acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := s.share(); got < 1 || got > procs {
				t.Errorf("GOMAXPROCS=%d, busy=%d: share = %d, want within [1, %d]", procs, busy, got, procs)
			}
		}
	}
}
