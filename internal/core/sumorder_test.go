package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSortBySumMatchesStableSort pins the probe orders to the stable sort
// on sum: over integer points with many tied sums, and index lists in
// arbitrary order, sortBySum must return exactly what sort.SliceStable
// returns, and mergeBySum must reproduce a stable sort of the grown list.
func TestSortBySumMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1202))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		pts := make([][]float64, n)
		sums := make([]float64, n)
		for i := range pts {
			pts[i] = make([]float64, 1+rng.Intn(4))
			for j := range pts[i] {
				pts[i][j] = float64(rng.Intn(3))
			}
			sums[i] = sumOf(pts[i])
		}
		stable := func(idx []int) []int {
			want := slices.Clone(idx)
			sort.SliceStable(want, func(a, b int) bool { return sums[want[a]] < sums[want[b]] })
			return want
		}

		idx := rng.Perm(n)[:rng.Intn(n+1)]
		if got, want := sortBySum(pts, idx), stable(idx); !slices.Equal(got, want) {
			t.Fatalf("trial %d: sortBySum(%v) = %v, stable sort %v", trial, idx, got, want)
		}

		split := rng.Intn(n + 1)
		tail := make([]int, n-split)
		for i := range tail {
			tail[i] = split + i
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		if got, want := mergeBySum(stable(all[:split]), tail, sums), stable(all); !slices.Equal(got, want) {
			t.Fatalf("trial %d: mergeBySum at split %d = %v, stable sort %v", trial, split, got, want)
		}
	}
}
