package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// TestSortBySumMatchesStableSort pins the probe orders to the stable sort
// on sum: over integer points with many tied sums, and index lists in
// arbitrary order, sortBySum must return exactly what sort.SliceStable
// returns, and mergeBySum must reproduce a stable sort of the grown list.
func TestSortBySumMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1202))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		// Rows of 1–4 attributes, zero-padded to a flat stride-4 column
		// (padding leaves every sum unchanged).
		const width = 4
		flat := make([]float64, n*width)
		sums := make([]float64, n)
		for i := 0; i < n; i++ {
			row := flat[i*width : i*width+1+rng.Intn(width)]
			for j := range row {
				row[j] = float64(rng.Intn(3))
			}
			sums[i] = sumOf(row)
		}
		stable := func(idx []int) []int {
			want := slices.Clone(idx)
			sort.SliceStable(want, func(a, b int) bool { return sums[want[a]] < sums[want[b]] })
			return want
		}

		idx := rng.Perm(n)[:rng.Intn(n+1)]
		if got, want := sortBySum(flat, width, idx), stable(idx); !slices.Equal(got, want) {
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

// TestKeyOrderMatchesStableSort pins Categorize's radix sort to the
// stable sort by key symbol it replaced, on relations with many symbols —
// including symbols no row uses any more after deletes — and bounds its
// allocation by the live rows on a relation whose symbol table is three
// orders of magnitude larger than its row count.
func TestKeyOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1417))
	sawUnused := false
	for trial := 0; trial < 50; trial++ {
		r := randRelation(rng, "r", 1+rng.Intn(400), 2, 0, 1+rng.Intn(200), 5)
		if trial%2 == 1 {
			ids := randSubset(rng, r.Len())
			if len(ids) == r.Len() {
				ids = ids[1:]
			}
			if err := r.DeleteBatch(ids); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]int, r.Len())
		used := map[int32]bool{}
		for i := range want {
			want[i] = i
			used[r.KeyID(i)] = true
		}
		sawUnused = sawUnused || len(used) < r.Symbols().Len()
		sort.SliceStable(want, func(a, b int) bool { return r.KeyID(want[a]) < r.KeyID(want[b]) })
		if got := keyOrder(r); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d rows, %d symbols): keyOrder = %v, stable sort %v",
				trial, r.Len(), r.Symbols().Len(), got, want)
		}
	}
	if !sawUnused {
		t.Fatal("no trial left a symbol unused; the deletes are too small")
	}

	const live, dead = 40, 70000
	tuples := make([]dataset.Tuple, live+dead)
	for i := range tuples {
		tuples[i] = dataset.Tuple{Key: fmt.Sprintf("k%d", i%(dead+live/2)), Attrs: []float64{float64(i)}}
	}
	r := dataset.MustNew("r", 1, 0, tuples)
	if err := r.DeleteBatch(allIndices(dead)); err != nil {
		t.Fatal(err)
	}
	want := allIndices(r.Len())
	sort.SliceStable(want, func(a, b int) bool { return r.KeyID(want[a]) < r.KeyID(want[b]) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := keyOrder(r)
	runtime.ReadMemStats(&after)
	if !slices.Equal(got, want) {
		t.Fatalf("%d rows, %d symbols: keyOrder = %v, stable sort %v", r.Len(), r.Symbols().Len(), got, want)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 16<<10 {
		t.Fatalf("keyOrder over %d rows and %d symbols allocated %d bytes", r.Len(), r.Symbols().Len(), bytes)
	}
}
