package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dom"
	"repro/internal/join"
)

// tieValues is a tiny attribute domain: heavy ties everywhere, and both
// signed zeros, which compare equal under ≤ but differ in bits.
var tieValues = []float64{-1, math.Copysign(0, -1), 0, 0.5, 1, 2}

func tieTuple(rng *rand.Rand, d, groups int) dataset.Tuple {
	attrs := make([]float64, d)
	for j := range attrs {
		attrs[j] = tieValues[rng.Intn(len(tieValues))]
	}
	return dataset.Tuple{
		Key:   fmt.Sprintf("g%d", rng.Intn(groups)),
		Band:  float64(rng.Intn(8)),
		Attrs: attrs,
	}
}

func tieRelation(rng *rand.Rand, name string, n, local, agg, groups int) *dataset.Relation {
	tuples := make([]dataset.Tuple, n)
	for i := range tuples {
		tuples[i] = tieTuple(rng, local+agg, groups)
	}
	return dataset.MustNew(name, local, agg, tuples)
}

// checkTauBits asserts that tauBits over ord marks exactly the rows of r
// localPrefix accepts against v, for every threshold from below 0 to above
// r.Local.
func checkTauBits(t *testing.T, label string, r *dataset.Relation, ord [][]int32, v []float64) {
	t.Helper()
	l, n := r.Local, r.Len()
	w := (n + 63) / 64
	dst := make([]uint64, w)
	attr := make([]uint64, max(1, l)*w)
	for kpp := -1; kpp <= l+1; kpp++ {
		tauBits(dst, ord, r.FlatAttrs(), r.D(), v, kpp, attr)
		for x := 0; x < n; x++ {
			_, _, want := localPrefix(r.Attrs(x), v, l, kpp)
			if got := dst[x>>6]&(1<<(x&63)) != 0; got != want {
				t.Fatalf("%s: k″=%d row %d %v vs %v: τ bit %v, localPrefix ok %v",
					label, kpp, x, r.Attrs(x)[:l], v, got, want)
			}
		}
	}
}

// checkOrders asserts maintained value orders equal a fresh build, and
// that τ bitsets over them match localPrefix for random probe vectors,
// including rows of r itself (exact ties on every attribute).
func checkOrders(t *testing.T, label string, rng *rand.Rand, r *dataset.Relation, ord [][]int32) {
	t.Helper()
	if fresh := buildOrders(r); !reflect.DeepEqual(ord, fresh) {
		t.Fatalf("%s: maintained orders differ from a fresh build\n got %v\nwant %v", label, ord, fresh)
	}
	for probe := 0; probe < 6; probe++ {
		v := tieTuple(rng, r.Local, 1).Attrs
		if probe%2 == 1 {
			v = r.Attrs(rng.Intn(r.Len()))[:r.Local]
		}
		checkTauBits(t, fmt.Sprintf("%s probe %d", label, probe), r, ord, v)
	}
}

// TestTauBitsMatchLocalPrefix pins the kernel's target-set bitsets to the
// per-left test they replace: for random relations with heavy ties and
// signed zeros, every threshold k″ (including k″ ≤ 0 and k″ > l), τ's bits
// are exactly the rows localPrefix accepts — over freshly built orders and
// over a Resident's orders carried through mixed Absorb/Retract batches,
// which must also equal a fresh build. The orders are read only after
// some steps, so absorbed rows also wait through later batches (deletes
// included) before they are merged.
func TestTauBitsMatchLocalPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	for trial := 0; trial < 20; trial++ {
		l1, l2, agg := 1+rng.Intn(4), 1+rng.Intn(4), rng.Intn(2)
		r1 := tieRelation(rng, "r1", 1+rng.Intn(150), l1, agg, 3)
		r2 := tieRelation(rng, "r2", 1+rng.Intn(150), l2, agg, 3)
		label := fmt.Sprintf("trial %d", trial)
		checkOrders(t, label+" fresh r1", rng, r1, buildOrders(r1))

		q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}}
		res, err := NewResident(q)
		if err != nil {
			t.Fatal(err)
		}
		const steps = 8
		for step := 0; step < steps; step++ {
			side, rel := Left, r1
			if rng.Intn(2) == 1 {
				side, rel = Right, r2
			}
			if rel.Len() > 1 && rng.Intn(2) == 0 {
				ids := randSubset(rng, rel.Len())
				if len(ids) == rel.Len() {
					ids = ids[1:]
				}
				if err := rel.DeleteBatch(ids); err != nil {
					t.Fatal(err)
				}
				if err := res.Retract(side, ids); err != nil {
					t.Fatal(err)
				}
			} else {
				ts := make([]dataset.Tuple, 1+rng.Intn(40))
				for i := range ts {
					ts[i] = tieTuple(rng, rel.D(), 3)
				}
				first, err := rel.AppendBatch(ts)
				if err != nil {
					t.Fatal(err)
				}
				ids := make([]int, len(ts))
				for i := range ids {
					ids[i] = first + i
				}
				if err := res.Absorb(side, ids); err != nil {
					t.Fatal(err)
				}
			}
			if step < steps-1 && rng.Intn(2) == 0 {
				continue
			}
			ord1, ord2 := res.orders()
			checkOrders(t, fmt.Sprintf("%s step %d left", label, step), rng, r1, ord1)
			checkOrders(t, fmt.Sprintf("%s step %d right", label, step), rng, r2, ord2)
		}
	}
}

// TestVerifyRangeReachesTau runs the blocked kernel directly on full-join
// checkers with more than tauSwitch probe lefts, for all six join
// conditions, over fresh relations and over a Resident carried through
// Absorb. The candidates include the joined tuple of least attribute sum,
// a skyline member at k = width, so its block has a live lane after the
// first tauSwitch lefts and must finish through sweepTau. Every keep bit
// must equal !checker.dominates and the test counts must be equal.
func TestVerifyRangeReachesTau(t *testing.T) {
	rng := rand.New(rand.NewSource(1418))
	conds := []join.Condition{
		join.Equality, join.Cross,
		join.BandLess, join.BandLessEq, join.BandGreater, join.BandGreaterEq,
	}
	for _, cond := range conds {
		for _, absorbed := range []bool{false, true} {
			label := fmt.Sprintf("cond=%v absorbed=%v", cond, absorbed)
			r1 := randRelation(rng, "r1", 200, 3, 1, 4, 20)
			r2 := randRelation(rng, "r2", 200, 3, 1, 4, 20)
			q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
			q.K = q.Width()
			var res *Resident
			if absorbed {
				q.R1, q.R2 = r1.Clone(), r2.Clone()
				if err := q.R1.DeleteBatch(allIndices(150)); err != nil {
					t.Fatal(err)
				}
				if err := q.R2.DeleteBatch(allIndices(150)); err != nil {
					t.Fatal(err)
				}
				var err error
				if res, err = NewResident(q); err != nil {
					t.Fatal(err)
				}
				for _, s := range []struct {
					side   Side
					rel    *dataset.Relation
					source *dataset.Relation
				}{{Left, q.R1, r1}, {Right, q.R2, r2}} {
					ts := make([]dataset.Tuple, 150)
					for i := range ts {
						ts[i] = s.source.Tuple(i)
					}
					first, err := s.rel.AppendBatch(ts)
					if err != nil {
						t.Fatal(err)
					}
					ids := make([]int, len(ts))
					for i := range ids {
						ids[i] = first + i
					}
					if err := res.Absorb(s.side, ids); err != nil {
						t.Fatal(err)
					}
				}
			}

			all, err := join.Pairs(q.R1, q.R2, q.Spec)
			if err != nil {
				t.Fatal(err)
			}
			best := 0
			for n, p := range all {
				if sumOf(p.Attrs) < sumOf(all[best].Attrs) {
					best = n
				}
			}
			candidates := []join.Pair{all[best]}
			for n := 0; n < len(all); n += 1 + len(all)/400 {
				candidates = append(candidates, all[n])
			}

			var bst, sst Stats
			e := newEngineResident(q, &bst, res)
			chk := e.fullChecker()
			chk.ensurePartners()
			if len(chk.plefts) <= tauSwitch {
				t.Fatalf("%s: %d probe lefts, need more than %d", label, len(chk.plefts), tauSwitch)
			}
			keep := e.keepBits(len(candidates))
			if err := chk.verifyRange(context.Background(), candidates, 0, len(candidates), keep); err != nil {
				t.Fatal(err)
			}
			if len(e.scratch.tau) == 0 {
				t.Fatalf("%s: the sweep never built target-set bitsets", label)
			}
			if keep[0]&1 == 0 {
				t.Fatalf("%s: least-sum joined tuple %v reported dominated", label, candidates[0].Attrs)
			}
			scalar := newEngineResident(q, &sst, res).fullChecker()
			for n, c := range candidates {
				if got, want := keep[n>>6]&(1<<(n&63)) != 0, !scalar.dominates(c.Attrs); got != want {
					t.Fatalf("%s: candidate %d %v: kernel keeps %v, checker.dominates keeps %v", label, n, c.Attrs, got, want)
				}
			}
			if bst.DominationTests != sst.DominationTests {
				t.Fatalf("%s: kernel counted %d tests, checker.dominates %d", label, bst.DominationTests, sst.DominationTests)
			}
		}
	}
}

// TestResidentOrdersConcurrentFirstUse runs concurrent readers of a
// Resident whose value orders still hold absorbed rows to merge: the
// first reader to need them merges under the Resident's lock while the
// others wait or read, so under -race this pins the merge's
// synchronization. Every reader must get the cold answer.
func TestResidentOrdersConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(1419))
	r1 := randRelation(rng, "r1", 150, 3, 1, 4, 20)
	r2 := randRelation(rng, "r2", 150, 3, 1, 4, 20)
	q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}}
	q.K = q.Width()
	res, err := NewResident(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		side Side
		rel  *dataset.Relation
	}{{Left, r1}, {Right, r2}} {
		ts := make([]dataset.Tuple, 60)
		for i := range ts {
			ts[i] = s.rel.Tuple(rng.Intn(s.rel.Len()))
			ts[i].Attrs = slices.Clone(ts[i].Attrs)
		}
		first, err := s.rel.AppendBatch(ts)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(ts))
		for i := range ids {
			ids[i] = first + i
		}
		if err := res.Absorb(s.side, ids); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := Run(q, Grouping)
	if err != nil {
		t.Fatal(err)
	}
	vectors := make([][]float64, len(cold.Skyline))
	for i, p := range cold.Skyline {
		vectors[i] = p.Attrs
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				warm, err := Exec(context.Background(), q, ExecOptions{Algorithm: Grouping, Resident: res})
				if err == nil && !reflect.DeepEqual(warm.Skyline, cold.Skyline) {
					err = fmt.Errorf("reader %d: resident skyline differs from the cold one", g)
				}
				errs[g] = err
				return
			}
			dominated, err := res.AnyDominators(context.Background(), q, vectors)
			if err == nil && slices.Contains(dominated, true) {
				err = fmt.Errorf("reader %d: a skyline member was voted dominated", g)
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestKernelEquivalenceOracleTau extends TestKernelEquivalenceOracle to
// instances large enough that blocks pass tauSwitch with live lanes, so
// the target-set sweep runs (TestVerifyRangeReachesTau shows that it does
// on instances of this shape): across all six join conditions at Workers
// 1 and 4, blocked and per-candidate runs must give byte-identical
// skylines and equal DominationTests in collect, Emit and Limit modes.
func TestKernelEquivalenceOracleTau(t *testing.T) {
	rng := rand.New(rand.NewSource(1415))
	conds := []join.Condition{
		join.Equality, join.Cross,
		join.BandLess, join.BandLessEq, join.BandGreater, join.BandGreaterEq,
	}
	for _, cond := range conds {
		for trial, domain := range []int{10, 20} {
			// Full dominance (k = width) keeps many candidates alive past
			// tauSwitch. Cross has no SN cells: a = 2 puts its "yes" cell
			// through the kernel.
			agg := 1 - trial
			if cond == join.Cross {
				agg, domain = 2, 20
			}
			r1 := randRelation(rng, "r1", 200, 3, agg, 4, domain)
			r2 := randRelation(rng, "r2", 200, 3, agg, 4, domain)
			q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
			q.K = q.Width()
			label := fmt.Sprintf("cond=%v trial=%d k=%d", cond, trial, q.K)

			var serialTests int64
			for _, workers := range []int{1, 4} {
				blocked, bst := execGrouping(t, q, workers, false, false, 0)
				scalar, sst := execGrouping(t, q, workers, true, false, 0)
				if !reflect.DeepEqual(blocked, scalar) {
					t.Fatalf("%s workers=%d: blocked and scalar skylines differ", label, workers)
				}
				if bst.DominationTests != sst.DominationTests {
					t.Fatalf("%s workers=%d: blocked %d tests, scalar %d",
						label, workers, bst.DominationTests, sst.DominationTests)
				}
				if workers == 1 {
					serialTests = bst.DominationTests
				} else if bst.DominationTests != serialTests {
					t.Fatalf("%s: pooled run did %d tests, serial %d", label, bst.DominationTests, serialTests)
				}

				emitB, ebst := execGrouping(t, q, workers, false, true, 0)
				emitS, esst := execGrouping(t, q, workers, true, true, 0)
				if !reflect.DeepEqual(emitB, emitS) || !reflect.DeepEqual(emitB, blocked) {
					t.Fatalf("%s workers=%d emit: streams differ from each other or the collected skyline", label, workers)
				}
				if ebst.DominationTests != esst.DominationTests {
					t.Fatalf("%s workers=%d emit: blocked %d tests, scalar %d",
						label, workers, ebst.DominationTests, esst.DominationTests)
				}

				limB, _ := execGrouping(t, q, workers, false, false, 3)
				limS, _ := execGrouping(t, q, workers, true, false, 3)
				if !reflect.DeepEqual(limB, limS) {
					t.Fatalf("%s workers=%d limit: blocked and scalar capped answers differ", label, workers)
				}
			}
		}
	}
}

// TestAnyDominatorsMembershipBruteForce pins the two kernel-backed probe
// entry points to a brute-force scan of the materialized join: every
// joined vector (ties included — the tiny domain repeats vectors), exact
// copies and fresh random vectors through AnyDominators, and every joined
// pair through Membership, with and without a Resident.
func TestAnyDominatorsMembershipBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1416))
	for _, cond := range []join.Condition{join.Equality, join.Cross, join.BandLess, join.BandGreaterEq} {
		for trial := 0; trial < 3; trial++ {
			agg := rng.Intn(3)
			r1 := tieRelation(rng, "r1", 80+rng.Intn(60), 1+rng.Intn(3), agg, 2)
			r2 := tieRelation(rng, "r2", 80+rng.Intn(60), 1+rng.Intn(3), agg, 2)
			q := Query{R1: r1, R2: r2, Spec: join.Spec{Cond: cond, Agg: join.Sum}}
			q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
			label := fmt.Sprintf("cond=%v trial=%d k=%d", cond, trial, q.K)
			all, err := join.Pairs(r1, r2, q.Spec)
			if err != nil {
				t.Fatal(err)
			}
			dominated := func(v []float64) bool {
				for _, p := range all {
					if dom.KDominates(p.Attrs, v, q.K) {
						return true
					}
				}
				return false
			}

			var vectors [][]float64
			var pairs [][2]int
			for n, p := range all {
				if n%3 == 0 {
					vectors = append(vectors, p.Attrs, slices.Clone(p.Attrs))
					pairs = append(pairs, [2]int{p.Left, p.Right})
				}
			}
			for n := 0; n < 40; n++ {
				vectors = append(vectors, tieTuple(rng, q.Width(), 1).Attrs)
			}
			res, err := NewResident(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AnyDominators(q, vectors)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := res.AnyDominators(context.Background(), q, vectors)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vectors {
				if want := dominated(v); got[i] != want || gotRes[i] != want {
					t.Fatalf("%s: vector %d %v: AnyDominators %v, resident %v, brute force %v",
						label, i, v, got[i], gotRes[i], want)
				}
			}

			members, err := Membership(q, pairs)
			if err != nil {
				t.Fatal(err)
			}
			membersRes, err := res.Membership(context.Background(), q, pairs)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]float64, 0, q.Width())
			for n, pr := range pairs {
				buf = join.CombineAt(r1, r2, pr[0], pr[1], q.aggregator(), buf)
				if want := !dominated(buf); members[n] != want || membersRes[n] != want {
					t.Fatalf("%s: pair %v: Membership %v, resident %v, brute force %v",
						label, pr, members[n], membersRes[n], want)
				}
			}
		}
	}
}
