package planner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/join"
)

// freshPlan is the reference planner: it lays the rank space out over a
// natural-order join.NewFullIndex, decodes each sampled rank through that
// index's partner lists, and probes with core.MembershipContext on fresh
// engine state — sharing nothing with the resident-backed path but the
// rank sampler and the decision rule.
func freshPlan(ctx context.Context, q core.Query, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	if err := q.Validate(core.Grouping); err != nil {
		return nil, err
	}
	ix := join.NewFullIndex(q.R1, q.R2, q.Spec.Cond)
	prefix := make([]int, q.R1.Len()+1)
	for i := 0; i < q.R1.Len(); i++ {
		prefix[i+1] = prefix[i] + len(ix.Partners(q.R1, i))
	}
	total := prefix[len(prefix)-1]
	if total == 0 {
		return nil, ErrEmptyJoin
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rng := randv2.New(randv2.NewPCG(uint64(opts.Seed), 0x9e3779b97f4a7c15))
	var pairs [][2]int
	for _, r := range sampleRanks(rng, total, min(opts.SampleSize, total)) {
		i := sort.SearchInts(prefix, r+1) - 1
		pairs = append(pairs, [2]int{i, ix.Partners(q.R1, i)[r-prefix[i]]})
	}
	members, err := core.MembershipContext(ctx, q, pairs)
	if err != nil {
		return nil, err
	}
	hits := 0
	for _, m := range members {
		if m {
			hits++
		}
	}
	frac := float64(hits) / float64(len(pairs))
	return decide(&Estimate{
		JoinedSize:      total,
		SampleSize:      len(pairs),
		SkylineFraction: frac,
		Cardinality:     int(frac*float64(total) + 0.5),
	}, opts), nil
}

// tiedTuples draws n tuples over a small integer domain, so attribute sums,
// bands and keys all tie often: the sum-ordered resident buckets then
// differ from row-ID order in many places.
func tiedTuples(rng *rand.Rand, n, d, groups int) []dataset.Tuple {
	ts := make([]dataset.Tuple, n)
	for i := range ts {
		attrs := make([]float64, d)
		for j := range attrs {
			attrs[j] = float64(rng.Intn(6))
		}
		ts[i] = dataset.Tuple{Key: fmt.Sprintf("g%d", rng.Intn(groups)), Band: float64(rng.Intn(10)), Attrs: attrs}
	}
	return ts
}

// residentKind builds q's relations and a Resident over them through one
// of three histories; the relations q ends up with are the ones the
// Resident serves.
type residentKind struct {
	name  string
	build func(t *testing.T, rng *rand.Rand, q *core.Query) *core.Resident
}

var residentKinds = []residentKind{
	{"fresh", func(t *testing.T, _ *rand.Rand, q *core.Query) *core.Resident {
		res, err := core.NewResident(*q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}},
	{"absorbed", func(t *testing.T, rng *rand.Rand, q *core.Query) *core.Resident {
		// Start from a prefix of each relation and absorb the rest in
		// batches on both sides, so every bucket ends with absorbed rows.
		full1, full2 := q.R1.Rows(), q.R2.Rows()
		n1, n2 := len(full1)/3, len(full2)/2
		q.R1 = dataset.MustNew("r1", q.R1.Local, q.R1.Agg, full1[:n1])
		q.R2 = dataset.MustNew("r2", q.R2.Local, q.R2.Agg, full2[:n2])
		res, err := core.NewResident(*q)
		if err != nil {
			t.Fatal(err)
		}
		for n1 < len(full1) || n2 < len(full2) {
			n1 = absorb(t, res, core.Left, q.R1, full1, n1, 1+rng.Intn(15))
			n2 = absorb(t, res, core.Right, q.R2, full2, n2, 1+rng.Intn(15))
		}
		return res
	}},
	{"retracted", func(t *testing.T, rng *rand.Rand, q *core.Query) *core.Resident {
		res, err := core.NewResident(*q)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			retract(t, res, core.Left, q.R1, pickIDs(rng, q.R1.Len(), q.R1.Len()/8))
			retract(t, res, core.Right, q.R2, pickIDs(rng, q.R2.Len(), q.R2.Len()/8))
		}
		return res
	}},
}

// absorb appends up to b more rows of full to rel and folds them into res,
// returning the new length.
func absorb(t *testing.T, res *core.Resident, side core.Side, rel *dataset.Relation, full []dataset.Tuple, n, b int) int {
	t.Helper()
	end := min(n+b, len(full))
	if end == n {
		return n
	}
	first, err := rel.AppendBatch(full[n:end])
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, end-n)
	for i := range ids {
		ids[i] = first + i
	}
	if err := res.Absorb(side, ids); err != nil {
		t.Fatal(err)
	}
	return end
}

// retract deletes ids (sorted ascending) from rel and from res.
func retract(t *testing.T, res *core.Resident, side core.Side, rel *dataset.Relation, ids []int) {
	t.Helper()
	if err := rel.DeleteBatch(ids); err != nil {
		t.Fatal(err)
	}
	if err := res.Retract(side, ids); err != nil {
		t.Fatal(err)
	}
}

// pickIDs draws b distinct row IDs from [0, n), sorted ascending.
func pickIDs(rng *rand.Rand, n, b int) []int {
	ids := rng.Perm(n)[:b]
	sort.Ints(ids)
	return ids
}

// TestPlanEquivalenceResident pins the resident-backed planner to the
// fresh-state reference: for every join condition and every resident
// history, ChooseResident and Choose return exactly freshPlan's
// Algorithm, Estimate and Reason. Sample sizes range from a handful of
// pairs to more than the whole join, and joins straddle the naive cap, so
// all three algorithms are planned.
func TestPlanEquivalenceResident(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1201))
	algs := map[core.Algorithm]bool{}
	conds := []join.Condition{join.Equality, join.Cross, join.BandLess, join.BandLessEq, join.BandGreater, join.BandGreaterEq}
	for _, cond := range conds {
		for _, kind := range residentKinds {
			for trial := 0; trial < 7; trial++ {
				local, agg := 1+rng.Intn(3), rng.Intn(2)
				groups := 1 + rng.Intn(6)
				q := core.Query{
					R1:   dataset.MustNew("r1", local, agg, tiedTuples(rng, 40+rng.Intn(80), local+agg, groups)),
					R2:   dataset.MustNew("r2", local, agg, tiedTuples(rng, 40+rng.Intn(80), local+agg, groups)),
					Spec: join.Spec{Cond: cond, Agg: join.Sum},
				}
				q.K = q.KMin() + rng.Intn(q.Width()-q.KMin()+1)
				if trial == 6 {
					// Wide anti-correlated data at full dominance: most
					// joined tuples are skyline members, so the plan is
					// dominator-based.
					q.R1 = synthetic(120, 5, 1, datagen.AntiCorrelated, int64(2*trial+1))
					q.R2 = synthetic(120, 5, 1, datagen.AntiCorrelated, int64(2*trial+2))
					q.K = q.Width()
				}
				res := kind.build(t, rng, &q)
				opts := Options{SampleSize: []int{0, 5, 60, 1 << 20}[trial%4], Seed: int64(trial + 1)}
				label := fmt.Sprintf("%v/%s/trial %d", cond, kind.name, trial)

				want, err := freshPlan(ctx, q, opts)
				if errors.Is(err, ErrEmptyJoin) {
					if _, err := ChooseResident(ctx, q, res, opts); !errors.Is(err, ErrEmptyJoin) {
						t.Fatalf("%s: empty join planned with err %v, want ErrEmptyJoin", label, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				got, err := ChooseResident(ctx, q, res, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: resident plan %+v (%+v), fresh plan %+v (%+v)", label, got, *got.Estimate, want, *want.Estimate)
				}
				fresh, err := Choose(ctx, q, opts)
				if err != nil {
					t.Fatalf("%s: Choose: %v", label, err)
				}
				if !reflect.DeepEqual(fresh, want) {
					t.Fatalf("%s: Choose plan %+v, fresh plan %+v", label, fresh, want)
				}
				algs[got.Algorithm] = true
			}
		}
	}
	for _, alg := range []core.Algorithm{core.Naive, core.Grouping, core.DominatorBased} {
		if !algs[alg] {
			t.Errorf("no trial planned %v", alg)
		}
	}
}

// TestChooseResidentDrainedJoin: deletes that leave no joined pair make the
// planner report ErrEmptyJoin — the service maps it to the empty skyline.
func TestChooseResidentDrainedJoin(t *testing.T) {
	r1 := dataset.MustNew("r1", 2, 0, []dataset.Tuple{
		{Key: "a", Attrs: []float64{1, 2}}, {Key: "b", Attrs: []float64{2, 1}},
	})
	r2 := dataset.MustNew("r2", 2, 0, []dataset.Tuple{
		{Key: "a", Attrs: []float64{1, 1}}, {Key: "c", Attrs: []float64{3, 3}}, {Key: "b", Attrs: []float64{2, 2}},
	})
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 3}
	res, err := core.NewResident(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChooseResident(context.Background(), q, res, Options{}); err != nil {
		t.Fatalf("before the drain: %v", err)
	}
	if err := r2.DeleteBatch([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := res.Retract(core.Right, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ChooseResident(context.Background(), q, res, Options{}); !errors.Is(err, ErrEmptyJoin) {
		t.Fatalf("drained join: err = %v, want ErrEmptyJoin", err)
	}
}

// TestChooseResidentErrors: a cancelled context surfaces as ctx.Err(), and
// a resident that no longer matches the relations is refused.
func TestChooseResidentErrors(t *testing.T) {
	r1 := synthetic(200, 4, 5, datagen.AntiCorrelated, 91)
	r2 := synthetic(200, 4, 5, datagen.AntiCorrelated, 92)
	q := core.Query{R1: r1, R2: r2, Spec: join.Spec{Cond: join.Equality}, K: 6}
	res, err := core.NewResident(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ChooseResident(ctx, q, res, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled plan returned %v, want context.Canceled", err)
	}
	if _, err := r2.AppendBatch([]dataset.Tuple{r2.Tuple(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ChooseResident(context.Background(), q, res, Options{}); !errors.Is(err, core.ErrStaleResident) {
		t.Errorf("stale resident: err = %v, want ErrStaleResident", err)
	}
}

// BenchmarkPlannerChoose measures one auto-planning decision on a 16 000 ×
// 16 000-row equality join over 512 keys (3 local + 1 aggregate attribute,
// k=6, sum): "fresh" builds the planner's state from the relations,
// "resident" plans over a prebuilt Resident as the query service does.
func BenchmarkPlannerChoose(b *testing.B) {
	gen := func(name string, seed int64) *dataset.Relation {
		return datagen.MustGenerate(datagen.Config{Name: name, N: 16000, Local: 3, Agg: 1, Groups: 512, Seed: seed})
	}
	q := core.Query{R1: gen("r1", 1), R2: gen("r2", 2), Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 6}
	ctx := context.Background()
	b.Run("fresh", func(b *testing.B) {
		for b.Loop() {
			if _, err := Choose(ctx, q, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resident", func(b *testing.B) {
		res, err := core.NewResident(q)
		if err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			if _, err := ChooseResident(ctx, q, res, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
