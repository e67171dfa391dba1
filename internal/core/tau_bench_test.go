package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/join"
)

// serverShapeQuery is the end-to-end benchmark's query shape: an equality
// join of two 16 000-row independent relations over 512 keys, 3 local
// attributes plus 1 summed aggregate, k = 6.
func serverShapeQuery(b *testing.B) Query {
	b.Helper()
	rels := make([]*dataset.Relation, 2)
	for i := range rels {
		r, err := datagen.Generate(datagen.Config{
			Name: fmt.Sprintf("r%d", i), N: 16000, Local: 3, Agg: 1,
			Groups: 512, Dist: datagen.Independent, Seed: 1009 + int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		rels[i] = r
	}
	return Query{R1: rels[0], R2: rels[1], Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: 6}
}

// BenchmarkVerifyMaybeCell times the blocked kernel on the "may be" cell
// (SN1 ⋈ SN2 checked against the full join) over a prebuilt Resident —
// the cell that dominates a cold query's verification. tests/op is the
// cell's DominationTests, identical on every kernel path.
func BenchmarkVerifyMaybeCell(b *testing.B) {
	q := serverShapeQuery(b)
	res, err := NewResident(q)
	if err != nil {
		b.Fatal(err)
	}
	k1p, k2p := q.KPrimes()
	c1 := Categorize(q.R1, k1p, q.Spec.Cond, Left)
	c2 := Categorize(q.R2, k2p, q.Spec.Cond, Right)
	st := Stats{}
	candidates := newEngineResident(q, &st, res).pairs(c1.SN, c2.SN)
	all1, all2 := allIndices(q.R1.Len()), allIndices(q.R2.Len())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = Stats{}
		e := newEngineResident(q, &st, res)
		chk := e.newChecker(all1, all2)
		chk.ensurePartners()
		keep := e.keepBits(len(candidates))
		if err := chk.verifyRange(ctx, candidates, 0, len(candidates), keep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.DominationTests), "tests/op")
}

// keyHalf returns the rows of r whose join key hashes to half h of two —
// the same split on both relations, so each half is a self-contained
// partition of the join.
func keyHalf(b *testing.B, r *dataset.Relation, h uint32) *dataset.Relation {
	b.Helper()
	var rows []dataset.Tuple
	for i := 0; i < r.Len(); i++ {
		f := fnv.New32a()
		f.Write([]byte(r.Key(i)))
		if f.Sum32()%2 == h {
			rows = append(rows, r.Tuple(i))
		}
	}
	out, err := dataset.New(fmt.Sprintf("%s/%d", r.Name, h), r.Local, r.Agg, rows)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkAnyDominatorsShard times a shard's verification round: the
// keys are split two ways, one half's local (round-1) skyline is computed
// once, and each iteration checks its vectors against the other half's
// Resident with AnyDominators.
func BenchmarkAnyDominatorsShard(b *testing.B) {
	q := serverShapeQuery(b)
	qa, qb := q, q
	qa.R1, qa.R2 = keyHalf(b, q.R1, 0), keyHalf(b, q.R2, 0)
	qb.R1, qb.R2 = keyHalf(b, q.R1, 1), keyHalf(b, q.R2, 1)
	local, err := Run(qa, Grouping)
	if err != nil {
		b.Fatal(err)
	}
	vectors := make([][]float64, len(local.Skyline))
	for i, p := range local.Skyline {
		vectors[i] = p.Attrs
	}
	res, err := NewResident(qb)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.AnyDominators(ctx, qb, vectors); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(vectors)), "vectors/op")
}
