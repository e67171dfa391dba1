// Package planner estimates KSJQ answer cardinalities by sampling and
// chooses an evaluation algorithm from those estimates — the query-
// optimizer layer a system shipping KSJQ would need. The paper leaves the
// algorithm choice to the user (its experiments sweep all three); the
// estimator follows the spirit of the sampling-based cardinality work it
// cites (Hwang et al., SIAM J. Comput. 2013: threshold phenomena in
// k-dominant skylines of random samples).
package planner

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/join"
)

// Estimate summarizes sampled statistics of one KSJQ instance.
type Estimate struct {
	// JoinedSize is the exact size of R1 ⋈ R2 (cheap to count).
	JoinedSize int
	// SampleSize is the number of joined pairs probed.
	SampleSize int
	// SkylineFraction is the sampled probability that a joined tuple is a
	// k-dominant skyline member.
	SkylineFraction float64
	// Cardinality is SkylineFraction × JoinedSize, rounded.
	Cardinality int
}

// Options controls estimation and planning.
type Options struct {
	// SampleSize bounds how many joined pairs are probed (default 200).
	SampleSize int
	// Seed makes sampling reproducible (default 1).
	Seed int64
	// NaiveJoinCap is the joined-relation size below which the naive
	// algorithm is considered competitive (default 2048): joining
	// everything is then cheaper than categorizing both relations.
	NaiveJoinCap int
}

func (o Options) withDefaults() Options {
	if o.SampleSize <= 0 {
		o.SampleSize = 200
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.NaiveJoinCap <= 0 {
		o.NaiveJoinCap = 2048
	}
	return o
}

// ErrEmptyJoin is returned when the two relations produce no joined pairs.
var ErrEmptyJoin = errors.New("planner: join is empty")

// EstimateCardinality samples joined pairs uniformly and probes their
// skyline membership on freshly built state: it is core.NewResident
// followed by EstimateResident. Callers that already hold the query's
// Resident should call EstimateResident and skip the build.
func EstimateCardinality(ctx context.Context, q core.Query, opts Options) (*Estimate, error) {
	res, err := newResident(q)
	if err != nil {
		return nil, err
	}
	return EstimateResident(ctx, q, res, opts)
}

// EstimateResident samples joined pairs uniformly over res — the snapshot
// the query is about to run on — and probes their skyline membership with
// res.Membership, building no join index or probe order of its own. The
// estimator is unbiased for SkylineFraction; its variance shrinks as
// 1/SampleSize. res must match q (core.ErrStaleResident otherwise). A
// cancelled context aborts the membership probes with ctx.Err().
func EstimateResident(ctx context.Context, q core.Query, res *core.Resident, opts Options) (*Estimate, error) {
	opts = opts.withDefaults()
	if err := q.Validate(core.Grouping); err != nil {
		return nil, err
	}
	if err := res.Check(q); err != nil {
		return nil, err
	}
	rs := newRankSpace(q, res)
	total := rs.prefix[len(rs.prefix)-1]
	if total == 0 {
		return nil, ErrEmptyJoin
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	pairs := rs.samplePairs(opts)
	members, err := res.Membership(ctx, q, pairs)
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
	return &Estimate{
		JoinedSize:      total,
		SampleSize:      len(pairs),
		SkylineFraction: frac,
		Cardinality:     int(frac*float64(total) + 0.5),
	}, nil
}

// newResident validates q before building its Resident, so a malformed
// query fails with the same error whether or not the caller supplied one.
func newResident(q core.Query) (*core.Resident, error) {
	if err := q.Validate(core.Grouping); err != nil {
		return nil, err
	}
	return core.NewResident(q)
}

// rankSpace lays the join's rank space out over a resident's full-R2
// index: for each R1 tuple i, its partners occupy the contiguous rank
// range [prefix[i], prefix[i+1]), whose width is the partner-range size.
// Building the prefix sums costs O(n₁ log n₂) — no per-tuple partner
// materialization and no O(n₁·n₂) scan — and prefix[n₁] is the exact
// join size, so one pass serves both counting and sampling.
type rankSpace struct {
	q      core.Query
	ix     *join.Index
	prefix []int
	// byID caches equality buckets re-sorted into row-ID order, keyed by
	// the probing R1 row's key symbol; filled on first decode.
	byID map[int32][]int
}

func newRankSpace(q core.Query, res *core.Resident) *rankSpace {
	ix := res.RightIndex()
	prefix := make([]int, q.R1.Len()+1)
	for i := 0; i < q.R1.Len(); i++ {
		prefix[i+1] = prefix[i] + len(ix.Partners(q.R1, i))
	}
	return &rankSpace{q: q, ix: ix, prefix: prefix}
}

// partner decodes offset off within R1 tuple i's rank range to the
// off-th partner in row-ID order within its partner range — the order a
// natural-order index lists them in. The resident's own partner order
// depends on its history (equality buckets are in sum order, absorbed rows
// at the tail), so decoding through it directly would make the sample a
// function of how the resident got here; the canonical rule makes it a
// function of the partner set alone:
//
//   - Cross: every R2 row is a partner, so the offset is the row ID;
//   - equality: the off-th smallest row ID of the bucket;
//   - band conditions: the band permutation is already in (band, row ID)
//     order, so the offset indexes it directly.
func (rs *rankSpace) partner(i, off int) int {
	switch rs.q.Spec.Cond {
	case join.Cross:
		return off
	case join.Equality:
		sym := rs.q.R1.KeyID(i)
		b, ok := rs.byID[sym]
		if !ok {
			b = slices.Clone(rs.ix.Partners(rs.q.R1, i))
			slices.Sort(b)
			if rs.byID == nil {
				rs.byID = make(map[int32][]int)
			}
			rs.byID[sym] = b
		}
		return b[off]
	default:
		return rs.ix.Partners(rs.q.R1, i)[off]
	}
}

// samplePairs draws min(SampleSize, join size) joined pairs uniformly at
// random, without replacement. Decoding a sampled rank is one binary
// search on the prefix array plus one partner decode.
func (rs *rankSpace) samplePairs(opts Options) [][2]int {
	rng := rand.New(rand.NewPCG(uint64(opts.Seed), 0x9e3779b97f4a7c15))
	total := rs.prefix[len(rs.prefix)-1]
	m := min(opts.SampleSize, total)
	out := make([][2]int, 0, m)
	for _, r := range sampleRanks(rng, total, m) {
		i := sort.SearchInts(rs.prefix, r+1) - 1
		out = append(out, [2]int{i, rs.partner(i, r-rs.prefix[i])})
	}
	return out
}

// sampleRanks draws m distinct ranks uniformly from [0, total) with a
// partial Fisher–Yates shuffle: only the m swaps that matter are
// performed, with displaced values tracked in a sparse map, so the cost is
// O(m) time and space instead of the O(total) of materializing a full
// permutation (total is the join size, which can be quadratic).
func sampleRanks(rng *rand.Rand, total, m int) []int {
	ranks := make([]int, m)
	displaced := make(map[int]int, m)
	for t := 0; t < m; t++ {
		j := t + rng.IntN(total-t)
		vj, ok := displaced[j]
		if !ok {
			vj = j
		}
		vt, ok := displaced[t]
		if !ok {
			vt = t
		}
		ranks[t] = vj
		displaced[j] = vt
	}
	return ranks
}

// Plan is the planner's decision with its rationale.
type Plan struct {
	Algorithm core.Algorithm
	Estimate  *Estimate
	Reason    string
}

// Choose picks an evaluation algorithm for the query on freshly built
// state: it is core.NewResident followed by ChooseResident, so the plan is
// identical to the one a caller holding the query's Resident gets.
func Choose(ctx context.Context, q core.Query, opts Options) (*Plan, error) {
	res, err := newResident(q)
	if err != nil {
		return nil, err
	}
	return ChooseResident(ctx, q, res, opts)
}

// ChooseResident picks an evaluation algorithm for the query, sampling over
// res, the snapshot the query will run on:
//
//   - tiny joins go to the naive algorithm — materializing everything is
//     cheaper than categorizing two relations;
//   - a high sampled skyline fraction favors the dominator-based
//     algorithm: most candidates survive their checks, so bounding each
//     verification by an explicit (small) dominator join beats the
//     grouping algorithm's scans of R1 ⋈ R2;
//   - otherwise the grouping algorithm, the paper's overall winner.
func ChooseResident(ctx context.Context, q core.Query, res *core.Resident, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	est, err := EstimateResident(ctx, q, res, opts)
	if err != nil {
		return nil, err
	}
	return decide(est, opts), nil
}

// decide turns an estimate into a plan; opts must carry its defaults.
func decide(est *Estimate, opts Options) *Plan {
	switch {
	case est.JoinedSize <= opts.NaiveJoinCap:
		return &Plan{
			Algorithm: core.Naive,
			Estimate:  est,
			Reason:    fmt.Sprintf("joined size %d <= cap %d: join-then-compute is cheapest", est.JoinedSize, opts.NaiveJoinCap),
		}
	case est.SkylineFraction >= 0.5:
		return &Plan{
			Algorithm: core.DominatorBased,
			Estimate:  est,
			Reason: fmt.Sprintf("sampled skyline fraction %.2f: most candidates survive, explicit dominator sets bound their checks",
				est.SkylineFraction),
		}
	default:
		return &Plan{
			Algorithm: core.Grouping,
			Estimate:  est,
			Reason:    fmt.Sprintf("sampled skyline fraction %.2f: grouping prunes most of the join", est.SkylineFraction),
		}
	}
}

// Run plans and executes in one call, on the unified execution path; the
// Resident built for planning serves the execution too.
func Run(ctx context.Context, q core.Query, opts Options) (*core.Result, *Plan, error) {
	res, err := newResident(q)
	if err != nil {
		return nil, nil, err
	}
	plan, err := ChooseResident(ctx, q, res, opts)
	if err != nil {
		return nil, nil, err
	}
	out, err := res.Exec(ctx, q, core.ExecOptions{Algorithm: plan.Algorithm})
	if err != nil {
		return nil, nil, err
	}
	return out, plan, nil
}
