package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"sync"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/join"
	"repro/internal/service"
)

// Every relation has 3 local attributes and 1 aggregate attribute.
const localAttrs, aggAttrs = 3, 1

// genRelations builds n relations named r0..r{n-1} of rows tuples over
// groups join keys, each from its own seed derived from the run's seed.
func genRelations(seed int64, n, rows, groups int) ([]*dataset.Relation, error) {
	rels := make([]*dataset.Relation, n)
	for i := range rels {
		r, err := datagen.Generate(datagen.Config{
			Name: fmt.Sprintf("r%d", i), N: rows, Local: localAttrs, Agg: aggAttrs,
			Groups: groups, Dist: datagen.Independent, Seed: seed*1009 + int64(i),
		})
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	return rels, nil
}

// shape is one query: an equality join of two relations, k=queryK, sum
// aggregation, algorithm chosen by the server's planner.
type shape struct {
	r1, r2 *dataset.Relation
}

// pairShapes makes one shape per unordered pair of relations.
func pairShapes(rels []*dataset.Relation) []shape {
	var out []shape
	for i := range rels {
		for j := i + 1; j < len(rels); j++ {
			out = append(out, shape{r1: rels[i], r2: rels[j]})
		}
	}
	return out
}

func (s shape) String() string { return s.r1.Name + "⋈" + s.r2.Name }

func (s shape) wire(noCache bool) httpapi.QueryJSON {
	return httpapi.QueryJSON{R1: s.r1.Name, R2: s.r2.Name, K: queryK, Join: "eq", Agg: "sum", NoCache: noCache}
}

func (s shape) request(noCache bool) service.QueryRequest {
	return service.QueryRequest{R1: s.r1.Name, R2: s.r2.Name, K: queryK, Join: "eq", Agg: "sum", NoCache: noCache}
}

// query is the engine-level form over the given relations (the
// benchmark's own copies, or a mirror's).
func (s shape) query() core.Query {
	return core.Query{R1: s.r1, R2: s.r2, Spec: join.Spec{Cond: join.Equality, Agg: join.Sum}, K: queryK}
}

// encodeSkyline is the wire encoding of a skyline, byte-identical to the
// "skyline" field ksjqd writes.
func encodeSkyline(pairs []join.Pair) ([]byte, error) {
	out := make([]httpapi.PairJSON, len(pairs))
	for i, p := range pairs {
		out[i] = httpapi.PairJSON{Left: p.Left, Right: p.Right, Attrs: p.Attrs}
	}
	return json.Marshal(out)
}

// references computes every shape's answer in this process with the
// grouping algorithm over fresh (non-resident) state, two shapes at a
// time, and returns their wire encodings.
func references(ctx context.Context, shapes []shape) ([][]byte, error) {
	refs := make([][]byte, len(shapes))
	errs := make([]error, len(shapes))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, sh := range shapes {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := core.Exec(ctx, sh.query(), core.ExecOptions{Algorithm: core.Grouping})
			if err != nil {
				errs[i] = fmt.Errorf("reference for %s: %w", sh, err)
				return
			}
			refs[i], errs[i] = encodeSkyline(res.Skyline)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// csvBodies renders each relation as the CSV body of a registration.
func csvBodies(rels []*dataset.Relation) ([][]byte, error) {
	out := make([][]byte, len(rels))
	for i, r := range rels {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, r, false); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// register loads every relation into a node or gateway over HTTP.
func register(ctx context.Context, c *client, base string, rels []*dataset.Relation, bodies [][]byte) error {
	for i, r := range rels {
		q := url.Values{"format": {"csv"}, "name": {r.Name}, "local": {fmt.Sprint(localAttrs)}, "agg": {fmt.Sprint(aggAttrs)}}
		var resp httpapi.RegisterResponseJSON
		if _, err := c.do(ctx, "POST", base+"/v1/relations?"+q.Encode(), "text/csv", bodies[i], &resp); err != nil {
			return err
		}
		if resp.Tuples != r.Len() {
			return fmt.Errorf("registering %s: server holds %d tuples, sent %d", r.Name, resp.Tuples, r.Len())
		}
	}
	return nil
}
