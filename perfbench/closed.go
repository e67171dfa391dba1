package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/planner"
	"repro/internal/shard"
)

// cold-analytic: one in-memory ksjqd; one client sends no_cache,
// auto-planned queries back to back, so every request plans and runs
// the engine over the resident index.
func coldAnalytic(ctx context.Context, b *bench) error { return closedLoop(ctx, b, false) }

// sharded-scatter: the same inputs and queries through a gateway over
// two shard processes, so every request runs both scatter-gather rounds.
func shardedScatter(ctx context.Context, b *bench) error { return closedLoop(ctx, b, true) }

// deployment is one set-up's processes and the one clients talk to.
type deployment struct {
	front *server
	nodes []*server
}

func (d *deployment) stop() {
	for _, s := range d.nodes {
		s.stop()
	}
}

// deploy boots a single node, or two shards and a gateway over them.
func (b *bench) deploy(ctx context.Context, sharded bool, i int) (*deployment, error) {
	if !sharded {
		s, err := b.start(ctx, fmt.Sprintf("node-%d", i))
		if err != nil {
			return nil, err
		}
		return &deployment{front: s, nodes: []*server{s}}, nil
	}
	d := &deployment{}
	var addrs []string
	for j := 0; j < 2; j++ {
		s, err := b.start(ctx, fmt.Sprintf("shard%d-%d", j, i))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.nodes = append(d.nodes, s)
		addrs = append(addrs, strings.TrimPrefix(s.url, "http://"))
	}
	gw, err := b.start(ctx, fmt.Sprintf("gateway-%d", i), "-gateway", "-shards", strings.Join(addrs, ","))
	if err != nil {
		d.stop()
		return nil, err
	}
	d.front = gw
	d.nodes = append(d.nodes, gw)
	return d, nil
}

func closedLoop(ctx context.Context, b *bench, sharded bool) error {
	sc := b.opts.scale
	rels, err := genRelations(b.opts.seed, sc.relations, sc.rows, sc.groups)
	if err != nil {
		return err
	}
	shapes := pairShapes(rels)
	refs, err := references(ctx, shapes)
	if err != nil {
		return err
	}
	if b.tamperRefs != nil {
		b.tamperRefs(refs)
	}
	bodies, err := csvBodies(rels)
	if err != nil {
		return err
	}
	c := newClient(1)
	defer c.close()

	// Set up from scratch several times; setup_s is the median. The last
	// deployment carries the load.
	var dep *deployment
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		if dep != nil {
			dep.stop()
		}
		t0 := time.Now()
		if dep, err = b.deploy(ctx, sharded, i); err != nil {
			return err
		}
		if err := register(ctx, c, dep.front.url, rels, bodies); err != nil {
			return err
		}
		resp, _, err := c.query(ctx, dep.front.url, shapes[0], true)
		if err != nil {
			return fmt.Errorf("set-up %d: first query: %w", i, err)
		}
		setups = append(setups, since(t0))
		b.rep.check(bytes.Equal(resp.Skyline, refs[0]), "set-up %d: answer for %s differs from the reference", i, shapes[0])
	}
	b.rep.set("setup_s", median(setups), "s")
	b.rep.note("setup_s is the median of %d set-ups: %v", len(setups), setups)

	var replay *shard.Gateway
	if b.tr.on {
		traceResidents(b, shapes)
		if sharded {
			if replay, err = replayGateway(ctx, dep, rels); err != nil {
				return err
			}
			defer replay.Close()
		}
	}

	// One untimed pass builds every pair's resident index, as a
	// long-running server would hold them (for the replay's copies too).
	for i, sh := range shapes {
		resp, _, err := c.query(ctx, dep.front.url, sh, true)
		b.rep.check(err == nil && bytes.Equal(resp.Skyline, refs[i]), "warm-up %s: %v", sh, errOrWrong(err))
		if replay != nil {
			req := sh.request(true)
			req.R1, req.R2 = replayPrefix+req.R1, replayPrefix+req.R2
			_, err := replay.Query(ctx, req)
			b.rep.op(err)
		}
	}

	before, err := c.stats(ctx, dep.front.url)
	if err != nil {
		return err
	}
	var lat []float64
	t0 := time.Now()
	deadline := t0.Add(time.Duration(b.opts.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		sh, ref := shapes[i%len(shapes)], refs[i%len(shapes)]
		start := time.Now()
		resp, n, err := c.query(ctx, dep.front.url, sh, true)
		end := time.Now()
		if err == nil && !bytes.Equal(resp.Skyline, ref) {
			err = fmt.Errorf("query %d (%s): answer differs from the single-node reference", i, sh)
		}
		b.rep.op(err)
		if err != nil {
			continue
		}
		lat = append(lat, ms(end.Sub(start)))
		if b.tr.on {
			b.traceQuery(ctx, sh, ref, resp, n, start, end, replay)
		}
	}
	wall := since(t0)
	after, err := c.stats(ctx, dep.front.url)
	if err != nil {
		return err
	}
	b.rep.setLatency("query", lat)
	b.rep.set("goodput_ops", float64(len(lat))/wall, "ops/s")
	b.rep.note("%d queries over %d shapes (k=%d, sum, equality join, no_cache, auto-planned) in %.1fs, 1 client, closed loop", len(lat), len(shapes), queryK, wall)
	rss, err := peakRSS(dep.nodes...)
	if err != nil {
		return err
	}
	b.rep.set("peak_rss_mb", rss, "MB")
	if b.tr.on {
		b.rep.set("trace.query_p50_ms", median(lat), "ms")
		setStatsDeltas(b.rep, before, after)
	}
	return nil
}

// traceQuery records one query's spans and per-layer samples: the
// client-seen call, the server-reported service time and engine phases,
// and a replay of the layer calls the server made in between.
func (b *bench) traceQuery(ctx context.Context, sh shape, ref []byte, resp *queryResp, size int, start, end time.Time, replay *shard.Gateway) {
	elapsed := time.Duration(resp.ElapsedUS) * time.Microsecond
	b.tr.sample("httpapi.overhead_ms", ms(end.Sub(start)-elapsed))
	b.tr.sample("httpapi.resp_bytes", float64(size))
	b.tr.sample("service.elapsed_ms", ms(elapsed))
	root := b.tr.root("http.query", start, end)
	if replay != nil {
		gwSpan := root.child("shard.Gateway.Query", "server", elapsed)
		traceScatter(ctx, b, gwSpan, sh, ref, replay)
		return
	}
	svc := root.child("service.Query", "server", elapsed)
	p0 := time.Now()
	_, err := planner.Choose(ctx, sh.query(), planner.Options{})
	pd := time.Since(p0)
	if err != nil {
		b.rep.op(fmt.Errorf("replaying planner.Choose for %s: %w", sh, err))
		return
	}
	svc.child("planner.Choose", "replay", pd)
	b.tr.sample("planner.choose_ms", ms(pd))
	st := resp.Stats
	if st == nil {
		return
	}
	us := func(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
	exec := svc.child("core.Resident.Exec", "server", us(st.TotalUS))
	exec.child("core.categorize", "server", us(st.GroupingUS))
	exec.child("core.join", "server", us(st.JoinUS))
	exec.child("core.verify", "server", us(st.DominatorUS+st.RemainingUS))
	b.tr.sample("core.categorize_ms", float64(st.GroupingUS)/1e3)
	b.tr.sample("core.join_ms", float64(st.JoinUS)/1e3)
	b.tr.sample("core.verify_ms", float64(st.DominatorUS+st.RemainingUS)/1e3)
	b.tr.sample("core.domination_tests", float64(st.DomTests))
	b.tr.sample("core.candidates", float64(st.Candidates))
}

// replayPrefix names the copies of the relations the replay gateway
// registers on the shards, beside the front gateway's own.
const replayPrefix = "replay-"

// replayGateway connects an in-process shard.Gateway to the deployment's
// shard processes and registers a copy of every relation through it, so
// traced requests can replay the scatter-gather and read its per-round
// breakdown.
func replayGateway(ctx context.Context, dep *deployment, rels []*dataset.Relation) (*shard.Gateway, error) {
	var addrs []string
	for _, s := range dep.nodes[:len(dep.nodes)-1] {
		addrs = append(addrs, strings.TrimPrefix(s.url, "http://"))
	}
	gw, err := shard.New(ctx, addrs, shard.Config{})
	if err != nil {
		return nil, err
	}
	for _, r := range rels {
		if _, err := gw.Register(ctx, replayPrefix+r.Name, r.Local, r.Agg, r.Rows()); err != nil {
			gw.Close()
			return nil, err
		}
	}
	return gw, nil
}

// traceScatter replays one query through the in-process gateway and
// records round 1 (the slowest shard's local run), round 2 (candidate
// verification) and what is left to the gateway itself.
func traceScatter(ctx context.Context, b *bench, parent *spanRef, sh shape, ref []byte, gw *shard.Gateway) {
	req := sh.request(true)
	req.R1, req.R2 = replayPrefix+req.R1, replayPrefix+req.R2
	resp, err := gw.Query(ctx, req)
	if err != nil {
		b.rep.op(fmt.Errorf("replaying shard.Gateway.Query for %s: %w", sh, err))
		return
	}
	sky, err := encodeSkyline(resp.Skyline)
	b.rep.check(err == nil && bytes.Equal(sky, ref), "replayed scatter-gather for %s differs from the reference", sh)
	var r1Max, r1Sum time.Duration
	parts := 0
	for _, d := range resp.R1Elapsed {
		if d > 0 {
			r1Max = max(r1Max, d)
			r1Sum += d
			parts++
		}
	}
	r2 := resp.Dist.VerifyTime
	parent.child("shard.round1", "replay", r1Max)
	parent.child("shard.round2", "replay", r2)
	b.tr.sample("shard.r1_max_ms", ms(r1Max))
	if r1Sum > 0 {
		b.tr.sample("shard.r1_imbalance", float64(r1Max)*float64(parts)/float64(r1Sum))
	}
	b.tr.sample("shard.r2_ms", ms(r2))
	b.tr.sample("shard.r2_messages", float64(resp.Dist.MessagesSent))
	b.tr.sample("shard.r2_floats", float64(resp.Dist.FloatsShipped))
	b.tr.sample("shard.gateway_self_ms", ms(max(0, resp.Elapsed-r1Max-r2)))
}

// traceResidents times core.NewResident, the index build a node pays
// once per relation pair, on every shape.
func traceResidents(b *bench, shapes []shape) {
	for _, sh := range shapes {
		t0 := time.Now()
		_, err := core.NewResident(sh.query())
		if err != nil {
			b.rep.op(fmt.Errorf("core.NewResident for %s: %w", sh, err))
			continue
		}
		b.tr.sample("service.resident_build_ms", ms(time.Since(t0)))
	}
}

// setStatsDeltas reports the service counters' movement over the load.
func setStatsDeltas(rep *report, before, after serviceStats) {
	queries := float64(after.Queries - before.Queries)
	hits := float64(after.CacheHits + after.MaintainedHits - before.CacheHits - before.MaintainedHits)
	ratio := 0.0
	if queries > 0 {
		ratio = hits / queries
	}
	rep.set("service.cache_hit_ratio", ratio, "ratio")
	rep.set("service.rejected", float64(after.Rejected-before.Rejected), "count")
}

func errOrWrong(err error) any {
	if err != nil {
		return err
	}
	return "answer differs from the reference"
}
