package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
)

// liveSenders is the number of sending goroutines (and pooled
// connections) of the live-mixed open loop, one for reads and one for
// writes: no more than the CPUs of the 2-CPU machine the benchmark was
// built on.
const liveSenders = 2

// opKind is a live-mixed operation type.
type opKind int

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// liveOp is one scheduled live-mixed operation.
type liveOp struct {
	kind   opKind
	shape  int             // opRead
	rel    int             // opInsert, opDelete
	tuples []dataset.Tuple // opInsert
}

// live is the live-mixed workload's state shared by its senders.
type live struct {
	b      *bench
	c      *client
	url    string
	rels   []*dataset.Relation
	shapes []shape
	mirror *mirror // traced runs only

	// Acknowledged row changes per relation, for the restart check.
	inserted, deleted []atomic.Int64
	writeSeq          int // plan-time counter alternating inserts and deletes
}

// liveMixed: one durable ksjqd holding small relations; an open loop
// at fixed offered rates sends reads answered from maintained cache
// entries and balanced insert/delete batches, while one watch stays
// subscribed. It ends with a kill -9 and a restart from the data
// directory.
func liveMixed(ctx context.Context, b *bench) error {
	sc := b.opts.scale
	rels, err := genRelations(b.opts.seed, sc.liveRelations, sc.liveRows, sc.liveGroups)
	if err != nil {
		return err
	}
	shapes := pairShapes(rels)
	refs, err := references(ctx, shapes)
	if err != nil {
		return err
	}
	bodies, err := csvBodies(rels)
	if err != nil {
		return err
	}
	c := newClient(liveSenders)
	defer c.close()

	var srv *server
	var dataDir string
	var setups []float64
	for i := 0; i < sc.setups; i++ {
		if srv != nil {
			srv.stop()
		}
		dataDir = filepath.Join(b.dir, fmt.Sprintf("data-%d", i))
		t0 := time.Now()
		srv, err = b.start(ctx, fmt.Sprintf("live-%d", i), "-data", dataDir, "-checkpoint-interval", sc.checkpoint.String())
		if err != nil {
			return err
		}
		if err := register(ctx, c, srv.url, rels, bodies); err != nil {
			return err
		}
		resp, _, err := c.query(ctx, srv.url, shapes[0], false)
		if err != nil {
			return fmt.Errorf("set-up %d: first query: %w", i, err)
		}
		setups = append(setups, since(t0))
		b.rep.check(bytes.Equal(resp.Skyline, refs[0]), "set-up %d: answer for %s differs from the reference", i, shapes[0])
	}
	b.rep.set("setup_s", median(setups), "s")
	b.rep.note("setup_s is the median of %d set-ups: %v", len(setups), setups)
	b.rep.env.durable(dataDir, sc.checkpoint)

	// Every shape gets a cache entry the writes then maintain, and the
	// first shape a standing watch.
	for i, sh := range shapes {
		resp, _, err := c.query(ctx, srv.url, sh, false)
		b.rep.check(err == nil && bytes.Equal(resp.Skyline, refs[i]), "priming %s: %v", sh, errOrWrong(err))
	}
	w, err := openWatch(ctx, srv.url, shapes[0])
	if err != nil {
		return err
	}
	defer w.close()

	lv := &live{b: b, c: c, url: srv.url, rels: rels, shapes: shapes,
		inserted: make([]atomic.Int64, len(rels)), deleted: make([]atomic.Int64, len(rels))}
	if b.tr.on {
		traceResidents(b, shapes)
		if lv.mirror, err = newMirror(ctx, b, rels, shapes); err != nil {
			return err
		}
		defer lv.mirror.close()
	}

	before, err := c.stats(ctx, srv.url)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.opts.seed))
	stepDur := time.Duration(b.opts.seconds / float64(len(sc.rates)) * float64(time.Second))
	var reads, writes, lags []float64
	good, sustained, maxBacklog := 0, 0.0, 0
	for _, rate := range sc.rates {
		ops := lv.plan(rng, int(rate*stepDur.Seconds()))
		// Reads and writes have a sender each, as independent users
		// would: a read never waits in the generator behind a write,
		// only in the server beside it.
		lane := func(i int) int { return min(int(ops[i].kind), 1) }
		st := openLoop(ctx, rate, stepDur, liveSenders, lane, func(ctx context.Context, i int) error { return lv.do(ctx, ops[i]) })
		var stepReads, stepWrites []float64
		for i, o := range st.ops {
			b.rep.op(o.err)
			if o.err != nil {
				continue
			}
			l := ms(o.latency())
			if ops[i].kind == opRead {
				stepReads = append(stepReads, l)
			} else {
				stepWrites = append(stepWrites, l)
			}
			lags = append(lags, ms(o.lag()))
			if o.latency() <= sc.limit {
				good++
			}
		}
		rt, wt := tailOf(stepReads), tailOf(stepWrites)
		v := judge(st, liveSenders, sc.limit, rt.value, wt.value)
		if v.sustained {
			sustained = max(sustained, rate)
		}
		maxBacklog = max(maxBacklog, st.backlog)
		b.rep.note("step %.0f ops/s: reads p50 %.3fms p%.2f %.3fms (n=%d), writes p50 %.3fms p%.2f %.3fms (n=%d), lag p99 %.3fms, backlog %d, behind=%v sustained=%v",
			rate, percentile(stepReads, 50), rt.pct, rt.value, rt.n, percentile(stepWrites, 50), wt.pct, wt.value, wt.n,
			ms(v.lagP99), st.backlog, v.behind, v.sustained)
		if v.behind {
			b.rep.note("loadgen fell behind schedule at %.0f ops/s: this step's figures are not trusted", rate)
		}
		reads = append(reads, stepReads...)
		writes = append(writes, stepWrites...)
		lv.checkMaintained(ctx)
		if lv.mirror != nil {
			lv.mirror.checkpoint()
		}
	}
	measured := stepDur.Seconds() * float64(len(sc.rates))
	after, err := c.stats(ctx, srv.url)
	if err != nil {
		return err
	}
	b.rep.setLatency("query", reads)
	b.rep.setLatency("write", writes)
	b.rep.set("goodput_ops", float64(good)/measured, "ops/s")
	b.rep.set("sustained_ops", sustained, "ops/s")
	b.rep.set("loadgen.lag_ms", percentile(lags, 99), "ms")
	b.rep.set("loadgen.backlog", float64(maxBacklog), "count")
	b.rep.note("offered rates %v ops/s for %.1fs each, %.0f%% writes of %d-row batches, latency limit %v on the tail, %d senders, 1 watch",
		sc.rates, stepDur.Seconds(), 100*sc.writeShare, sc.batch, sc.limit, liveSenders)
	if b.tr.on {
		b.rep.set("trace.query_p50_ms", median(reads), "ms")
		setStatsDeltas(b.rep, before, after)
		b.rep.set("store.checkpoints", float64(after.Checkpoints-before.Checkpoints), "count")
	}
	b.rep.note("during the load: %d checkpoints completed; %d queries, %d answered by a full engine run (a read that arrives while a write absorbs into its cache entry is recomputed; the between-step checks add one per shape per step)",
		after.Checkpoints-before.Checkpoints, after.Queries-before.Queries, after.Computed-before.Computed)

	lv.checkWatch(ctx, w)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	b.rep.set("peak_rss_mb", rss, "MB")
	return lv.crashRestart(ctx, srv, dataDir)
}

// plan draws n operations: reads rotate over the shapes; writes
// alternate an insert batch and a FIFO delete batch of the same size on
// each relation in turn, so relation sizes stay stationary.
func (lv *live) plan(rng *rand.Rand, n int) []liveOp {
	sc := lv.b.opts.scale
	ops := make([]liveOp, n)
	reads := 0
	for i := range ops {
		if rng.Float64() >= sc.writeShare {
			ops[i] = liveOp{kind: opRead, shape: reads % len(lv.shapes)}
			reads++
			continue
		}
		rel := (lv.writeSeq / 2) % len(lv.rels)
		if lv.writeSeq%2 == 1 {
			ops[i] = liveOp{kind: opDelete, rel: rel}
		} else {
			ts := make([]dataset.Tuple, sc.batch)
			for j := range ts {
				attrs := make([]float64, localAttrs+aggAttrs)
				for k := range attrs {
					attrs[k] = rng.Float64()
				}
				ts[j] = dataset.Tuple{Key: fmt.Sprintf("g%04d", rng.Intn(sc.liveGroups)), Attrs: attrs}
			}
			ops[i] = liveOp{kind: opInsert, rel: rel, tuples: ts}
		}
		lv.writeSeq++
	}
	return ops
}

// do runs one operation and checks its acknowledgement.
func (lv *live) do(ctx context.Context, op liveOp) error {
	switch op.kind {
	case opRead:
		sh := lv.shapes[op.shape]
		start := time.Now()
		resp, n, err := lv.c.query(ctx, lv.url, sh, false)
		if err != nil {
			return err
		}
		if lv.b.tr.on {
			end := time.Now()
			elapsed := time.Duration(resp.ElapsedUS) * time.Microsecond
			lv.b.tr.sample("httpapi.overhead_ms", ms(end.Sub(start)-elapsed))
			lv.b.tr.sample("httpapi.resp_bytes", float64(n))
			lv.b.tr.sample("service.elapsed_ms", ms(elapsed))
			lv.b.tr.root("http.query", start, end).child("service.Query", "server", elapsed)
		}
		return nil
	case opInsert:
		name := lv.rels[op.rel].Name
		wire := httpapi.InsertJSON{Relation: name, Tuples: make([]httpapi.TupleJSON, len(op.tuples))}
		for i, t := range op.tuples {
			wire.Tuples[i] = httpapi.FromTuple(t)
		}
		var resp httpapi.InsertResponseJSON
		start := time.Now()
		if _, err := lv.c.post(ctx, lv.url+"/v1/insert", wire, &resp); err != nil {
			return err
		}
		end := time.Now()
		if resp.Count != len(op.tuples) {
			return fmt.Errorf("insert into %s acknowledged %d of %d rows", name, resp.Count, len(op.tuples))
		}
		lv.inserted[op.rel].Add(int64(resp.Count))
		if lv.b.tr.on {
			lv.b.tr.sample("service.maintained_per_batch", float64(resp.Maintained))
			lv.b.tr.sample("core.churn_per_batch", float64(resp.Displaced+resp.Admitted))
			return lv.mirror.replay("http.insert", start, end, store.Record{Type: store.RecInsert, Relation: name, Tuples: op.tuples})
		}
		return nil
	default:
		name := lv.rels[op.rel].Name
		ids := make([]int, lv.b.opts.scale.batch)
		for i := range ids {
			ids[i] = i // the oldest rows: deletes are FIFO
		}
		var resp httpapi.DeleteResponseJSON
		start := time.Now()
		if _, err := lv.c.post(ctx, lv.url+"/v1/delete", httpapi.DeleteJSON{Relation: name, IDs: ids}, &resp); err != nil {
			return err
		}
		end := time.Now()
		if resp.Count != len(ids) {
			return fmt.Errorf("delete from %s acknowledged %d of %d rows", name, resp.Count, len(ids))
		}
		lv.deleted[op.rel].Add(int64(resp.Count))
		if lv.b.tr.on {
			lv.b.tr.sample("service.maintained_per_batch", float64(resp.Maintained))
			lv.b.tr.sample("core.churn_per_batch", float64(resp.Evicted+resp.Resurrected))
			return lv.mirror.replay("http.delete", start, end, store.Record{Type: store.RecDelete, Relation: name, IDs: ids})
		}
		return nil
	}
}

// checkMaintained compares every shape's maintained answer with a
// no_cache recompute. It runs between rate steps, with no write in
// flight, so both answers are at the same versions.
func (lv *live) checkMaintained(ctx context.Context) {
	for _, sh := range lv.shapes {
		kept, _, err := lv.c.query(ctx, lv.url, sh, false)
		if err != nil {
			lv.b.rep.op(fmt.Errorf("maintained answer for %s: %w", sh, err))
			continue
		}
		fresh, _, err := lv.c.query(ctx, lv.url, sh, true)
		if err != nil {
			lv.b.rep.op(fmt.Errorf("recompute for %s: %w", sh, err))
			continue
		}
		lv.b.rep.check(kept.Versions == fresh.Versions && bytes.Equal(kept.Skyline, fresh.Skyline),
			"maintained answer for %s (%s, versions %v) differs from a no_cache recompute (versions %v)", sh, kept.Source, kept.Versions, fresh.Versions)
	}
}

// checkWatch replays the watch's deltas and compares the result with
// the final answer.
func (lv *live) checkWatch(ctx context.Context, w *watcher) {
	final, _, err := lv.c.query(ctx, lv.url, lv.shapes[0], false)
	if err != nil {
		lv.b.rep.op(fmt.Errorf("final answer for the watch check: %w", err))
		return
	}
	got, events, err := w.answerAt(final.Versions, 10*time.Second)
	if err != nil {
		lv.b.rep.op(err)
		return
	}
	lv.b.rep.check(bytes.Equal(got, final.Skyline), "replaying %d watch events does not reproduce the final answer for %s", events, lv.shapes[0])
	lv.b.rep.note("watch on %s delivered %d events", lv.shapes[0], events)
}

// crashRestart kills the server with SIGKILL, restarts it from the same
// data directory, and checks that row counts equal the acknowledged
// totals and answers equal the pre-crash ones.
func (lv *live) crashRestart(ctx context.Context, srv *server, dataDir string) error {
	b := lv.b
	want := map[string]int{}
	userBytes := 0
	for i, r := range lv.rels {
		n := r.Len() + int(lv.inserted[i].Load()-lv.deleted[i].Load())
		want[r.Name] = n
		userBytes += n * (8*(localAttrs+aggAttrs) + len("g0000"))
	}
	pre := make([][]byte, len(lv.shapes))
	for i, sh := range lv.shapes {
		resp, _, err := lv.c.query(ctx, lv.url, sh, false)
		if err != nil {
			return fmt.Errorf("pre-crash answer for %s: %w", sh, err)
		}
		pre[i] = resp.Skyline
	}
	disk, err := dirSize(dataDir)
	if err != nil {
		return err
	}
	b.rep.set("disk_bytes_per_user_byte", float64(disk)/float64(userBytes), "ratio")
	b.rep.note("data directory holds %d bytes for %d bytes of live tuple data (8 bytes per attribute plus the key)", disk, userBytes)

	srv.kill()
	t0 := time.Now()
	again, err := b.start(ctx, srv.name, srv.args...)
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	lv.url = again.url
	got, err := lv.c.relationSizes(ctx, again.url)
	if err != nil {
		return err
	}
	for name, n := range want {
		b.rep.check(got[name] == n, "after kill -9 and restart %s holds %d rows, %d acknowledged", name, got[name], n)
	}
	for i, sh := range lv.shapes {
		resp, _, err := lv.c.query(ctx, again.url, sh, false)
		b.rep.check(err == nil && bytes.Equal(resp.Skyline, pre[i]), "after restart, answer for %s: %v", sh, errOrWrong(err))
	}
	b.rep.set("warm_setup_s", since(t0), "s")
	again.stop()
	if b.tr.on {
		t0 := time.Now()
		svc, err := service.Open(service.Config{SweepInterval: -1, CheckpointInterval: -1}, dataDir)
		if err != nil {
			return fmt.Errorf("service.Open on the run's data directory: %w", err)
		}
		b.rep.set("store.recovery_ms", ms(time.Since(t0)), "ms")
		if err := svc.Close(); err != nil {
			return err
		}
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// watcher holds one /v1/watch subscription and replays its deltas.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	answer   map[[2]int]httpapi.PairJSON
	versions [2]uint64
	events   int
	err      error
}

func openWatch(ctx context.Context, base string, sh shape) (*watcher, error) {
	body, err := json.Marshal(sh.wire(false))
	if err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(wctx, http.MethodPost, base+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch %s: %s", sh, resp.Status)
	}
	w := &watcher{cancel: cancel, done: make(chan struct{}), answer: map[[2]int]httpapi.PairJSON{}}
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
		for sc.Scan() {
			var ev httpapi.WatchEventJSON
			err := json.Unmarshal(sc.Bytes(), &ev)
			w.mu.Lock()
			if err != nil {
				w.err = err
				w.mu.Unlock()
				return
			}
			for _, p := range ev.Removed {
				delete(w.answer, [2]int{p.Left, p.Right})
			}
			for _, p := range ev.Added {
				w.answer[[2]int{p.Left, p.Right}] = p
			}
			w.versions = ev.Versions
			w.events++
			w.mu.Unlock()
		}
		if err := sc.Err(); err != nil && wctx.Err() == nil {
			w.mu.Lock()
			w.err = err
			w.mu.Unlock()
		}
	}()
	return w, nil
}

// answerAt waits until the stream has reached versions and returns the
// replayed answer in wire encoding, with the number of events applied.
func (w *watcher) answerAt(versions [2]uint64, limit time.Duration) ([]byte, int, error) {
	deadline := time.Now().Add(limit)
	for {
		w.mu.Lock()
		if w.err != nil {
			err := w.err
			w.mu.Unlock()
			return nil, 0, fmt.Errorf("watch stream: %w", err)
		}
		if w.versions == versions {
			pairs := make([]httpapi.PairJSON, 0, len(w.answer))
			for _, p := range w.answer {
				pairs = append(pairs, p)
			}
			events := w.events
			w.mu.Unlock()
			sort.Slice(pairs, func(i, j int) bool {
				if pairs[i].Left != pairs[j].Left {
					return pairs[i].Left < pairs[j].Left
				}
				return pairs[i].Right < pairs[j].Right
			})
			out, err := json.Marshal(pairs)
			return out, events, err
		}
		w.mu.Unlock()
		if time.Now().After(deadline) {
			return nil, 0, errors.New("watch stream did not reach the final versions in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (w *watcher) close() {
	w.cancel()
	<-w.done
}

// mirror replays live-mixed writes in this process for the traced run:
// an in-memory service holding the same relations, cache entries and
// watch as the server (for service.InsertBatch and DeleteBatch), and a
// store of its own (for store.Append plus Sync of the same records).
type mirror struct {
	svc     *service.Service
	st      *store.Store
	watch   *service.Watch
	drained chan struct{}
	names   []string
	b       *bench
}

func newMirror(ctx context.Context, b *bench, rels []*dataset.Relation, shapes []shape) (*mirror, error) {
	st, err := store.Open(filepath.Join(b.dir, "replay-store"))
	if err != nil {
		return nil, err
	}
	m := &mirror{svc: service.New(service.Config{SweepInterval: -1}), st: st, drained: make(chan struct{}), b: b}
	for _, r := range rels {
		if _, err := m.svc.Register(r.Name, r.Clone()); err != nil {
			m.close()
			return nil, err
		}
		m.names = append(m.names, r.Name)
	}
	for _, sh := range shapes {
		if _, err := m.svc.Query(ctx, sh.request(false)); err != nil {
			m.close()
			return nil, err
		}
	}
	if m.watch, err = m.svc.Watch(ctx, shapes[0].request(false)); err != nil {
		m.close()
		return nil, err
	}
	go func() {
		defer close(m.drained)
		for range m.watch.Events() {
		}
	}()
	return m, nil
}

// replay applies one acknowledged write to the mirror and records the
// write's spans: the client-seen call, and under it the in-memory
// service batch and the WAL append plus fsync the server made.
func (m *mirror) replay(name string, start, end time.Time, rec store.Record) error {
	t0 := time.Now()
	var err error
	if rec.Type == store.RecInsert {
		_, err = m.svc.InsertBatch(rec.Relation, rec.Tuples)
	} else {
		_, err = m.svc.DeleteBatch(rec.Relation, rec.IDs)
	}
	b := m.b
	svcDur := time.Since(t0)
	if err != nil {
		return fmt.Errorf("replaying %s on the mirror: %w", name, err)
	}
	t1 := time.Now()
	seq, err := m.st.Append(rec)
	if err == nil {
		err = m.st.Sync(seq)
	}
	syncDur := time.Since(t1)
	if err != nil {
		return fmt.Errorf("replaying store.Append+Sync: %w", err)
	}
	root := b.tr.root(name, start, end)
	if rec.Type == store.RecInsert {
		root.child("service.InsertBatch", "replay", svcDur)
		b.tr.sample("service.insert_ms", ms(svcDur))
	} else {
		root.child("service.DeleteBatch", "replay", svcDur)
	}
	root.child("store.Append+Sync", "replay", syncDur)
	b.tr.sample("store.sync_ms", ms(syncDur))
	b.tr.sample("store.wal_bytes_per_batch", float64(len(store.FrameRecord(store.EncodeRecord(rec)))))
	return nil
}

// checkpoint folds the mirror's relations into a store checkpoint, as
// the server's checkpointer does, and times it. Writes are quiescent.
func (m *mirror) checkpoint() {
	var rels []store.CheckpointRelation
	for _, n := range m.names {
		r, v, err := m.svc.Relation(n)
		if err != nil {
			m.b.rep.op(err)
			return
		}
		rels = append(rels, store.CheckpointRelation{Name: n, Version: v, Cols: r.SnapshotColumns()})
	}
	t0 := time.Now()
	if err := m.st.Checkpoint(rels, nil); err != nil {
		m.b.rep.op(fmt.Errorf("store.Checkpoint: %w", err))
		return
	}
	m.b.tr.sample("store.checkpoint_ms", ms(time.Since(t0)))
}

func (m *mirror) close() {
	if m.watch != nil {
		m.watch.Close()
		<-m.drained
	}
	m.svc.Close()
	m.st.Close()
}
