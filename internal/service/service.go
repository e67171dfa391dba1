// Package service implements ksjqd, the long-lived KSJQ query service: a
// relation registry whose datasets are loaded once and kept resident, an
// answer cache keyed by (relation versions, normalized query) whose
// entries are promoted to live incremental maintenance when inserts
// arrive, and an admission scheduler that runs queries through the
// engine's unified Exec path with per-request deadlines and a bounded
// worker pool.
//
// The point of the layer is amortization — the substrate PR 2 built makes
// every query cancellable and uniform, but each invocation still paid to
// rebuild join indexes and recompute answers from scratch. Here the
// expensive structures become resident:
//
//   - relations are registered once and versioned; every mutation goes
//     through the service, so a (name, version) pair pins exact contents;
//   - the engine's per-(pair, condition) structures (core.Resident: the
//     full-R2 join index, probe orders, value orders) are built once
//     and shared by every admitted query over that pair;
//   - answers are cached under the normalized query (versions, condition,
//     aggregator, k — algorithm is deliberately not part of the key, every
//     strategy computes the same skyline);
//   - an insert does not blow the cache away: entries at the current
//     version are promoted, for free, to core.Maintainer-backed live
//     entries (core.NewMaintainerFrom) and the new tuple is absorbed
//     incrementally, so dashboard-style repeated queries keep hitting
//     warm answers across updates;
//   - the same maintainer machinery points outward through Watch
//     (watch.go): a query becomes a standing subscription whose
//     Added/Removed deltas are published on every mutation;
//   - deletes ride the same rails in the other direction: DeleteBatch is
//     a group commit that retracts resident indexes in place, evicts
//     skyline members whose pairs died, and re-verifies only the
//     resurrection candidates the deleted pairs could have suppressed
//     (core.RetractSet) — or recomputes when the batch is large enough
//     that the filter would not pay;
//   - sliding-window relations (RegisterWindow) age rows out through that
//     same delete path on a background sweeper, so expiry is just a
//     delete nobody had to issue.
//
// Concurrency model: queries hold the service's read lock while they
// execute (relations are read-only during evaluation). Ingest is a group
// commit in three phases: a short exclusive section appends the whole
// batch, bumps the version once, and pulls every affected cache entry,
// watch set, and resident out of reach; the expensive maintainer
// absorption then runs with no service lock held at all — concurrent
// queries proceed, recomputing at the new versions; a second short
// exclusive section publishes the updated entries and residents and fans
// one coalesced delta per batch out to watchers. Batches themselves are
// serialized by a dedicated ingest mutex (single writer), so version
// history stays linear. The answer cache has its own mutex for O(1) hit
// bookkeeping, and entries being mutated by an ingest are removed from
// the cache first, so a cache hit never observes a half-absorbed answer.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/planner"
	"repro/internal/store"
)

// Service errors (beyond the registry's and scheduler's).
var (
	// ErrClosed is returned by every method after Close.
	ErrClosed = errors.New("service: closed")
	// ErrBadRequest wraps request validation failures (unknown spellings,
	// schema violations, k out of range) so transports can map them to
	// client errors (HTTP 400) rather than server faults.
	ErrBadRequest = errors.New("service: bad request")
	// ErrDurability is returned by every mutation after a WAL write has
	// failed on a durable service: the in-memory state may be ahead of the
	// log, so accepting further mutations would let acknowledged data
	// silently miss recovery. Queries keep working; restart to recover.
	ErrDurability = errors.New("service: durability failure, mutations disabled (restart to recover)")
)

// DefaultRequestTimeout is the per-request deadline applied when neither
// the configuration nor the request sets one. ksjqd's wire-facing clamp
// shares this constant so the operator bound and the service default
// cannot drift.
const DefaultRequestTimeout = 30 * time.Second

// Config tunes one Service. The zero value picks sensible defaults.
type Config struct {
	// MaxConcurrent bounds queries executing at once. Default: GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds queries waiting for a worker slot; anything beyond
	// is rejected with ErrOverloaded. Default: 64.
	MaxQueue int
	// DefaultTimeout bounds each request (queue wait + execution) when the
	// request itself does not set one. Default: 30s. Negative: no deadline.
	DefaultTimeout time.Duration
	// CacheEntries bounds the answer cache (LRU). Default: 256.
	CacheEntries int
	// SweepInterval is how often the background sweeper ages expired rows
	// out of windowed relations (RegisterWindow). 0 means 1s; negative
	// disables the sweeper entirely — tests drive expiry deterministically
	// through Sweep instead.
	SweepInterval time.Duration
	// CheckpointInterval is how often a durable service (Open) folds the
	// WAL into fresh segment files. 0 means 60s; negative disables the
	// background checkpointer — tests drive it through Checkpoint instead.
	// Ignored by New (no data dir, nothing to checkpoint).
	CheckpointInterval time.Duration
	// CheckpointWALBytes triggers an early checkpoint once the live WAL
	// outgrows this size, bounding recovery's replay work independent of
	// the interval. 0 means 64 MiB; negative disables the size trigger.
	CheckpointWALBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = DefaultRequestTimeout
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = time.Minute
	}
	if c.CheckpointWALBytes == 0 {
		c.CheckpointWALBytes = 64 << 20
	}
	return c
}

// QueryRequest is one query against registered relations. Join, Agg and
// Algorithm use the CLI spellings ("eq"/"cross"/"lt"/"le"/"gt"/"ge",
// "sum"/"max"/"min", "auto"/"naive"/"grouping"/"dominator"); empty strings
// mean equality join, sum, and the sampling planner respectively.
type QueryRequest struct {
	R1, R2    string
	K         int
	Join      string
	Agg       string
	Algorithm string
	// Workers is the verification degree. 0 leaves it to the service: a
	// grouping run (planned, explicit, or the empty-join fallback)
	// executes at the request's fair share of the cores, fixed at
	// admission (GOMAXPROCS / busy slots, at least 1); other algorithms
	// run serially. 1 (or less) forces a serial run. Workers > 1
	// parallelizes candidate verification; the execution degree is
	// clamped to GOMAXPROCS (requests arrive over the wire; an oversized
	// degree must not spawn goroutines beyond the machine). A value > 1
	// implies the grouping algorithm: combined with "auto" the planner is
	// skipped and grouping runs; combined with another explicit algorithm
	// the request is rejected (same contradiction the CLI rejects).
	Workers int
	// Timeout bounds this request (queue wait + execution); 0 defers to
	// Config.DefaultTimeout, negative means no deadline.
	Timeout time.Duration
	// NoCache skips the answer-cache lookup (the result still refreshes
	// the cache) — for callers that need a recompute, not a warm answer.
	NoCache bool
}

// Source says where an answer came from.
type Source string

const (
	// SourceComputed: a full engine run (over the resident index).
	SourceComputed Source = "computed"
	// SourceCached: the answer cache, unchanged since it was computed.
	SourceCached Source = "cached"
	// SourceMaintained: a live entry kept current incrementally by a
	// core.Maintainer across inserts.
	SourceMaintained Source = "maintained"
)

// QueryResponse is one answer. Skyline is shared with the service's cache
// and must be treated as read-only.
type QueryResponse struct {
	Skyline []join.Pair
	Source  Source
	// Algorithm is the strategy that computed the answer — for cache and
	// maintained hits, the one that computed it originally.
	Algorithm string
	// Versions are the (R1, R2) registry versions the answer is valid at.
	Versions [2]uint64
	// Elapsed is the service-side wall time for this request.
	Elapsed time.Duration
	// Stats carries the engine's per-phase breakdown; nil unless the
	// answer was computed by this request.
	Stats *core.Stats
}

// DeleteResult reports what one delete batch (explicit or expiry-driven)
// did to the resident state.
type DeleteResult struct {
	// Count is the number of tuples removed.
	Count int
	// Version is the relation's version after the delete. A batch moves
	// the version once, not once per tuple.
	Version uint64
	// Maintained counts cache entries updated in place through their
	// maintainer; Invalidated counts entries dropped as stale.
	Maintained, Invalidated int
	// Evicted and Resurrected sum the skyline churn across maintained
	// entries: members removed because their pairs were deleted (or
	// renumber-evicted), and former non-members readmitted because every
	// pair that k-dominated them is gone (see core.Maintainer).
	Evicted, Resurrected int
}

// InsertResult reports what one ingest (a single tuple or a whole batch)
// did to the resident state.
type InsertResult struct {
	// ID is the first inserted tuple's assigned index within its
	// relation; a batch occupies IDs [ID, ID+Count).
	ID int
	// Count is the number of tuples appended.
	Count int
	// Version is the relation's version after the insert. A batch moves
	// the version once, not once per tuple.
	Version uint64
	// Maintained counts cache entries updated in place through their
	// maintainer; Invalidated counts entries dropped as stale.
	Maintained, Invalidated int
	// Displaced and Admitted sum the skyline churn across maintained
	// entries (see core.Maintainer).
	Displaced, Admitted int
}

// Stats is the service-level counter snapshot.
type Stats struct {
	Queries        uint64 `json:"queries"`
	CacheHits      uint64 `json:"cache_hits"`
	MaintainedHits uint64 `json:"maintained_hits"`
	Computed       uint64 `json:"computed"`
	Inserts        uint64 `json:"inserts"`
	Batches        uint64 `json:"batches"`
	Deletes        uint64 `json:"deletes"`
	DeleteBatches  uint64 `json:"delete_batches"`
	Expired        uint64 `json:"expired"`
	Rejected       uint64 `json:"rejected"`
	Evictions      uint64 `json:"evictions"`
	Verifies       uint64 `json:"verifies"`

	CacheEntries      int   `json:"cache_entries"`
	MaintainedEntries int   `json:"maintained_entries"`
	Residents         int   `json:"residents"`
	Watches           int   `json:"watches"`
	Busy              int   `json:"busy"`
	Queued            int64 `json:"queued"`

	// Durability counters (DESIGN.md §14). Durable is false for a purely
	// in-memory service, and the rest stay zero. WALRecords/WALBytes
	// measure the live WAL since the last checkpoint — together they bound
	// how much replay a crash now would cost. LastCheckpointMS is
	// milliseconds since the last completed checkpoint (-1: none yet), so
	// recovery lag is observable from /v1/stats alone.
	Durable          bool   `json:"durable"`
	WALRecords       uint64 `json:"wal_records"`
	WALBytes         int64  `json:"wal_bytes"`
	Segments         int    `json:"segments"`
	Checkpoints      uint64 `json:"checkpoints"`
	LastCheckpointMS int64  `json:"last_checkpoint_ms"`

	Relations []RelationInfo `json:"relations"`
}

// Service is the long-lived query service. Create with New, share freely
// across goroutines, Close when done.
type Service struct {
	cfg       Config
	sched     *scheduler
	cache     *answerCache
	residents *residentCache

	// ingestMu serializes ingest batches end to end (single writer) so
	// version history stays linear even though each batch releases mu for
	// its absorption phase. Lock order: ingestMu before mu.
	ingestMu sync.Mutex

	// mu guards the registry and — via read-locking for the whole of
	// query execution — the relations' contents. Ingest takes it
	// exclusively only for its two short commit sections; absorption runs
	// with mu released so readers are never blocked behind maintainer
	// work.
	mu      sync.RWMutex
	rels    map[string]*regRelation
	watches map[watchKey]*watchSet
	closed  atomic.Bool

	// now is the clock windowed relations age against. Production uses
	// time.Now; in-package tests substitute a fake to drive expiry
	// deterministically. Set once in New, before any other goroutine can
	// observe the service.
	now func() time.Time
	// sweepStop/sweepDone bracket the background sweeper's lifetime; nil
	// when Config.SweepInterval disabled it.
	sweepStop chan struct{}
	sweepDone chan struct{}

	// store is the durability subsystem (nil for a purely in-memory
	// service built with New). Every acknowledged mutation appends a WAL
	// record before the commit's exclusive section ends and fsyncs before
	// the caller is acknowledged; the checkpointer periodically folds the
	// WAL into columnar segment files (see Open and DESIGN.md §14).
	store *store.Store
	// replaying is true while Open replays recovered state through the
	// normal mutation paths; the logging hooks skip so recovery does not
	// re-log its own input. Set and cleared before any other goroutine can
	// observe the service.
	replaying bool
	// storeBroken latches after a WAL append or sync failure; every
	// subsequent mutation fails with ErrDurability (see durable.go).
	storeBroken atomic.Bool
	// ckptStop/ckptDone/ckptKick run the background checkpointer; nil
	// when the service is not durable or the interval disabled it.
	ckptStop chan struct{}
	ckptDone chan struct{}
	ckptKick chan struct{}

	queries, cacheHits, maintainedHits atomic.Uint64
	computed, inserts, batches         atomic.Uint64
	deletes, deleteBatches, expired    atomic.Uint64
	rejected, verifies                 atomic.Uint64
}

// New builds a Service with the given configuration. State lives only in
// memory and dies with the process; Open builds the durable variant.
func New(cfg Config) *Service {
	s := newService(cfg)
	s.startBackground()
	return s
}

// newService builds the service without starting background goroutines,
// so Open can replay recovered state before the sweeper (whose expiry
// deletes must be logged, not replayed) observes it.
func newService(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:       cfg,
		sched:     newScheduler(cfg.MaxConcurrent, cfg.MaxQueue),
		cache:     newAnswerCache(cfg.CacheEntries),
		residents: newResidentCache(),
		rels:      make(map[string]*regRelation),
		watches:   make(map[watchKey]*watchSet),
		now:       time.Now,
	}
}

// startBackground launches the sweeper and (durable services only) the
// checkpointer, honoring the configured intervals.
func (s *Service) startBackground() {
	if s.cfg.SweepInterval >= 0 {
		iv := s.cfg.SweepInterval
		if iv == 0 {
			iv = time.Second
		}
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweepLoop(iv)
	}
	if s.store != nil && s.cfg.CheckpointInterval >= 0 {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		s.ckptKick = make(chan struct{}, 1)
		go s.checkpointLoop(s.cfg.CheckpointInterval)
	}
}

// Register adds a relation to the registry at version 1. The service owns
// the relation afterwards: callers must not mutate it except through the
// service's insert and delete paths.
func (s *Service) Register(name string, r *dataset.Relation) (uint64, error) {
	return s.RegisterWindow(name, r, 0)
}

// RegisterWindow registers r as a sliding-window relation: rows older
// than window (counted from their arrival at the service; pre-registered
// rows arrive at registration time) are aged out by the background
// sweeper through the same delete path an explicit DeleteBatch takes, so
// maintained entries and watches see expiry as ordinary deletion. The
// newest row is always retained — registered relations stay non-empty.
// A zero window is exactly Register; a negative one is rejected.
func (s *Service) RegisterWindow(name string, r *dataset.Relation, window time.Duration) (uint64, error) {
	if window < 0 {
		return 0, fmt.Errorf("%w: negative window %v", ErrBadRequest, window)
	}
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if err := s.durableOK(); err != nil {
		return 0, err
	}
	if name == "" {
		return 0, fmt.Errorf("%w: empty relation name", ErrBadRequest)
	}
	if r == nil {
		return 0, fmt.Errorf("%w: nil relation", ErrBadRequest)
	}
	if err := r.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if _, ok := s.rels[name]; ok {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateRelation, name)
	}
	// The same relation under two names would break version coherence:
	// an insert through one name mutates the shared tuples but bumps only
	// that name's version, leaving the alias's cache entries "current"
	// over changed data. Self-joins don't need aliases — use one name on
	// both sides of the request.
	for other, rr := range s.rels {
		if rr.rel == r {
			return 0, fmt.Errorf("%w: relation already registered as %q", ErrDuplicateRelation, other)
		}
	}
	// Registration is durable before it is visible: the WAL record (full
	// columnar payload, so a relation registered after the last checkpoint
	// recovers from the log alone) is appended and fsync'd while the
	// exclusive lock is still held. A failed log leaves the registry
	// untouched.
	if err := s.logSynced(store.Record{Type: store.RecRegister, Relation: name, Rel: r, Window: window}); err != nil {
		return 0, err
	}
	rr := &regRelation{rel: r, version: 1, window: window}
	if window > 0 {
		now := s.now().UnixNano()
		rr.arrivals = make([]int64, r.Len())
		for i := range rr.arrivals {
			rr.arrivals[i] = now
		}
	}
	s.rels[name] = rr
	return 1, nil
}

// RegisterCSV loads a relation from CSV (see dataset.ReadCSV) and
// registers it under name.
func (s *Service) RegisterCSV(name string, rd io.Reader, opts dataset.ReadOptions) (uint64, error) {
	if opts.Name == "" {
		opts.Name = name
	}
	r, err := dataset.ReadCSV(rd, opts)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return s.Register(name, r)
}

// Relations lists the registry, sorted by name.
func (s *Service) Relations() []RelationInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return relationInfos(s.rels)
}

// Relation returns the registered relation and its current version. The
// relation is owned by the service: treat it as read-only, and do not
// read it concurrently with Insert (which appends in place) — callers
// that only need metadata should use RelationInfo, which snapshots under
// the service lock.
func (s *Service) Relation(name string) (*dataset.Relation, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rr, ok := s.rels[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	return rr.rel, rr.version, nil
}

// RelationInfo snapshots one relation's metadata (name, version, sizes)
// under the service lock, safe against concurrent inserts.
func (s *Service) RelationInfo(name string) (RelationInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rr, ok := s.rels[name]
	if !ok {
		return RelationInfo{}, fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	return RelationInfo{
		Name:     name,
		Version:  rr.version,
		Tuples:   rr.rel.Len(),
		Local:    rr.rel.Local,
		Agg:      rr.rel.Agg,
		WindowMS: rr.window.Milliseconds(),
	}, nil
}

// parsed is a QueryRequest after spelling resolution.
type parsed struct {
	cond join.Condition
	agg  join.Aggregator
	alg  core.Algorithm
	auto bool
}

func parseRequest(req QueryRequest) (parsed, error) {
	var p parsed
	var err error
	if p.cond, err = join.ParseCondition(req.Join); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if p.agg, err = join.ParseAggregator(req.Agg); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if p.alg, p.auto, err = core.ParseAlgorithm(req.Algorithm); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.Workers > 1 {
		if p.auto {
			// A parallel degree implies the one algorithm that can honor
			// it; skipping the planner is the only non-contradictory
			// reading.
			p.alg, p.auto = core.Grouping, false
		} else if p.alg != core.Grouping {
			return p, fmt.Errorf("%w: workers require the grouping algorithm (got %q)", ErrBadRequest, req.Algorithm)
		}
	}
	return p, nil
}

// resolveLocked builds the normalized query and cache key; the caller
// holds s.mu (read or write).
func (s *Service) resolveLocked(req QueryRequest, p parsed) (core.Query, cacheKey, error) {
	rr1, ok := s.rels[req.R1]
	if !ok {
		return core.Query{}, cacheKey{}, fmt.Errorf("%w: %q", ErrUnknownRelation, req.R1)
	}
	rr2, ok := s.rels[req.R2]
	if !ok {
		return core.Query{}, cacheKey{}, fmt.Errorf("%w: %q", ErrUnknownRelation, req.R2)
	}
	q := core.Query{
		R1:   rr1.rel,
		R2:   rr2.rel,
		Spec: join.Spec{Cond: p.cond, Agg: p.agg},
		K:    req.K,
	}
	key := cacheKey{
		r1: req.R1, r2: req.R2,
		v1: rr1.version, v2: rr2.version,
		cond: p.cond, agg: p.agg.Name, k: req.K,
	}
	return q, key, nil
}

// resolveAndValidate resolves the request and fail-fasts malformed
// queries under one read lock. Validation here is O(1) on purpose:
// registered relations were content-validated by Register and Append
// preserves the invariants, so per-request checks only need the schema
// geometry (k range, aggregate pairing, aggregator strictness) — a full
// q.Validate would rescan every tuple on every request, warm hits
// included. The computed path still runs the full validation inside
// core.Exec, under the same read lock.
func (s *Service) resolveAndValidate(req QueryRequest, p parsed) (core.Query, cacheKey, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	q, key, err := s.resolveLocked(req, p)
	if err != nil {
		return q, key, err
	}
	if err := checkRequest(q, p); err != nil {
		return q, key, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return q, key, nil
}

// checkRequest is the O(1) structural subset of core's query validation.
func checkRequest(q core.Query, p parsed) error {
	if err := join.CheckSchemas(q.R1, q.R2); err != nil {
		return err
	}
	if q.K < q.KMin() || q.K > q.Width() {
		return fmt.Errorf("%v: k=%d, admissible range (%d, %d]", core.ErrBadK, q.K, q.KMin()-1, q.Width())
	}
	// Only the naive algorithm accepts a non-strict aggregator, and the
	// planner never picks on strictness — reject auto here rather than
	// let a planner choice fail deep inside Exec as a server error.
	if q.R1.Agg > 0 && !p.agg.Strict && (p.auto || p.alg != core.Naive) {
		return fmt.Errorf("%v: aggregator %q requires algorithm \"naive\"", core.ErrNonStrictAgg, p.agg.Name)
	}
	return nil
}

// hitResponse assembles a cache/maintained-hit response and bumps the
// counters.
func (s *Service) hitResponse(sky []join.Pair, algo string, maintained bool, key cacheKey, start time.Time) *QueryResponse {
	src := SourceCached
	if maintained {
		src = SourceMaintained
		s.maintainedHits.Add(1)
	} else {
		s.cacheHits.Add(1)
	}
	return &QueryResponse{
		Skyline:   sky,
		Source:    src,
		Algorithm: algo,
		Versions:  [2]uint64{key.v1, key.v2},
		Elapsed:   time.Since(start),
	}
}

// Query answers one request: answer-cache hit, or an admitted engine run
// over the resident index. It is safe for arbitrary concurrent use.
func (s *Service) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	start := time.Now()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.queries.Add(1)
	p, err := parseRequest(req)
	if err != nil {
		return nil, err
	}
	// Bound the execution degree after parsing: the requested value
	// decides algorithm implication and conflicts, but an over-the-wire
	// degree must never spawn goroutines beyond the machine.
	if max := runtime.GOMAXPROCS(0); req.Workers > max {
		req.Workers = max
	}

	// Resolve and validate first — even a request the cache could serve
	// must be rejected if it is malformed, so accept/reject behavior
	// never depends on cache state. Then the fast path: a warm answer
	// needs no admission and no engine work.
	q, key, err := s.resolveAndValidate(req, p)
	if err != nil {
		return nil, err
	}
	if !req.NoCache {
		if sky, algo, maintained, ok := s.cache.lookup(key); ok {
			return s.hitResponse(sky, algo, maintained, key, start), nil
		}
	}

	// Admission: the deadline covers queue wait and execution together.
	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	release, err := s.sched.acquire(ctx)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.rejected.Add(1)
		}
		return nil, err
	}
	defer release()
	share := s.sched.share()

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	// Versions may have moved while the request was queued; resolve again
	// and re-check the cache — an identical query ahead of us in the pool
	// may already have warmed it.
	if q, key, err = s.resolveLocked(req, p); err != nil {
		return nil, err
	}
	if !req.NoCache {
		if sky, algo, maintained, ok := s.cache.lookup(key); ok {
			return s.hitResponse(sky, algo, maintained, key, start), nil
		}
	}

	// The naive algorithm materializes the full join instead of probing
	// and ignores resident structures; don't build them for it.
	var res *core.Resident
	if p.auto || p.alg != core.Naive {
		res, err = s.residents.get(residentKey{r1: key.r1, r2: key.r2, v1: key.v1, v2: key.v2, cond: key.cond}, q)
		if err != nil {
			return nil, err
		}
	}
	alg := p.alg
	if p.auto {
		// Plan on the snapshot the query is about to run on: the sample
		// and its membership probes reuse the resident index.
		plan, err := planner.ChooseResident(ctx, q, res, planner.Options{})
		switch {
		case errors.Is(err, planner.ErrEmptyJoin):
			// Deletes and window expiry can drain the join entirely; that
			// is a valid state whose answer is the empty skyline, not a
			// planning failure. Any algorithm computes it instantly.
			alg = core.Grouping
		case err != nil:
			return nil, err
		default:
			alg = plan.Algorithm
		}
	}
	// An unset degree gives a grouping run the admission-time fair share;
	// the plan above never depends on it, and answers and DominationTests
	// are identical at every degree.
	workers := req.Workers
	if workers == 0 && alg == core.Grouping {
		workers = share
	}
	// The service's query path is built on the same prepared-state surface
	// the ksjq.Prepared facade exposes: every run over resident relations
	// goes through the snapshot's own Exec.
	var out *core.Result
	if res != nil {
		out, err = res.Exec(ctx, q, core.ExecOptions{Algorithm: alg, Workers: workers})
	} else {
		out, err = core.Exec(ctx, q, core.ExecOptions{Algorithm: alg, Workers: workers})
	}
	if err != nil {
		return nil, err
	}
	s.computed.Add(1)
	algo := alg.Token()
	s.cache.store(key, q, out.Skyline, algo)
	return &QueryResponse{
		Skyline:   out.Skyline,
		Source:    SourceComputed,
		Algorithm: algo,
		Versions:  [2]uint64{key.v1, key.v2},
		Elapsed:   time.Since(start),
		Stats:     &out.Stats,
	}, nil
}

// Insert appends one tuple to a registered relation and brings the
// resident state with it. It is InsertBatch with a one-tuple batch —
// the per-tuple path IS the batch path, so the two can never diverge.
func (s *Service) Insert(name string, t dataset.Tuple) (*InsertResult, error) {
	return s.InsertBatch(name, []dataset.Tuple{t})
}

// ingestCombo is the per-(pair, condition) state one batch threads through
// its phases: a representative query (the resident structures are k- and
// aggregator-independent, so any query over the combo serves) and the
// shared Resident every maintained entry and watch set over the combo
// absorbs through.
type ingestCombo struct {
	q   core.Query
	res *core.Resident
}

// InsertBatch appends a batch of tuples to a registered relation as one
// group commit: one physical append, one version bump, one resident
// build (or in-place extension) per affected (pair, condition), one
// maintainer absorption per cache entry and watch set, one coalesced
// WatchEvent per subscriber. The final skyline is identical to inserting
// the tuples one at a time (insert-monotonicity makes batch absorption
// order-insensitive); only the intermediate versions are skipped.
//
// Locking: the batch runs in three phases. Phase 1 (exclusive) appends
// and unhooks every affected entry, watch set, and resident. Phase 2
// holds no service lock — the expensive verification work runs while
// concurrent queries execute freely, recomputing at the new versions.
// Phase 3 (exclusive) publishes the absorbed state and watch deltas.
// Batches are serialized against each other by ingestMu.
func (s *Service) InsertBatch(name string, ts []dataset.Tuple) (*InsertResult, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if err := s.durableOK(); err != nil {
		return nil, err
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}

	// Phase 1 — group commit under the exclusive lock: append the batch,
	// bump the version, and pull everything the batch must update out of
	// reach of concurrent readers.
	s.mu.Lock()
	rr, ok := s.rels[name]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	first, err := rr.rel.AppendBatch(ts)
	if err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if rr.window > 0 {
		now := s.now().UnixNano()
		for range ts {
			rr.arrivals = append(rr.arrivals, now)
		}
	}
	oldV := rr.version
	rr.version++
	newV := rr.version
	s.inserts.Add(uint64(len(ts)))
	s.batches.Add(1)
	ids := make([]int, len(ts))
	for i := range ids {
		ids[i] = first + i
	}
	out := &InsertResult{ID: first, Count: len(ts), Version: newV}
	plan, invalidated := s.takeAffectedLocked(name, oldV, newV)
	out.Invalidated += invalidated
	// WAL append happens inside the exclusive section so the log order is
	// the commit order; the fsync (the durability point the ack waits on)
	// runs after the lock drops, overlapping the absorption phase.
	walSeq, walErr := s.logAppend(store.Record{Type: store.RecInsert, Relation: name, Tuples: ts})
	s.mu.Unlock()
	if walErr == nil {
		walErr = s.logSync(walSeq)
	}

	// Phase 2 — absorb with no service lock held. Everything touched here
	// (taken entries, watch maintainers, reclaimed residents) is
	// unreachable by concurrent queries; readers run freely and recompute
	// at the new versions.
	for key, cs := range plan.combos {
		if cs.res != nil {
			if err := extendResident(cs.res, key.r1 == name, key.r2 == name, ids); err != nil {
				cs.res = nil // fall back to a fresh build
			}
		}
		if cs.res == nil {
			// Best effort: a failed build (unreachable for registry-owned
			// relations) just means this combo absorbs without sharing.
			cs.res, _ = core.NewResident(cs.q)
		}
	}
	entOut := make([]mutationOutcome, len(plan.live))
	for i, e := range plan.live {
		if res := plan.combos[plan.liveCombos[i]].res; res != nil {
			e.m.UseResident(res)
		}
		d, a, err := absorbBatchInto(e.m, e.key.r1 == name, e.key.r2 == name, ids)
		if err != nil {
			entOut[i].err = err
			continue
		}
		entOut[i].churnA, entOut[i].churnB = d, a
		// Refresh the served snapshot once per batch so cache hits stay
		// O(1) instead of paying the maintainer's copy-and-sort.
		e.skyline = e.m.Skyline()
	}
	wsOut := make([]mutationOutcome, len(plan.wsets))
	for i, ws := range plan.wsets {
		if res := plan.combos[plan.wsCombos[i]].res; res != nil {
			ws.m.UseResident(res)
		}
		if _, _, err := absorbBatchInto(ws.m, ws.key.r1 == name, ws.key.r2 == name, ids); err != nil {
			wsOut[i].err = err
			continue
		}
		wsOut[i].cur = ws.m.Skyline()
	}

	// Phase 3.
	s.mu.Lock()
	maintained, invalidated, displaced, admitted := s.publishLocked(plan, entOut, wsOut)
	s.mu.Unlock()
	out.Maintained += maintained
	out.Invalidated += invalidated
	out.Displaced += displaced
	out.Admitted += admitted
	if walErr != nil {
		// The batch is applied in memory (phases ran, so resident state
		// stays coherent) but its durability is unknown — refuse the ack.
		// logAppend/logSync already latched storeBroken.
		return nil, walErr
	}
	return out, nil
}

// mutationPlan is everything one mutation batch (insert or delete) pulled
// out of reach of concurrent readers during its first exclusive section:
// the still-current cache entries (promoted to live maintenance), the
// affected watch sets (flagged absorbing), and one shared resident slot
// per (pair, condition) combo.
type mutationPlan struct {
	live       []*entry
	liveCombos []residentKey
	wsets      []*watchSet
	wsCombos   []residentKey
	wsVersions [][2]uint64
	combos     map[residentKey]*ingestCombo
}

// mutationOutcome is what phase 2 produced for one taken entry or watch
// set. churnA/churnB are displaced/admitted for inserts and
// evicted/resurrected for deletes.
type mutationOutcome struct {
	churnA, churnB int
	cur            []join.Pair
	err            error
}

// takeAffectedLocked is the shared tail of phase 1: with the relation
// already mutated and its version bumped oldV→newV, pull every affected
// cache entry, watch set, and resident out of reach. Stale entries are
// dropped (counted in the returned invalidated); current ones are
// promoted to live maintenance and re-stamped at newV. The caller holds
// s.mu exclusively.
func (s *Service) takeAffectedLocked(name string, oldV, newV uint64) (*mutationPlan, int) {
	plan := &mutationPlan{combos: make(map[residentKey]*ingestCombo)}
	invalidated := 0

	// Cache entries still current at the old version are promoted to live
	// maintenance; stale ones drop. Taken entries are unreachable by
	// lookups until phase 3 restores them.
	for _, e := range s.cache.takeForRelation(name) {
		if !s.entryCurrent(e, name, oldV) {
			s.cache.drop(e)
			invalidated++
			continue
		}
		if e.key.r1 == name {
			e.key.v1 = newV
		}
		if e.key.r2 == name {
			e.key.v2 = newV
		}
		if e.m == nil {
			// Promotion is free: the cached skyline at the pre-batch
			// version seeds the maintainer, no recomputation. Queries the
			// maintainer cannot take (non-strict aggregators) fall back
			// to invalidation.
			m, err := core.NewMaintainerFrom(e.q, e.skyline)
			if err != nil {
				s.cache.drop(e)
				invalidated++
				continue
			}
			e.m = m
		}
		plan.live = append(plan.live, e)
		plan.liveCombos = append(plan.liveCombos, residentKey{r1: e.key.r1, r2: e.key.r2, v1: e.key.v1, v2: e.key.v2, cond: e.key.cond})
	}

	// Affected watch sets: flag them as absorbing so a last unsubscribe
	// during phase 2 cannot close the maintainer out from under us —
	// phase 3 finishes such a teardown itself.
	for wkey, ws := range s.watches {
		if wkey.r1 != name && wkey.r2 != name {
			continue
		}
		v1, v2 := s.rels[wkey.r1].version, s.rels[wkey.r2].version
		ws.absorbing = true
		plan.wsets = append(plan.wsets, ws)
		plan.wsCombos = append(plan.wsCombos, residentKey{r1: wkey.r1, r2: wkey.r2, v1: v1, v2: v2, cond: wkey.cond})
		plan.wsVersions = append(plan.wsVersions, [2]uint64{v1, v2})
	}

	// One shared Resident per affected combo. Reclaim the pre-batch
	// snapshot where the cache has one — phase 2 advances it in place
	// instead of rebuilding — then orphan whatever else references the
	// mutated relation.
	addCombo := func(key residentKey, q core.Query) {
		if _, ok := plan.combos[key]; !ok {
			plan.combos[key] = &ingestCombo{q: q}
		}
	}
	for i, e := range plan.live {
		addCombo(plan.liveCombos[i], e.q)
	}
	for i, ws := range plan.wsets {
		addCombo(plan.wsCombos[i], ws.q)
	}
	for key, cs := range plan.combos {
		oldKey := key
		if oldKey.r1 == name {
			oldKey.v1 = oldV
		}
		if oldKey.r2 == name {
			oldKey.v2 = oldV
		}
		cs.res = s.residents.take(oldKey)
	}
	s.residents.dropRelation(name)
	return plan, invalidated
}

// publishLocked is the shared phase 3: restore maintained entries, fan
// one coalesced delta per batch out to watchers, seed the resident cache
// for the next query. Returns the maintained/invalidated entry counts and
// the summed churn. The caller holds s.mu exclusively.
func (s *Service) publishLocked(plan *mutationPlan, entOut, wsOut []mutationOutcome) (maintained, invalidated, churnA, churnB int) {
	for i, e := range plan.live {
		if entOut[i].err != nil {
			s.cache.drop(e)
			invalidated++
			continue
		}
		churnA += entOut[i].churnA
		churnB += entOut[i].churnB
		s.cache.restore(e)
		maintained++
	}
	for i, ws := range plan.wsets {
		ws.absorbing = false
		if wsOut[i].err != nil {
			// Unreachable for registry-owned relations; fail loudly rather
			// than silently drift: every subscriber ends with the error.
			if s.watches[ws.key] == ws {
				delete(s.watches, ws.key)
			}
			ws.m.Close()
			for sub := range ws.subs {
				sub.terminate(wsOut[i].err)
			}
			continue
		}
		if len(ws.subs) == 0 {
			// The last subscriber left during phase 2; removeWatch deferred
			// the teardown to us.
			if s.watches[ws.key] == ws {
				delete(s.watches, ws.key)
			}
			ws.m.Close()
			continue
		}
		added, removed := diffPairs(ws.last, wsOut[i].cur)
		ws.last = wsOut[i].cur
		ws.versions = plan.wsVersions[i]
		for sub := range ws.subs {
			sub.enqueue(WatchEvent{Added: added, Removed: removed, Versions: ws.versions})
		}
	}
	for key, cs := range plan.combos {
		if cs.res != nil {
			s.residents.put(key, cs.res)
		}
	}
	return maintained, invalidated, churnA, churnB
}

// entryCurrent reports whether a cache entry is valid at the registry
// state immediately before the current insert: the inserted relation at
// its pre-bump version, every other relation at its live version. The
// caller holds s.mu.
func (s *Service) entryCurrent(e *entry, name string, oldV uint64) bool {
	versionOf := func(rel string) (uint64, bool) {
		if rel == name {
			return oldV, true
		}
		rr, ok := s.rels[rel]
		if !ok {
			return 0, false
		}
		return rr.version, true
	}
	v1, ok1 := versionOf(e.key.r1)
	v2, ok2 := versionOf(e.key.r2)
	return ok1 && ok2 && e.key.v1 == v1 && e.key.v2 == v2
}

// extendResident advances a reclaimed pre-batch Resident over the
// appended tail, on every side the mutated relation occupies (both, for a
// self-join).
func extendResident(res *core.Resident, left, right bool, ids []int) error {
	if left {
		if err := res.Absorb(core.Left, ids); err != nil {
			return err
		}
	}
	if right {
		if err := res.Absorb(core.Right, ids); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes one tuple from a registered relation and brings the
// resident state with it. It is DeleteBatch with a one-id batch — the
// per-tuple path IS the batch path, so the two can never diverge.
func (s *Service) Delete(name string, id int) (*DeleteResult, error) {
	return s.DeleteBatch(name, []int{id})
}

// DeleteBatch removes a batch of tuples (by current row id) from a
// registered relation as one group commit: one physical compaction, one
// version bump, one resident retract (or rebuild) per affected (pair,
// condition), one maintainer retraction per cache entry and watch set,
// one coalesced WatchEvent per subscriber carrying the genuine Removed
// deltas plus any resurrection Added deltas. Ids may arrive in any order
// but must be in range and free of duplicates; the batch is rejected
// whole before anything mutates. Deleting every row is rejected too —
// registered relations stay non-empty.
//
// Locking mirrors InsertBatch: phase 1 (exclusive) compacts the relation
// and unhooks every affected entry, watch set, and resident; phase 2
// holds no service lock — eviction and resurrection re-verification run
// while concurrent queries execute freely at the new versions; phase 3
// (exclusive) publishes the retracted state and watch deltas. Batches are
// serialized against inserts and other deletes by ingestMu.
func (s *Service) DeleteBatch(name string, ids []int) (*DeleteResult, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if err := s.durableOK(); err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.deleteBatchLocked(name, ids, false)
}

// deleteBatchLocked is DeleteBatch after admission: the caller holds
// ingestMu (the sweeper calls it directly, already inside its own ingest
// turn). expiry marks sweeper-driven deletes in the counters.
func (s *Service) deleteBatchLocked(name string, ids []int, expiry bool) (*DeleteResult, error) {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)

	// Phase 1 — group commit under the exclusive lock: validate the whole
	// batch, snapshot the doomed rows if the incremental path will want
	// them, compact the relation, bump the version, and pull everything
	// the batch must update out of reach of concurrent readers.
	s.mu.Lock()
	rr, ok := s.rels[name]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownRelation, name)
	}
	n := rr.rel.Len()
	for i, id := range sorted {
		if id < 0 || id >= n {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: delete index %d out of range [0,%d)", ErrBadRequest, id, n)
		}
		if i > 0 && sorted[i-1] == id {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: duplicate delete index %d", ErrBadRequest, id)
		}
	}
	if len(sorted) >= n {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: cannot delete all %d rows of %q (registered relations stay non-empty)", ErrBadRequest, n, name)
	}
	// The resurrection filter needs the deleted rows' pairs, and the rows
	// are unrecoverable once the columns compact — snapshot them now, but
	// only when the batch is small enough that maintainers will take the
	// incremental arm (past the hybrid threshold they recompute and the
	// snapshot would be dead weight).
	var del *dataset.Relation
	if !core.RetractPrefersRecompute(len(sorted), n-len(sorted)) {
		del = core.SnapshotRows(rr.rel, sorted)
	}
	if err := rr.rel.DeleteBatch(sorted); err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if rr.window > 0 {
		keep := rr.arrivals[:0]
		next := 0
		for i, at := range rr.arrivals {
			if next < len(sorted) && sorted[next] == i {
				next++
				continue
			}
			keep = append(keep, at)
		}
		rr.arrivals = keep
	}
	oldV := rr.version
	rr.version++
	newV := rr.version
	s.deletes.Add(uint64(len(sorted)))
	s.deleteBatches.Add(1)
	if expiry {
		s.expired.Add(uint64(len(sorted)))
	}
	out := &DeleteResult{Count: len(sorted), Version: newV}
	plan, invalidated := s.takeAffectedLocked(name, oldV, newV)
	out.Invalidated += invalidated
	// Log inside the exclusive section (commit order), fsync after it
	// (overlapping retraction). Expiry-driven deletes are logged like any
	// other: replay reproduces them verbatim instead of re-deriving them
	// from a clock that no longer matches the rows' arrival times.
	walSeq, walErr := s.logAppend(store.Record{Type: store.RecDelete, Relation: name, IDs: sorted, Expiry: expiry})
	s.mu.Unlock()
	if walErr == nil {
		walErr = s.logSync(walSeq)
	}

	// Phase 2 — retract with no service lock held. Reclaimed residents
	// compact in place (O(survivors)); a failed retract falls back to a
	// fresh build over the compacted relation.
	for key, cs := range plan.combos {
		if cs.res != nil {
			if err := retractResident(cs.res, key.r1 == name, key.r2 == name, sorted); err != nil {
				cs.res = nil
			}
		}
		if cs.res == nil {
			cs.res, _ = core.NewResident(cs.q)
		}
	}
	// One RetractSet per (sides, condition, aggregator, k) the live
	// entries and watch sets actually use. The combo key alone is not
	// enough: the group-prune thresholds bake in k and the pair points
	// bake in the aggregator.
	type retractSetKey struct {
		r1, r2 string
		cond   join.Condition
		agg    string
		k      int
	}
	rsets := make(map[retractSetKey]*core.RetractSet)
	rsFor := func(q core.Query, r1, r2 string) *core.RetractSet {
		if del == nil {
			return nil // past the hybrid threshold: maintainers recompute
		}
		rk := retractSetKey{r1: r1, r2: r2, cond: q.Spec.Cond, agg: q.Spec.Agg.Name, k: q.K}
		rs, ok := rsets[rk]
		if !ok {
			rs = core.NewRetractSet(q, r1 == name, r2 == name, del)
			rsets[rk] = rs
		}
		return rs
	}
	entOut := make([]mutationOutcome, len(plan.live))
	for i, e := range plan.live {
		if res := plan.combos[plan.liveCombos[i]].res; res != nil {
			e.m.UseResident(res)
		}
		ev, ad, err := e.m.RetractBatch(e.key.r1 == name, e.key.r2 == name, sorted, rsFor(e.q, e.key.r1, e.key.r2))
		if err != nil {
			entOut[i].err = err
			continue
		}
		entOut[i].churnA, entOut[i].churnB = ev, ad
		e.skyline = e.m.Skyline()
	}
	wsOut := make([]mutationOutcome, len(plan.wsets))
	for i, ws := range plan.wsets {
		if res := plan.combos[plan.wsCombos[i]].res; res != nil {
			ws.m.UseResident(res)
		}
		if _, _, err := ws.m.RetractBatch(ws.key.r1 == name, ws.key.r2 == name, sorted, rsFor(ws.q, ws.key.r1, ws.key.r2)); err != nil {
			wsOut[i].err = err
			continue
		}
		wsOut[i].cur = ws.m.Skyline()
	}

	// Phase 3.
	s.mu.Lock()
	maintained, invalidated, evicted, resurrected := s.publishLocked(plan, entOut, wsOut)
	s.mu.Unlock()
	out.Maintained += maintained
	out.Invalidated += invalidated
	out.Evicted += evicted
	out.Resurrected += resurrected
	if walErr != nil {
		return nil, walErr // applied in memory, durability unknown — no ack
	}
	return out, nil
}

// Sweep ages expired rows out of every windowed relation immediately,
// regardless of the sweep interval, and reports how many rows it removed.
// The background sweeper calls it on its ticker; tests that disabled the
// sweeper (negative Config.SweepInterval) call it to drive expiry
// deterministically.
func (s *Service) Sweep() int {
	if s.closed.Load() || s.durableOK() != nil {
		return 0
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.closed.Load() {
		return 0
	}

	// Arrival stamps are ascending, so the expired rows of each relation
	// are a prefix: one binary search per relation finds the cut. The
	// newest row is always retained (registered relations stay non-empty).
	now := s.now().UnixNano()
	type cut struct {
		name string
		n    int
	}
	var cuts []cut
	s.mu.RLock()
	for name, rr := range s.rels {
		if rr.window <= 0 {
			continue
		}
		deadline := now - int64(rr.window)
		j := sort.Search(len(rr.arrivals), func(i int) bool { return rr.arrivals[i] > deadline })
		if j >= rr.rel.Len() {
			j = rr.rel.Len() - 1
		}
		if j > 0 {
			cuts = append(cuts, cut{name: name, n: j})
		}
	}
	s.mu.RUnlock()

	total := 0
	for _, c := range cuts {
		ids := make([]int, c.n)
		for i := range ids {
			ids[i] = i
		}
		// The only failure mode left after the scan is the relation having
		// been deleted between locks — impossible while we hold ingestMu —
		// so errors here are structural and safe to skip past.
		if res, err := s.deleteBatchLocked(c.name, ids, true); err == nil {
			total += res.Count
		}
	}
	return total
}

// sweepLoop is the background sweeper goroutine: one Sweep per tick until
// Close.
func (s *Service) sweepLoop(interval time.Duration) {
	defer close(s.sweepDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

// retractResident compacts a reclaimed pre-batch Resident around the
// deleted rows, on every side the mutated relation occupies (both, for a
// self-join).
func retractResident(res *core.Resident, left, right bool, ids []int) error {
	if left {
		if err := res.Retract(core.Left, ids); err != nil {
			return err
		}
	}
	if right {
		if err := res.Retract(core.Right, ids); err != nil {
			return err
		}
	}
	return nil
}

// absorbBatchInto folds the appended tail into a maintainer on every side
// the mutated relation occupies (both, for a self-join).
func absorbBatchInto(m *core.Maintainer, left, right bool, ids []int) (displaced, admitted int, err error) {
	if left {
		d, a, err := m.AbsorbBatchLeft(ids)
		if err != nil {
			return 0, 0, err
		}
		displaced += d
		admitted += a
	}
	if right {
		d, a, err := m.AbsorbBatchRight(ids)
		if err != nil {
			return 0, 0, err
		}
		displaced += d
		admitted += a
	}
	return displaced, admitted, nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	entries, maintained, evictions := s.cache.stats()
	s.mu.RLock()
	rels := relationInfos(s.rels)
	watches := 0
	for _, ws := range s.watches {
		watches += len(ws.subs)
	}
	s.mu.RUnlock()
	out := Stats{
		Queries:           s.queries.Load(),
		CacheHits:         s.cacheHits.Load(),
		MaintainedHits:    s.maintainedHits.Load(),
		Computed:          s.computed.Load(),
		Inserts:           s.inserts.Load(),
		Batches:           s.batches.Load(),
		Deletes:           s.deletes.Load(),
		DeleteBatches:     s.deleteBatches.Load(),
		Expired:           s.expired.Load(),
		Rejected:          s.rejected.Load(),
		Evictions:         evictions,
		Verifies:          s.verifies.Load(),
		CacheEntries:      entries,
		MaintainedEntries: maintained,
		Residents:         s.residents.len(),
		Watches:           watches,
		Busy:              s.sched.busy(),
		Queued:            s.sched.queued(),
		LastCheckpointMS:  -1,
		Relations:         rels,
	}
	if s.store != nil {
		ss := s.store.Stats()
		out.Durable = true
		out.WALRecords = ss.WALRecords
		out.WALBytes = ss.WALBytes
		out.Segments = ss.Segments
		out.Checkpoints = ss.Checkpoints
		if !ss.LastCheckpoint.IsZero() {
			out.LastCheckpointMS = time.Since(ss.LastCheckpoint).Milliseconds()
		}
	}
	return out
}

// Close marks the service closed, waits for in-flight queries, and
// releases the cache (closing every live maintainer). Close is
// idempotent; methods called after it return ErrClosed.
func (s *Service) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Stop the background tickers first; a sweep or checkpoint already past
	// the closed check just rides out its ingest turn like any in-flight
	// batch.
	if s.sweepStop != nil {
		close(s.sweepStop)
	}
	if s.ckptStop != nil {
		close(s.ckptStop)
	}
	// Wait out any in-flight batch (a batch that started before the CAS is
	// entitled to publish its phase 3), then let the exclusive lock drain
	// every reader: no query is mid-execution when the cache and registry
	// go away.
	s.ingestMu.Lock()
	s.mu.Lock()
	// Final checkpoint while the registry is still intact, so a clean
	// shutdown restarts from segments alone with an empty WAL. Best effort:
	// on failure the WAL still holds everything, recovery just replays.
	var ckptErr error
	if s.store != nil && !s.storeBroken.Load() {
		ckptErr = s.checkpointLocked()
	}
	s.cache.closeAll()
	s.closeWatchesLocked() // every subscription ends with ErrClosed
	s.residents.clear()    // resident indexes pin O(n) per pair — release them
	s.rels = make(map[string]*regRelation)
	s.mu.Unlock()
	s.ingestMu.Unlock()
	// Only join the background goroutines after releasing the locks — they
	// may be blocked on ingestMu inside a final turn, which will see closed
	// and bail.
	if s.sweepDone != nil {
		<-s.sweepDone
	}
	if s.ckptDone != nil {
		<-s.ckptDone
	}
	if s.store != nil {
		if err := s.store.Close(); ckptErr == nil {
			ckptErr = err
		}
	}
	return ckptErr
}
