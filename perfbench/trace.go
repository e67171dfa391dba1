package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Spans. A traced request has one root span measured by the client
// around its HTTP call. Its descendants are durations from one of two
// places, named in Source: "server" for times the server reported in
// its response (elapsed_us, the engine's phase stats), "replay" for
// times this process measured calling the same layer function on an
// identical copy of the inputs right after the HTTP call. Descendants
// are laid out back to back from their parent's start, so their
// positions are nominal and only durations carry meaning. A layer's
// self time is its span's duration minus the part its children cover.

// span is one traced interval.
type span struct {
	Req     int64  `json:"req"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the request's root
	Name    string `json:"name"`
	Source  string `json:"source"` // client, server or replay
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// unaccountedTolerance is how far the children of a span may overrun it,
// as a share of the client-seen latency, before the trace's layer
// self times are reported as not adding up to that latency.
const unaccountedTolerance = 0.10

// tracer keeps spans and per-layer samples in memory until the run ends.
// A disabled tracer ignores everything. Safe for concurrent use.
type tracer struct {
	on      bool
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	reqs    int64
	samples map[string][]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), samples: map[string][]float64{}}
}

// spanRef is a handle for adding children to a recorded span.
type spanRef struct {
	t      *tracer
	req    int64
	id     int
	cursor int64
}

// root records a client-measured root span and returns its handle, or
// nil when tracing is off.
func (t *tracer) root(name string, start, end time.Time) *spanRef {
	if !t.on {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	s := span{Req: t.reqs, ID: len(t.spans), Parent: -1, Name: name, Source: "client",
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0))}
	t.spans = append(t.spans, s)
	return &spanRef{t: t, req: s.Req, id: s.ID, cursor: s.StartNS}
}

// child records a span of duration d under p, after p's previous child.
func (p *spanRef) child(name, source string, d time.Duration) *spanRef {
	if p == nil {
		return nil
	}
	t := p.t
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Req: p.req, ID: len(t.spans), Parent: p.id, Name: name, Source: source,
		StartNS: p.cursor, EndNS: p.cursor + int64(d)}
	p.cursor = s.EndNS
	t.spans = append(t.spans, s)
	return &spanRef{t: t, req: p.req, id: s.ID, cursor: s.StartNS}
}

// sample adds one observation of a per-layer metric.
func (t *tracer) sample(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[name] = append(t.samples[name], v)
}

// meanLayers are per-layer metrics reported as a mean over their samples
// (small per-batch counts, where a median hides the distribution);
// every other sampled metric reports its median.
var meanLayers = map[string]bool{
	"service.maintained_per_batch": true,
	"core.churn_per_batch":         true,
	"store.wal_bytes_per_batch":    true,
}

// finish turns samples into per-layer metrics, computes self times and
// the accounting check, reports layers this workload does not exercise
// as 0, and writes the spans to path.
func (t *tracer) finish(path string, rep *report) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range perLayer {
		xs, ok := t.samples[s.name]
		switch {
		case ok && meanLayers[s.name]:
			rep.set(s.name, mean(xs), s.unit)
		case ok:
			rep.set(s.name, median(xs), s.unit)
		}
	}
	t.selfTimes(rep)
	var idle []string
	for _, s := range perLayer {
		if _, ok := rep.metrics[s.name]; !ok {
			rep.set(s.name, 0, s.unit)
			idle = append(idle, s.name)
		}
	}
	if len(idle) > 0 {
		rep.note("not exercised by this workload (reported as 0): %s", strings.Join(idle, " "))
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes reports, per root kind, each layer's mean self time per
// request and its share of the client-seen latency, names the largest,
// and sets trace.unaccounted_frac: the time children overran their
// parents, as a share of all client-seen time. Zero means the layer
// self times add up exactly to the client-seen latency.
func (t *tracer) selfTimes(rep *report) {
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	type acc struct {
		n               int
		rootNS, overrun int64
		self            map[string]int64
	}
	kinds := map[string]*acc{}
	var overrun, rootTotal int64
	for _, root := range t.spans {
		if root.Parent >= 0 {
			continue
		}
		a := kinds[root.Name]
		if a == nil {
			a = &acc{self: map[string]int64{}}
			kinds[root.Name] = a
		}
		a.n++
		a.rootNS += root.EndNS - root.StartNS
		rootTotal += root.EndNS - root.StartNS
		var walk func(id int)
		walk = func(id int) {
			s := t.spans[id]
			dur := s.EndNS - s.StartNS
			var covered int64
			for _, c := range children[id] {
				cs := t.spans[c]
				covered += cs.EndNS - cs.StartNS
				walk(c)
			}
			if covered > dur {
				a.overrun += covered - dur
				overrun += covered - dur
				covered = dur
			}
			a.self[s.Name] += dur - covered
		}
		walk(root.ID)
	}
	frac := 0.0
	if rootTotal > 0 {
		frac = float64(overrun) / float64(rootTotal)
	}
	rep.set("trace.unaccounted_frac", frac, "ratio")
	if frac > unaccountedTolerance {
		rep.note("trace: layer self times overrun the client-seen latency by %.1f%% (tolerance %.0f%%)", 100*frac, 100*unaccountedTolerance)
	} else {
		rep.note("trace: layer self times add up to the client-seen latency within %.0f%% (overrun %.2f%%)", 100*unaccountedTolerance, 100*frac)
	}
	names := make([]string, 0, len(kinds))
	for n := range kinds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, kind := range names {
		a := kinds[kind]
		layers := make([]string, 0, len(a.self))
		for l := range a.self {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return a.self[layers[i]] > a.self[layers[j]] })
		var parts []string
		for _, l := range layers {
			parts = append(parts, fmt.Sprintf("%s=%.3fms(%.1f%%)", l,
				float64(a.self[l])/float64(a.n)/1e6, 100*float64(a.self[l])/float64(a.rootNS)))
		}
		rep.note("selftime %s over %d requests, mean per request (children overran parents by %.1f%%): %s",
			kind, a.n, 100*float64(a.overrun)/float64(a.rootNS), strings.Join(parts, " "))
		rep.note("selftime %s largest: %s", kind, layers[0])
	}
}
