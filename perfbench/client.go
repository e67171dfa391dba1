package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
)

// client is the load generator's HTTP client. Its connection pool is
// capped at the number of sending goroutines that share it.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// queryResp is a /v1/query answer. Skyline keeps the server's bytes so
// answers compare byte for byte; Dist is present only from a gateway.
type queryResp struct {
	Skyline   json.RawMessage    `json:"skyline"`
	Count     int                `json:"count"`
	Source    string             `json:"source"`
	Algorithm string             `json:"algorithm"`
	Versions  [2]uint64          `json:"versions"`
	ElapsedUS int64              `json:"elapsed_us"`
	Stats     *httpapi.StatsJSON `json:"stats"`
	Dist      *struct {
		MessagesSent  int   `json:"messages_sent"`
		FloatsShipped int   `json:"floats_shipped"`
		VerifyUS      int64 `json:"verify_us"`
	} `json:"dist"`
}

// serviceStats is the part of /v1/stats the benchmark reads, from a node
// or (with Shards filled) a gateway.
type serviceStats struct {
	Queries        uint64 `json:"queries"`
	CacheHits      uint64 `json:"cache_hits"`
	MaintainedHits uint64 `json:"maintained_hits"`
	Computed       uint64 `json:"computed"`
	Rejected       uint64 `json:"rejected"`
	Checkpoints    uint64 `json:"checkpoints"`
	Shards         []struct {
		Stats *serviceStats `json:"stats"`
	} `json:"shards"`
}

// total folds a gateway's per-shard counters into one node-shaped view.
func (s serviceStats) total() serviceStats {
	out := s
	for _, sh := range s.Shards {
		if sh.Stats != nil {
			t := sh.Stats.total()
			out.Queries += t.Queries
			out.CacheHits += t.CacheHits
			out.MaintainedHits += t.MaintainedHits
			out.Computed += t.Computed
			out.Rejected += t.Rejected
			out.Checkpoints += t.Checkpoints
		}
	}
	out.Shards = nil
	return out
}

// do sends one request and decodes a 200 answer into out. It returns
// the response body size; any other status is an error carrying the
// server's message.
func (c *client) do(ctx context.Context, method, url, ctype string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(data), fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return len(data), fmt.Errorf("%s %s: decoding: %w", method, url, err)
		}
	}
	return len(data), nil
}

func (c *client) post(ctx context.Context, url string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return c.do(ctx, http.MethodPost, url, "application/json", body, out)
}

func (c *client) get(ctx context.Context, url string, out any) error {
	_, err := c.do(ctx, http.MethodGet, url, "", nil, out)
	return err
}

func (c *client) query(ctx context.Context, base string, sh shape, noCache bool) (*queryResp, int, error) {
	var out queryResp
	n, err := c.post(ctx, base+"/v1/query", sh.wire(noCache), &out)
	if err != nil {
		return nil, n, err
	}
	return &out, n, nil
}

func (c *client) stats(ctx context.Context, base string) (serviceStats, error) {
	var st serviceStats
	err := c.get(ctx, base+"/v1/stats", &st)
	return st.total(), err
}

// relationSizes lists the tuple count of every relation a node holds.
func (c *client) relationSizes(ctx context.Context, base string) (map[string]int, error) {
	var out struct {
		Relations []service.RelationInfo `json:"relations"`
	}
	if err := c.get(ctx, base+"/v1/relations", &out); err != nil {
		return nil, err
	}
	sizes := map[string]int{}
	for _, r := range out.Relations {
		sizes[r.Name] = r.Tuples
	}
	return sizes, nil
}
