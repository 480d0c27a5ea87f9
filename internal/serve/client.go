package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/runner"
)

// Client talks to a sweepd daemon. Metrics travel as JSON float64s, whose
// round trip is exact, so anything assembled from a Client response — the
// benchgate golden included — is byte-identical to an in-process run.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7077".
	BaseURL string
	// HTTP is the underlying client; nil selects a default with a timeout
	// sized for cold full-figure sweeps.
	HTTP *http.Client
}

// NewClient returns a Client for the daemon at base.
func NewClient(base string) *Client {
	return &Client{
		BaseURL: strings.TrimSuffix(base, "/"),
		HTTP:    &http.Client{Timeout: 10 * time.Minute},
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Sweep POSTs one batch and returns the per-point results.
func (c *Client) Sweep(req Request) (Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return Response{}, err
	}
	httpResp, err := c.httpClient().Post(c.BaseURL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return Response{}, fmt.Errorf("sweepd: %w", err)
	}
	defer func() { _ = httpResp.Body.Close() }()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4<<10))
		return Response{}, fmt.Errorf("sweepd: %s: %s", httpResp.Status, strings.TrimSpace(string(msg)))
	}
	var resp Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("sweepd: decoding response: %w", err)
	}
	return resp, nil
}

// RunPoints evaluates the named points and returns their metrics in order.
// Any per-point failure (unknown ID, computation error) fails the whole
// call — callers asking by name expect every answer.
func (c *Client) RunPoints(ids []string, model *cluster.Model) ([]runner.Metrics, error) {
	resp, err := c.Sweep(Request{Points: ids, Model: model})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(ids) {
		return nil, fmt.Errorf("sweepd: %d results for %d points", len(resp.Results), len(ids))
	}
	ms := make([]runner.Metrics, len(ids))
	for i, pr := range resp.Results {
		if pr.Error != "" {
			return nil, fmt.Errorf("sweepd: point %s: %s", pr.Point, pr.Error)
		}
		if pr.Point != ids[i] {
			return nil, fmt.Errorf("sweepd: result %d is %q, want %q", i, pr.Point, ids[i])
		}
		ms[i] = pr.Metrics
	}
	return ms, nil
}

// CollectGolden fetches every benchgate tier-1 point over HTTP and packages
// the results exactly like bench.CollectGolden does in-process; the two are
// byte-identical after encoding.
func (c *Client) CollectGolden(model *cluster.Model) (bench.Golden, error) {
	pts := bench.GatePoints(model)
	ids := make([]string, len(pts))
	for i, p := range pts {
		ids[i] = p.ID
	}
	ms, err := c.RunPoints(ids, model)
	if err != nil {
		return bench.Golden{}, err
	}
	g := bench.Golden{Schema: bench.GoldenSchema, Points: make(map[string]runner.Metrics, len(pts))}
	for i, p := range pts {
		g.Points[p.ID] = ms[i]
	}
	return g, nil
}

// Metrics fetches the daemon's /metrics snapshot.
func (c *Client) Metrics() (Snapshot, error) {
	var snap Snapshot
	if err := c.getJSON("/metrics", &snap); err != nil {
		return Snapshot{}, err
	}
	return snap, nil
}

// Catalog fetches the daemon's default point namespace.
func (c *Client) Catalog() ([]string, error) {
	var ids []string
	if err := c.getJSON("/catalog", &ids); err != nil {
		return nil, err
	}
	return ids, nil
}

func (c *Client) getJSON(path string, v interface{}) error {
	resp, err := c.httpClient().Get(c.BaseURL + path)
	if err != nil {
		return fmt.Errorf("sweepd: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sweepd: %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("sweepd: decoding %s: %w", path, err)
	}
	return nil
}
