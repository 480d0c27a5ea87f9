package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/runner"
	"mpipart/internal/runner/store"
)

// Request is one POST /sweep batch: the catalog points to evaluate,
// optionally under a perturbed cost model. The triple the daemon serves —
// (topology, cost model, params) — is addressed as (point ID, model): the
// point ID fixes the topology and sweep parameters (every catalog ID names
// one fully-specified configuration, e.g. "fig5/g=8/prog_engine" is the
// two-node GH200 at grid 8), and Model perturbs the calibrated constants.
type Request struct {
	// Points lists catalog point IDs; GET /catalog enumerates them.
	Points []string `json:"points"`
	// Model, when non-nil, replaces the calibrated cost model for the
	// whole batch — the sensitivity-ablation axis. Only the gate families
	// are model-parameterized; a model-override batch resolves against
	// them alone. It must pass cluster.Model.Validate: JSON leaves every
	// field it does not name at zero, so an override normally starts from
	// the full default model.
	Model *cluster.Model `json:"model,omitempty"`
}

// checkModel validates the override model, if any.
func (r Request) checkModel() error {
	if r.Model == nil {
		return nil
	}
	return r.Model.Validate()
}

// PointResult is one element of the response, in request order.
type PointResult struct {
	Point string `json:"point"`
	// Key is the content-addressed key the point resolved to (empty for
	// unknown points).
	Key string `json:"key,omitempty"`
	// Source is the cache disposition: computed, store, coalesced, error
	// or unknown.
	Source  string         `json:"source"`
	Metrics runner.Metrics `json:"metrics,omitempty"`
	Error   string         `json:"error,omitempty"`
	// Host-side timings, microseconds (see RequestMetrics).
	QueueUS   float64 `json:"queue_us"`
	ComputeUS float64 `json:"compute_us"`
	TotalUS   float64 `json:"total_us"`
}

// Response is the POST /sweep payload.
type Response struct {
	Results []PointResult `json:"results"`
}

// Config assembles a Server.
type Config struct {
	// Store is the persistent result cache; nil serves without one
	// (in-flight coalescing still applies).
	Store runner.Store
	// Workers bounds concurrent simulations; <= 0 selects GOMAXPROCS.
	Workers int
	// Recent is how many per-request records /metrics retains (default
	// 512).
	Recent int
}

// Server executes sweep batches through the batcher + store stack and
// records per-request metrics. Wrap Handler in an http.Server to expose it.
type Server struct {
	batcher *Batcher
	col     *collector
	st      runner.Store
}

// NewServer returns a Server over the given configuration.
func NewServer(cfg Config) *Server {
	return &Server{
		batcher: NewBatcher(cfg.Workers, cfg.Store),
		col:     newCollector(cfg.Recent),
		st:      cfg.Store,
	}
}

// defaultCatalog is the full point namespace served without a model
// override: every figure and table job at its default sweep caps, plus the
// benchgate tier-1 subset (whose IDs coincide with the figure points they
// were drawn from). Construction only builds closures — nothing simulates
// until a point is requested — so it is done once, lazily.
var defaultCatalog struct {
	once sync.Once
	m    map[string]runner.Point
}

// catalogJobs mirrors cmd/figures -all at its default caps.
func catalogJobs() []bench.Job {
	return []bench.Job{
		bench.Fig2Job(131072), bench.Fig3Job(),
		bench.Fig4Job(2048), bench.Fig5Job(2048),
		bench.Fig6Job(2048), bench.Fig7Job(2048),
		bench.Fig8Job(32), bench.Fig9Job(32),
		bench.Fig10Job(2048), bench.Fig11Job(2048),
		bench.TableIJob(),
	}
}

// catalogFor resolves the point set a batch is served from. A nil model
// selects the shared default catalog; an override rebuilds the
// model-parameterized gate families under it.
func catalogFor(model *cluster.Model) map[string]runner.Point {
	if model != nil {
		pts := bench.GatePoints(model)
		m := make(map[string]runner.Point, len(pts))
		for _, p := range pts {
			m[p.ID] = p
		}
		return m
	}
	defaultCatalog.once.Do(func() {
		m := make(map[string]runner.Point)
		for _, p := range bench.GatePoints(nil) {
			m[p.ID] = p
		}
		for _, j := range catalogJobs() {
			for _, p := range j.Points {
				if _, ok := m[p.ID]; !ok {
					m[p.ID] = p
				}
			}
		}
		defaultCatalog.m = m
	})
	return defaultCatalog.m
}

// CatalogIDs returns every point ID of the default catalog, sorted.
func CatalogIDs() []string {
	cat := catalogFor(nil)
	ids := make([]string, 0, len(cat))
	for id := range cat {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Sweep executes one batch and returns per-point results in request order.
// Points fan out concurrently; the batcher bounds simultaneous simulations
// and coalesces identical keys, within this batch and across batches. An
// invalid override model fails every point without simulating: such a
// model could stall virtual time and pin a batcher worker forever.
func (s *Server) Sweep(req Request) Response {
	results := make([]PointResult, len(req.Points))
	if err := req.checkModel(); err != nil {
		for i, id := range req.Points {
			results[i] = PointResult{Point: id, Source: SourceError, Error: err.Error()}
		}
	} else {
		s.sweep(req, results)
	}
	for _, pr := range results {
		s.col.record(RequestMetrics{
			Point: pr.Point, Key: pr.Key, Source: pr.Source,
			QueueUS: pr.QueueUS, ComputeUS: pr.ComputeUS, TotalUS: pr.TotalUS,
		})
	}
	s.col.batchDone()
	return Response{Results: results}
}

// sweep fans req's points out through the batcher, filling results in
// request order.
func (s *Server) sweep(req Request, results []PointResult) {
	cat := catalogFor(req.Model)
	var wg sync.WaitGroup
	for i, id := range req.Points {
		i, id := i, id
		p, ok := cat[id]
		if !ok {
			results[i] = PointResult{Point: id, Source: SourceUnknown, Error: "unknown point"}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := s.batcher.Do(p.Key, p.Run)
			pr := PointResult{
				Point:     p.ID,
				Key:       p.Key,
				Source:    res.Source,
				Metrics:   res.Metrics,
				QueueUS:   us(res.Queue),
				ComputeUS: us(res.Compute),
				TotalUS:   us(res.Total),
			}
			if res.Err != nil {
				pr.Error = res.Err.Error()
			}
			results[i] = pr
		}()
	}
	wg.Wait()
}

// Metrics returns the current metrics snapshot.
func (s *Server) Metrics() Snapshot {
	totals, recent := s.col.snapshot()
	snap := Snapshot{Totals: totals, Recent: recent}
	if ds, ok := s.st.(*store.DiskStore); ok && ds != nil {
		st := ds.Stats()
		snap.Store = &st
	}
	return snap
}

// Handler returns the daemon's HTTP surface:
//
//	POST /sweep            evaluate a batch (Request -> Response)
//	GET  /metrics          Snapshot as JSON; ?format=csv for the recent
//	                       per-request rows as CSV
//	GET  /catalog          sorted default-catalog point IDs
//	GET  /healthz          liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sweep", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
		if err := dec.Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		if len(req.Points) == 0 {
			http.Error(w, "bad request: no points", http.StatusBadRequest)
			return
		}
		if err := req.checkModel(); err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		writeJSON(w, s.Sweep(req))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "csv" {
			_, recent := s.col.snapshot()
			w.Header().Set("Content-Type", "text/csv")
			if err := writeCSV(w, recent); err != nil {
				// Headers are gone; nothing better to do than drop the
				// connection mid-body.
				return
			}
			return
		}
		writeJSON(w, s.Metrics())
	})
	mux.HandleFunc("/catalog", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, CatalogIDs())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		if _, err := w.Write([]byte("ok\n")); err != nil {
			return
		}
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// The status line is already out; a failed body write means the
		// client went away.
		return
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
