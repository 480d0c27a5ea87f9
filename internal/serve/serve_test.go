package serve

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/runner"
	"mpipart/internal/runner/store"
)

// newTestDaemon boots a Server over a fresh disk store and wraps it in an
// httptest server.
func newTestDaemon(t *testing.T) (*Server, *httptest.Server, *store.DiskStore) {
	t.Helper()
	ds, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Store: ds, Workers: 4, Recent: 4096})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, ds
}

// TestGateByteIdenticalAcrossAllThreeModes is the tentpole acceptance test:
// the benchgate tier-1 batch must encode byte-identically whether computed
// in-process, replayed from a warm on-disk store, or fetched from the
// daemon over HTTP (cold and warm).
func TestGateByteIdenticalAcrossAllThreeModes(t *testing.T) {
	encode := func(g bench.Golden) []byte {
		b, err := bench.EncodeGolden(g)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Mode 1: in-process through the plain runner.
	inProcess := encode(bench.CollectGolden(runner.New(0), nil))

	// Mode 2: store-backed runner — cold pass populates the store, a fresh
	// runner over the same root replays it without computing.
	dir := t.TempDir()
	ds1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := encode(bench.CollectGolden(runner.NewWithStore(0, ds1), nil))
	ds2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmRunner := runner.NewWithStore(0, ds2)
	warm := encode(bench.CollectGolden(warmRunner, nil))
	if cs := warmRunner.CacheStats(); cs.Computed != 0 {
		t.Fatalf("warm store pass recomputed %d points", cs.Computed)
	}
	if !bytes.Equal(inProcess, cold) {
		t.Fatal("store-backed cold run differs from in-process run")
	}
	if !bytes.Equal(inProcess, warm) {
		t.Fatal("warm store replay differs from in-process run")
	}

	// Mode 3: over HTTP, cold then warm.
	srv, ts, _ := newTestDaemon(t)
	c := NewClient(ts.URL)
	gHTTP, err := c.CollectGolden(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inProcess, encode(gHTTP)) {
		t.Fatal("HTTP (cold) golden differs from in-process run")
	}
	gHTTP2, err := c.CollectGolden(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inProcess, encode(gHTTP2)) {
		t.Fatal("HTTP (warm) golden differs from in-process run")
	}

	// The warm HTTP pass must have been served entirely from cache: the
	// daemon computed each distinct key at most once across both passes.
	snap := srv.Metrics()
	nPts := int64(len(bench.GatePoints(nil)))
	if snap.Totals.Requests != 2*nPts {
		t.Fatalf("daemon served %d requests, want %d", snap.Totals.Requests, 2*nPts)
	}
	if snap.Totals.Errors != 0 || snap.Totals.Unknown != 0 {
		t.Fatalf("daemon reported failures: %+v", snap.Totals)
	}
	if snap.Totals.Computed > nPts {
		t.Fatalf("daemon computed %d times for %d distinct points", snap.Totals.Computed, nPts)
	}
	if snap.Totals.StoreHits == 0 {
		t.Fatalf("warm pass never hit the store: %+v", snap.Totals)
	}
}

// TestConcurrentIdenticalPostsComputeOnce: N identical concurrent POSTs of
// the same point must run its simulation exactly once — concurrent
// requests coalesce, stragglers hit the store.
func TestConcurrentIdenticalPostsComputeOnce(t *testing.T) {
	srv, ts, ds := newTestDaemon(t)
	const n = 8
	body := `{"points": ["fig2/g=1"]}`
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = resp.Body.Close() }()
			var r Response
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				errs <- err
				return
			}
			if len(r.Results) != 1 || r.Results[0].Error != "" || r.Results[0].Metrics == nil {
				t.Errorf("bad result: %+v", r.Results)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := srv.Metrics()
	if snap.Totals.Computed != 1 {
		t.Fatalf("daemon computed %d times for %d identical posts", snap.Totals.Computed, n)
	}
	if got := snap.Totals.StoreHits + snap.Totals.Coalesced; got != n-1 {
		t.Fatalf("store hits + coalesced = %d, want %d (%+v)", got, n-1, snap.Totals)
	}
	if st := ds.Stats(); st.Saves != 1 {
		t.Fatalf("store saves = %d, want 1", st.Saves)
	}
}

func TestSweepRejectsBadRequests(t *testing.T) {
	_, ts, _ := newTestDaemon(t)
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("garbage JSON: %d", code)
	}
	if code := post(`{"points": []}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", code)
	}
	resp, err := http.Get(ts.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /sweep: %d", resp.StatusCode)
	}
}

func TestSweepUnknownPointIsPerPointError(t *testing.T) {
	srv, ts, _ := newTestDaemon(t)
	c := NewClient(ts.URL)
	resp, err := c.Sweep(Request{Points: []string{"fig2/g=1", "no/such/point"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Metrics == nil {
		t.Fatalf("known point failed: %+v", resp.Results[0])
	}
	bad := resp.Results[1]
	if bad.Source != SourceUnknown || bad.Error == "" || bad.Metrics != nil {
		t.Fatalf("unknown point = %+v", bad)
	}
	if srv.Metrics().Totals.Unknown != 1 {
		t.Fatalf("unknown not counted: %+v", srv.Metrics().Totals)
	}
	// RunPoints surfaces the per-point failure as a call failure.
	if _, err := c.RunPoints([]string{"no/such/point"}, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown point") {
		t.Fatalf("RunPoints error = %v", err)
	}
}

// TestSweepRejectsInvalidModel: a cost-model override that fails
// cluster.Model.Validate must be refused promptly — over HTTP with 400, in
// process with a per-point error — instead of simulating. A zero model or
// a partial JSON model (every unnamed field zero) used to stall virtual
// time and never answer. A full default model with one stretched latency,
// the override shape the serve_mix benchmark sends, must still compute.
func TestSweepRejectsInvalidModel(t *testing.T) {
	srv := NewServer(Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	// Close waits for in-flight handlers, and a regression here is a
	// handler that never returns: leave the server to the process exit
	// then, so the test fails instead of hanging.
	t.Cleanup(func() {
		if !t.Failed() {
			ts.Close()
		}
	})
	var ids []string
	for _, p := range bench.GatePoints(nil) {
		ids = append(ids, p.ID)
	}
	pointsJSON, err := json.Marshal(ids)
	if err != nil {
		t.Fatal(err)
	}
	post := func(model string) (int, string) {
		t.Helper()
		body := `{"points":` + string(pointsJSON) + `,"model":` + model + `}`
		client := &http.Client{Timeout: time.Second}
		resp, err := client.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("model %s: %v", model, err)
		}
		defer func() { _ = resp.Body.Close() }()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}
	for _, model := range []string{`{}`, `{"IBLatency":5000}`} {
		if code, msg := post(model); code != http.StatusBadRequest || !strings.Contains(msg, "must be positive") {
			t.Fatalf("model %s: status %d %q, want 400 naming the bad field", model, code, msg)
		}
	}

	bad := cluster.DefaultModel()
	bad.ProgressPollInterval = -1
	resp := srv.Sweep(Request{Points: ids[:2], Model: &bad})
	for _, r := range resp.Results {
		if r.Source != SourceError || !strings.Contains(r.Error, "ProgressPollInterval") || r.Metrics != nil {
			t.Fatalf("in-process invalid model: %+v", r)
		}
	}

	stretched := cluster.DefaultModel()
	stretched.IBLatency += stretched.IBLatency / 4
	raw, err := json.Marshal(stretched)
	if err != nil {
		t.Fatal(err)
	}
	code, msg := post(string(raw))
	if code != http.StatusOK {
		t.Fatalf("stretched default model: status %d %q", code, msg)
	}
	var ok Response
	if err := json.Unmarshal([]byte(msg), &ok); err != nil {
		t.Fatal(err)
	}
	for _, r := range ok.Results {
		if r.Error != "" || r.Source != SourceComputed {
			t.Fatalf("stretched default model: %+v", r)
		}
	}
}

// TestModelOverrideDriftsMetrics: the cost-model axis of the request triple
// — the same point under a perturbed model must produce different metrics
// under a different store key, and the default result must be unaffected.
func TestModelOverrideDriftsMetrics(t *testing.T) {
	_, ts, _ := newTestDaemon(t)
	c := NewClient(ts.URL)
	const pt = "fig4/g=8/sendrecv"

	base, err := c.Sweep(Request{Points: []string{pt}})
	if err != nil {
		t.Fatal(err)
	}
	m := cluster.DefaultModel()
	m.NVLinkBytesPerSec *= 1.05
	pert, err := c.Sweep(Request{Points: []string{pt}, Model: &m})
	if err != nil {
		t.Fatal(err)
	}
	b, p := base.Results[0], pert.Results[0]
	if b.Error != "" || p.Error != "" {
		t.Fatalf("errors: %q / %q", b.Error, p.Error)
	}
	if b.Key == p.Key {
		t.Fatal("perturbed model reused the default model's key")
	}
	if b.Metrics.Equal(p.Metrics) {
		t.Fatalf("perturbed model served identical metrics: %v", b.Metrics)
	}
	// And the default model's answer is still the default answer.
	again, err := c.Sweep(Request{Points: []string{pt}})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Results[0].Metrics.Equal(b.Metrics) {
		t.Fatal("default-model result changed after a model-override batch")
	}
}

func TestMetricsEndpointJSONAndCSV(t *testing.T) {
	_, ts, _ := newTestDaemon(t)
	c := NewClient(ts.URL)
	if _, err := c.RunPoints([]string{"fig2/g=1", "fig2/g=64"}, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Totals.Requests != 2 || snap.Totals.Batches != 1 || snap.Totals.Computed != 2 {
		t.Fatalf("totals = %+v", snap.Totals)
	}
	if snap.Store == nil || snap.Store.Saves != 2 {
		t.Fatalf("store stats = %+v", snap.Store)
	}
	if len(snap.Recent) != 2 {
		t.Fatalf("recent = %+v", snap.Recent)
	}
	for _, r := range snap.Recent {
		if r.Seq == 0 || r.Point == "" || r.Key == "" || r.Source != SourceComputed ||
			r.ComputeUS <= 0 || r.TotalUS < r.ComputeUS {
			t.Fatalf("bad request record: %+v", r)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	rows, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 requests
		t.Fatalf("CSV rows = %d: %v", len(rows), rows)
	}
	if got := strings.Join(rows[0], ","); got != "seq,point,key,source,queue_us,compute_us,total_us" {
		t.Fatalf("CSV header = %q", got)
	}
	if rows[1][1] != "fig2/g=1" && rows[2][1] != "fig2/g=1" {
		t.Fatalf("CSV rows lack the served points: %v", rows[1:])
	}
}

func TestHealthzAndCatalog(t *testing.T) {
	_, ts, _ := newTestDaemon(t)
	c := NewClient(ts.URL)
	if err := c.Healthy(); err != nil {
		t.Fatal(err)
	}
	ids, err := c.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(ids))
	for i, id := range ids {
		have[id] = true
		if i > 0 && ids[i-1] >= id {
			t.Fatalf("catalog not sorted/unique at %d: %q, %q", i, ids[i-1], id)
		}
	}
	// Every gate point is servable by name, so benchgate -server can gate
	// against this daemon.
	for _, p := range bench.GatePoints(nil) {
		if !have[p.ID] {
			t.Fatalf("gate point %q missing from catalog", p.ID)
		}
	}
	// And the sweep families beyond the gate subset are present too.
	for _, id := range []string{"fig2/g=131072", "table1/overheads"} {
		if !have[id] {
			t.Fatalf("catalog lacks %q", id)
		}
	}
}

// TestCatalogKeysMatchGateKeys guards the content-addressing contract: a
// point requested by ID through the daemon must resolve to the same
// sha256 key the in-process gate uses, or the three modes would not share
// a cache.
func TestCatalogKeysMatchGateKeys(t *testing.T) {
	cat := catalogFor(nil)
	for _, p := range bench.GatePoints(nil) {
		got, ok := cat[p.ID]
		if !ok {
			t.Fatalf("gate point %q not in catalog", p.ID)
		}
		if got.Key != p.Key {
			t.Fatalf("point %q: catalog key %s != gate key %s", p.ID, got.Key, p.Key)
		}
	}
}
