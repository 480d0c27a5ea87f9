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
	"mpipart/internal/sim"
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
// daemon over HTTP (cold, from the warm store, and from memory).
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

	// Mode 3: over HTTP, three passes. The cold pass computes and fills
	// the store; the warm pass runs on a fresh Server over the same store,
	// so it replays every point from disk; a third pass on that Server is
	// answered from its memo without touching the store.
	_, ts, ds := newTestDaemon(t)
	gHTTP, err := NewClient(ts.URL).CollectGolden(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inProcess, encode(gHTTP)) {
		t.Fatal("HTTP (cold) golden differs from in-process run")
	}
	srv := NewServer(Config{Store: ds, Workers: 4})
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts2.Close)
	c := NewClient(ts2.URL)
	gHTTP2, err := c.CollectGolden(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inProcess, encode(gHTTP2)) {
		t.Fatal("HTTP (warm store) golden differs from in-process run")
	}
	nPts := int64(len(bench.GatePoints(nil)))
	tot := srv.Metrics().Totals
	if tot.StoreHits != nPts || tot.Computed != 0 || tot.MemHits != 0 || tot.Errors != 0 || tot.Unknown != 0 {
		t.Fatalf("warm store pass: %+v, want %d store hits and nothing else", tot, nPts)
	}

	st0 := ds.Stats()
	gHTTP3, err := c.CollectGolden(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inProcess, encode(gHTTP3)) {
		t.Fatal("HTTP (memory) golden differs from in-process run")
	}
	tot = srv.Metrics().Totals
	if got := tot.MemHits; got != nPts || tot.Requests != 2*nPts || tot.StoreHits != nPts || tot.Computed != 0 {
		t.Fatalf("memory pass: %+v, want %d memory hits", tot, nPts)
	}
	if st := ds.Stats(); st.Hits+st.Misses != st0.Hits+st0.Misses {
		t.Fatalf("memory pass read the store: %+v before, %+v after", st0, st)
	}
}

// TestConcurrentIdenticalPostsComputeOnce: N identical concurrent POSTs of
// the same point must run its simulation exactly once — concurrent
// requests coalesce, stragglers hit the memo or the store.
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
	if got := snap.Totals.MemHits + snap.Totals.StoreHits + snap.Totals.Coalesced; got != n-1 {
		t.Fatalf("memory hits + store hits + coalesced = %d, want %d (%+v)", got, n-1, snap.Totals)
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

// TestOverflowModelsAnswerPromptly: two override models that once drove
// virtual time past the int64 range — a 1<<62 ns poll period that wrapped
// the clock negative and spun sweepd forever, and a near-zero IB bandwidth
// that turned into a negative wire occupancy — now fail
// cluster.Model.Validate's range checks. Each must be refused before any
// simulation runs: 400 over HTTP, a per-point error in process. The
// overflow panic itself stays covered in internal/sim and internal/gpu.
func TestOverflowModelsAnswerPromptly(t *testing.T) {
	var ids []string
	for _, p := range bench.GatePoints(nil) {
		ids = append(ids, p.ID)
	}
	srv := NewServer(Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	slowIB := cluster.DefaultModel()
	slowIB.IBBytesPerSec = 1e-300
	slowPoll := cluster.DefaultModel()
	slowPoll.ProgressPollInterval = 1 << 62
	for _, c := range []struct {
		name, field string
		m           cluster.Model
	}{{"IB", "IBBytesPerSec", slowIB}, {"poll", "ProgressPollInterval", slowPoll}} {
		body, err := json.Marshal(Request{Points: ids, Model: &c.m})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := (&http.Client{Timeout: 5 * time.Second}).Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s model: %v", c.name, err)
		}
		var msg bytes.Buffer
		_, err = msg.ReadFrom(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), c.field) {
			t.Fatalf("%s model over HTTP: status %d %q, want 400 naming %s", c.name, resp.StatusCode, msg.String(), c.field)
		}
		for _, r := range srv.Sweep(Request{Points: ids, Model: &c.m}).Results {
			if r.Source != SourceError || !strings.Contains(r.Error, c.field) || r.Metrics != nil {
				t.Fatalf("%s model in process, %s: %+v", c.name, r.Point, r)
			}
		}
	}
	if tot := srv.Metrics().Totals; tot.Computed != 0 || tot.Errors != 2*int64(len(ids)) {
		t.Fatalf("totals %+v, want %d errors and no simulation", tot, 2*len(ids))
	}
}

// TestBatchResolvesEachKeyOnce: a cold batch of many copies of one point
// starts one resolution, not one per copy. The first position computes,
// every repeat shares its result as coalesced, and the store sees one
// write.
func TestBatchResolvesEachKeyOnce(t *testing.T) {
	ds, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Store: ds, Workers: 4})
	const n = 1000
	pts := make([]string, n)
	for i := range pts {
		pts[i] = "fig2/g=1"
	}
	res := srv.Sweep(Request{Points: pts}).Results
	if len(res) != n {
		t.Fatalf("%d results for %d points", len(res), n)
	}
	if r := res[0]; r.Source != SourceComputed || r.Error != "" || r.Metrics == nil {
		t.Fatalf("first copy: %+v, want computed", r)
	}
	for i, r := range res[1:] {
		if r.Source != SourceCoalesced || r.Point != pts[i+1] || r.Key != res[0].Key || !r.Metrics.Equal(res[0].Metrics) {
			t.Fatalf("copy %d: %+v, want coalesced with the first copy's metrics", i+1, r)
		}
	}
	if tot := srv.Metrics().Totals; tot.Computed != 1 || tot.Coalesced != n-1 {
		t.Fatalf("totals %+v, want 1 computed and %d coalesced", tot, n-1)
	}
	if st := ds.Stats(); st.Saves != 1 {
		t.Fatalf("store saves = %d, want 1", st.Saves)
	}
}

// TestMemoBoundedByCatalog: the memo holds default-catalog results only.
// Override batches, however many distinct models they carry, add nothing,
// and two whole-catalog batches fill it with at most one entry per catalog
// point; the second is answered from it entirely.
func TestMemoBoundedByCatalog(t *testing.T) {
	srv := NewServer(Config{Workers: 4})
	memoLen := func() int {
		srv.memoMu.Lock()
		defer srv.memoMu.Unlock()
		return len(srv.memo)
	}
	for i := 0; i < 20; i++ {
		m := cluster.DefaultModel()
		m.IBLatency += sim.Duration(i + 1)
		for _, r := range srv.Sweep(Request{Points: []string{"fig2/g=1", "fig4/g=1/sendrecv"}, Model: &m}).Results {
			if r.Source != SourceComputed {
				t.Fatalf("override batch %d: %+v", i, r)
			}
		}
	}
	if n := memoLen(); n != 0 {
		t.Fatalf("override batches left %d memo entries", n)
	}
	all := CatalogIDs()
	for pass := 0; pass < 2; pass++ {
		for _, r := range srv.Sweep(Request{Points: all}).Results {
			if r.Error != "" {
				t.Fatalf("pass %d, %s: %s", pass, r.Point, r.Error)
			}
		}
	}
	if n := memoLen(); n == 0 || n > len(all) {
		t.Fatalf("memo holds %d entries, want 1..%d", n, len(all))
	}
	tot := srv.Metrics().Totals
	if tot.MemHits != int64(len(all)) {
		t.Fatalf("second catalog batch: %d memory hits, want %d (%+v)", tot.MemHits, len(all), tot)
	}
}

// FuzzSweepRequest drives POST /sweep with arbitrary bodies. It must never
// panic and must answer 200, 400 or 405; a 200 carries one result per
// requested point, in order, and an ID outside the catalog comes back as
// unknown.
func FuzzSweepRequest(f *testing.F) {
	oversized := `{"points":[` + strings.Repeat(`"fig2/g=1",`, 800_000) + `"fig2/g=1"]}`
	for _, seed := range []string{
		``,
		`{`,
		`{not json`,
		`null`,
		`[]`,
		`{"points":[]}`,
		`{"points":"fig2/g=1"}`,
		`{"points":[1,2]}`,
		`{"points":["no/such/point"]}`,
		`{"points":["fig2/g=1"]}`,
		`{"points":["fig2/g=1","no/such/point","fig2/g=1"]}`,
		`{"points":["fig2/g=1"],"model":{}}`,
		`{"points":["fig2/g=1"],"model":{"IBLatency":5000}}`,
		`{"points":["fig2/g=1"]} trailing`,
		oversized,
	} {
		f.Add([]byte(seed), false)
	}
	f.Add([]byte(`{"points":["fig2/g=1"]}`), true)

	srv := NewServer(Config{Workers: 1})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte, get bool) {
		method := http.MethodPost
		if get {
			method = http.MethodGet
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/sweep", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusMethodNotAllowed:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		// The handler decodes the first JSON value of the body; so does
		// this, to learn what it was asked.
		var req Request
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		if len(resp.Results) != len(req.Points) {
			t.Fatalf("%d results for %d points", len(resp.Results), len(req.Points))
		}
		cat := catalogFor(req.Model)
		for i, r := range resp.Results {
			if r.Point != req.Points[i] {
				t.Fatalf("result %d is %q, want %q", i, r.Point, req.Points[i])
			}
			if _, known := cat[r.Point]; known == (r.Source == SourceUnknown) {
				t.Fatalf("result %d (%q): source %s, catalog has it: %v", i, r.Point, r.Source, known)
			}
		}
	})
}
