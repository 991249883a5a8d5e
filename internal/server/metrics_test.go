package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"stmaker"
	"stmaker/internal/hits"
	"stmaker/internal/metrics"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

// scrape GETs /metrics and decodes the snapshot.
func scrape(t *testing.T, srv *Server) metrics.Snapshot {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(rec.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestMetricsEndpointShape drives traffic through the server and checks
// the /metrics snapshot exposes the documented request metrics and the
// Summarizer's per-stage latency histograms (docs/OBSERVABILITY.md).
func TestMetricsEndpointShape(t *testing.T) {
	srv, trip := testServer(t)
	before := scrape(t, srv)

	rec := post(t, srv, "/summarize", SummarizeRequest{Trajectory: trip})
	if rec.Code != http.StatusOK {
		t.Fatalf("summarize status = %d", rec.Code)
	}
	snap := scrape(t, srv)

	if got := snap.Counters[MetricHTTPRequests]; got <= before.Counters[MetricHTTPRequests] {
		t.Errorf("%s = %d, want > %d", MetricHTTPRequests, got, before.Counters[MetricHTTPRequests])
	}
	// The scrape itself is in flight while the snapshot is taken.
	if got := snap.Counters[MetricHTTPInFlight]; got != 1 {
		t.Errorf("%s = %d, want 1 (the scrape)", MetricHTTPInFlight, got)
	}
	lat := snap.Histograms[MetricHTTPLatency]
	if lat.Count == 0 || lat.Sum <= 0 {
		t.Errorf("%s = %+v, want observations", MetricHTTPLatency, lat)
	}
	for _, name := range []string{
		stmaker.MetricStageCalibrate, stmaker.MetricStageExtract,
		stmaker.MetricStagePartition, stmaker.MetricStageSelect,
		stmaker.MetricStageRender, stmaker.MetricSummarize,
	} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("stage histogram %s missing from /metrics", name)
		}
	}
	if snap.Counters[stmaker.MetricSummaries] == 0 {
		t.Errorf("%s missing after successful summarize", stmaker.MetricSummaries)
	}
	// A registry of one over the summarizer's metrics keeps the flat
	// shape: no regions map.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var shape map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &shape); err != nil {
		t.Fatal(err)
	}
	if _, ok := shape["regions"]; ok {
		t.Error("single-summarizer snapshot carries a regions map")
	}

	// POST is rejected.
	rec = post(t, srv, "/metrics", struct{}{})
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d", rec.Code)
	}
}

// TestMiddlewareStatusRecording checks the per-status-class response
// counters move with the handler outcomes.
func TestMiddlewareStatusRecording(t *testing.T) {
	srv, trip := testServer(t)
	before := scrape(t, srv)

	// One 2xx.
	if rec := post(t, srv, "/summarize", SummarizeRequest{Trajectory: trip}); rec.Code != http.StatusOK {
		t.Fatalf("summarize status = %d", rec.Code)
	}
	// One 4xx (missing trajectory).
	if rec := post(t, srv, "/summarize", SummarizeRequest{}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad request status = %d", rec.Code)
	}
	after := scrape(t, srv)

	// The before/after scrapes themselves add 2xx responses: the delta
	// must cover the summarize success plus the first scrape.
	d2xx := after.Counters[MetricHTTPResponses2xx] - before.Counters[MetricHTTPResponses2xx]
	if d2xx < 2 {
		t.Errorf("2xx delta = %d, want >= 2", d2xx)
	}
	d4xx := after.Counters[MetricHTTPResponses4xx] - before.Counters[MetricHTTPResponses4xx]
	if d4xx != 1 {
		t.Errorf("4xx delta = %d, want 1", d4xx)
	}
}

// TestConcurrentSummarizeWhileScraping races summarization traffic
// against /metrics scrapes; run under -race it proves a scrape never
// torn-reads or blocks the serving path.
func TestConcurrentSummarizeWhileScraping(t *testing.T) {
	srv, trip := testServer(t)
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(SummarizeRequest{Trajectory: trip}); err != nil {
		t.Fatal(err)
	}
	payload := body.Bytes()

	const workers, rounds = 4, 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req := httptest.NewRequest(http.MethodPost, "/summarize", bytes.NewReader(payload))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- rec.Body.String()
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- rec.Body.String()
				}
				var snap metrics.Snapshot
				if err := json.NewDecoder(rec.Body).Decode(&snap); err != nil {
					errs <- err.Error()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	snap := scrape(t, srv)
	if snap.Counters[stmaker.MetricSummaries] < workers*rounds {
		t.Errorf("%s = %d, want >= %d",
			stmaker.MetricSummaries, snap.Counters[stmaker.MetricSummaries], workers*rounds)
	}
}

// TestMetricsExposeSPCacheCounters checks that a summarizer configured for
// HMM matching surfaces its shared shortest-path cache counters through
// GET /metrics (docs/OBSERVABILITY.md).
func TestMetricsExposeSPCacheCounters(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 6, Cols: 6, Seed: 71})
	checkins := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: 72})
	city.Landmarks.InferSignificance(200, checkins, hits.Options{})
	s, err := stmaker.New(stmaker.Config{
		Graph:          city.Graph,
		Landmarks:      city.Landmarks,
		UseHMMMatching: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	train := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 60, Seed: 73, FixedHour: -1, Calm: true})
	corpus := make([]*traj.Raw, 0, len(train))
	for _, tr := range train {
		corpus = append(corpus, tr.Raw)
	}
	if _, err := s.Train(corpus); err != nil {
		t.Fatal(err)
	}
	hmmSrv, err := NewWithOptions(s, Options{Logger: DiscardLogger()})
	if err != nil {
		t.Fatal(err)
	}

	trips := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 3, Seed: 74, FixedHour: 9})
	for _, tr := range trips {
		if rec := post(t, hmmSrv, "/summarize", SummarizeRequest{Trajectory: tr.Raw}); rec.Code != http.StatusOK {
			t.Fatalf("summarize status = %d: %s", rec.Code, rec.Body.String())
		}
	}

	snap := scrape(t, hmmSrv)
	for _, name := range []string{
		stmaker.MetricSPCacheHits,
		stmaker.MetricSPCacheMisses,
		stmaker.MetricSPCacheEvictions,
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s missing from /metrics", name)
		}
	}
	if snap.Counters[stmaker.MetricSPCacheMisses] == 0 {
		t.Errorf("%s = 0 after HMM-matched summaries", stmaker.MetricSPCacheMisses)
	}
}

// TestPprofOptIn checks the profiling handlers are absent by default and
// present with Options.EnablePprof.
func TestPprofOptIn(t *testing.T) {
	srv, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof served without opt-in: status = %d", rec.Code)
	}

	on, err := NewWithOptions(testSummarizer(t, srv), Options{Logger: DiscardLogger(), EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof index status = %d with opt-in", rec.Code)
	}
}

// TestRequestLogLine checks the middleware emits one structured log line
// per request with the documented attributes.
func TestRequestLogLine(t *testing.T) {
	srv, _ := testServer(t)
	var buf bytes.Buffer
	logged, err := NewWithOptions(testSummarizer(t, srv), Options{
		Logger: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	logged.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var line struct {
		Msg    string `json:"msg"`
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, buf.String())
	}
	if line.Msg != "request" || line.Method != http.MethodGet || line.Path != "/healthz" || line.Status != http.StatusOK {
		t.Errorf("log line = %+v", line)
	}
}
