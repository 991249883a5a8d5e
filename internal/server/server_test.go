package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"stmaker"
	"stmaker/internal/hits"
	"stmaker/internal/registry"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

var (
	setupOnce sync.Once
	srv       *Server
	testTrip  *traj.Raw
	setupErr  error
)

func testServer(t testing.TB) (*Server, *traj.Raw) {
	t.Helper()
	setupOnce.Do(func() {
		city := simulate.NewCity(simulate.CityOptions{Rows: 7, Cols: 7, Seed: 51})
		checkins := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: 52})
		city.Landmarks.InferSignificance(200, checkins, hits.Options{})
		s, err := stmaker.New(stmaker.Config{Graph: city.Graph, Landmarks: city.Landmarks})
		if err != nil {
			setupErr = err
			return
		}
		train := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 120, Seed: 53, FixedHour: -1, Calm: true})
		corpus := make([]*traj.Raw, 0, len(train))
		for _, tr := range train {
			corpus = append(corpus, tr.Raw)
		}
		if _, err := s.Train(corpus); err != nil {
			setupErr = err
			return
		}
		srv, setupErr = NewWithOptions(s, Options{Logger: DiscardLogger()})
		if setupErr != nil {
			return
		}
		trips := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 5, Seed: 54, FixedHour: 9})
		testTrip = trips[0].Raw
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return srv, testTrip
}

// testSummarizer returns the summarizer a single-region server wraps.
func testSummarizer(t *testing.T, srv *Server) *stmaker.Summarizer {
	t.Helper()
	s, err := srv.reg.Summarizer(registry.DefaultRegionName)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func post(t *testing.T, srv *Server, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// TestNewAcceptsUntrainedSummarizer pins the warm-start contract: a
// server may be built before any model is published, but it advertises
// not-ready and answers summarization with 503 until one lands.
func TestNewAcceptsUntrainedSummarizer(t *testing.T) {
	if _, err := NewWithOptions(nil, Options{}); err == nil {
		t.Error("nil summarizer accepted")
	}
	city := simulate.NewCity(simulate.CityOptions{Rows: 5, Cols: 5, Seed: 1})
	s, err := stmaker.New(stmaker.Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(s, Options{})
	if err != nil {
		t.Fatalf("untrained summarizer rejected: %v", err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz before model = %d, want 503", rec.Code)
	}
	trips := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 30, Seed: 7, FixedHour: -1, Calm: true})
	corpus := make([]*traj.Raw, 0, len(trips))
	for _, tr := range trips {
		corpus = append(corpus, tr.Raw)
	}
	rec = post(t, srv, "/summarize", SummarizeRequest{Trajectory: corpus[0]})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("summarize before model = %d, want 503", rec.Code)
	}
	if _, err := s.Train(corpus); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("readyz after train = %d, want 200", rec.Code)
	}
}

func TestSummarizeEndpoint(t *testing.T) {
	srv, trip := testServer(t)
	rec := post(t, srv, "/summarize", SummarizeRequest{Trajectory: trip})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	// A wrapped in-process summarizer has no region to name.
	if strings.Contains(rec.Body.String(), `"region"`) {
		t.Errorf("single-summarizer response names a region: %s", rec.Body.String())
	}
	var resp SummarizeResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != trip.ID || resp.Text == "" || len(resp.Parts) == 0 {
		t.Fatalf("response = %+v", resp)
	}
}

func TestSummarizeEndpointWithK(t *testing.T) {
	srv, trip := testServer(t)
	rec := post(t, srv, "/summarize?k=2", SummarizeRequest{Trajectory: trip})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SummarizeResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(resp.Parts))
	}
	// Body K also works.
	rec = post(t, srv, "/summarize", SummarizeRequest{Trajectory: trip, K: 3})
	var resp3 SummarizeResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp3); err != nil {
		t.Fatal(err)
	}
	if len(resp3.Parts) != 3 {
		t.Fatalf("body-k parts = %d, want 3", len(resp3.Parts))
	}
}

func TestSummarizeEndpointErrors(t *testing.T) {
	srv, trip := testServer(t)

	// GET is rejected.
	req := httptest.NewRequest(http.MethodGet, "/summarize", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", rec.Code)
	}

	// Garbage body.
	req = httptest.NewRequest(http.MethodPost, "/summarize", bytes.NewBufferString("{"))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("garbage status = %d", rec.Code)
	}

	// Missing trajectory.
	rec = post(t, srv, "/summarize", SummarizeRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing trajectory status = %d", rec.Code)
	}

	// Invalid k query.
	rec = post(t, srv, "/summarize?k=-3", SummarizeRequest{Trajectory: trip})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad k status = %d", rec.Code)
	}

	// Unsummarizable trajectory (too short).
	short := &traj.Raw{ID: "short", Samples: trip.Samples[:1]}
	rec = post(t, srv, "/summarize", SummarizeRequest{Trajectory: short})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("short trajectory status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SummarizeResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Error("error message missing")
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
}
