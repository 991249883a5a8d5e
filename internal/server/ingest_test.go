package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stmaker/internal/ingest"
	"stmaker/internal/registry"
	"stmaker/internal/traj"
)

// ingestServer builds a multi-region server with POST /ingest enabled
// over a per-test ingest directory.
func ingestServer(t *testing.T, svcOpts ingest.ServiceOptions) (*Server, []testRegion) {
	t.Helper()
	svcOpts.Dir = t.TempDir()
	if svcOpts.Logger == nil {
		svcOpts.Logger = DiscardLogger()
	}
	return multiServer(t, Options{Ingest: &svcOpts})
}

// ndjson renders a trip's samples (optionally capped) as ingest lines,
// with an end marker when closed.
func ndjson(t *testing.T, trip *traj.Raw, n int, closed bool) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if n <= 0 || n > len(trip.Samples) {
		n = len(trip.Samples)
	}
	for _, s := range trip.Samples[:n] {
		err := enc.Encode(map[string]any{
			"trip": trip.ID, "object": trip.Object,
			"lat": s.Pt.Lat, "lng": s.Pt.Lng, "t": s.T,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if closed {
		if err := enc.Encode(map[string]any{"trip": trip.ID, "end": true}); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

func postIngest(t *testing.T, srv *Server, path string, body *bytes.Buffer) (*httptest.ResponseRecorder, IngestResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, body)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var resp IngestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("ingest response %d is not JSON: %v: %s", rec.Code, err, rec.Body.String())
	}
	return rec, resp
}

func TestIngestEndToEnd(t *testing.T) {
	srv, regions := ingestServer(t, ingest.ServiceOptions{})
	reg := regions[0]
	rec, resp := postIngest(t, srv, "/ingest?region="+reg.name, ndjson(t, reg.trip, 0, true))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Region != reg.name || resp.Accepted != len(reg.trip.Samples) || resp.Closed != 1 {
		t.Fatalf("ingest response = %+v, want %d accepted, 1 closed in %s",
			resp, len(reg.trip.Samples), reg.name)
	}
	// Spatial routing: no region key anywhere, the first fix's
	// coordinates land in the second region's bbox.
	other := regions[1]
	rec, resp = postIngest(t, srv, "/ingest", ndjson(t, other.trip, 4, false))
	if rec.Code != http.StatusOK || resp.Region != other.name {
		t.Fatalf("spatially-routed ingest = %d region %q, want 200 in %s",
			rec.Code, resp.Region, other.name)
	}
	// Summaries keep flowing after ingestion.
	if rc := post(t, srv, "/summarize?region="+reg.name, SummarizeRequest{Trajectory: reg.trip}); rc.Code != http.StatusOK {
		t.Fatalf("summarize after ingest = %d", rc.Code)
	}
}

func TestIngestRejectsBadInput(t *testing.T) {
	srv, regions := ingestServer(t, ingest.ServiceOptions{})
	reg := regions[0]
	routed := "/ingest?region=" + reg.name
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed json", routed, "{not json}\n", http.StatusBadRequest},
		{"missing trip", routed, `{"lat":1,"lng":2,"t":"2013-11-02T09:00:00Z"}` + "\n", http.StatusBadRequest},
		{"missing timestamp", routed, `{"trip":"x","lat":1,"lng":2}` + "\n", http.StatusBadRequest},
		{"oversized line", routed, `{"trip":"` + strings.Repeat("x", 70<<10) + `"}` + "\n", http.StatusBadRequest},
		{"unknown region", "/ingest", `{"trip":"x","region":"atlantis","lat":1,"lng":2,"t":"2013-11-02T09:00:00Z"}` + "\n", http.StatusNotFound},
		{"uncovered point", "/ingest", `{"trip":"x","lat":1,"lng":2,"t":"2013-11-02T09:00:00Z"}` + "\n", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, resp := postIngest(t, srv, tc.path, bytes.NewBufferString(tc.body))
			if rec.Code != tc.want {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, tc.want, rec.Body.String())
			}
			if resp.Error == "" {
				t.Fatal("error response carries no error message")
			}
		})
	}
	// Method discipline.
	req := httptest.NewRequest(http.MethodGet, "/ingest", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest = %d, want 405", rec.Code)
	}
	// A stream that fails mid-way still acknowledges the prefix.
	good := ndjson(t, reg.trip, 5, false)
	good.WriteString("{broken\n")
	rec2, resp := postIngest(t, srv, "/ingest?region="+reg.name, good)
	if rec2.Code != http.StatusBadRequest || resp.Accepted != 5 {
		t.Fatalf("mid-stream failure = %d accepted %d, want 400 with 5 acknowledged", rec2.Code, resp.Accepted)
	}
}

// TestIngestBackpressure is the shed-without-blocking proof: a full
// trip buffer answers 429 + Retry-After, the shed counter advances, and
// /summarize on the same server keeps answering 200 throughout.
func TestIngestBackpressure(t *testing.T) {
	srv, regions := ingestServer(t, ingest.ServiceOptions{BufferFixes: 8})
	reg := regions[0]
	rec, resp := postIngest(t, srv, "/ingest?region="+reg.name, ndjson(t, reg.trip, 0, false))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity ingest = %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The 8 fixes under capacity were durably acknowledged before the shed.
	if resp.Accepted != 8 {
		t.Fatalf("accepted %d fixes before shedding, want 8", resp.Accepted)
	}
	var mrec struct {
		Regions map[string]struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"regions"`
	}
	mr := httptest.NewRecorder()
	srv.ServeHTTP(mr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := json.Unmarshal(mr.Body.Bytes(), &mrec); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if got := mrec.Regions[reg.name].Counters[ingest.MetricShed]; got < 1 {
		t.Fatalf("%s = %d after shed, want >= 1", ingest.MetricShed, got)
	}
	// Backpressure on ingest never blocks reads.
	for i := 0; i < 3; i++ {
		if rc := post(t, srv, "/summarize?region="+reg.name, SummarizeRequest{Trajectory: reg.trip}); rc.Code != http.StatusOK {
			t.Fatalf("summarize during backpressure = %d", rc.Code)
		}
	}
}

// TestIngestCompactionUnderLoad is the acceptance test for live
// publication: compactions hot-swap new models while summarize traffic
// flows, and not one request fails.
func TestIngestCompactionUnderLoad(t *testing.T) {
	srv, regions := ingestServer(t, ingest.ServiceOptions{})
	reg := regions[0]
	rec, _ := postIngest(t, srv, "/ingest?region="+reg.name, ndjson(t, reg.trip, 0, true))
	if rec.Code != http.StatusOK {
		t.Fatalf("seed ingest = %d", rec.Code)
	}

	const workers, iters = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rc := post(t, srv, "/summarize?region="+reg.name, SummarizeRequest{Trajectory: reg.trip})
				if rc.Code != http.StatusOK {
					errs <- fmt.Errorf("summarize during compaction = %d: %s", rc.Code, rc.Body.String())
					return
				}
			}
		}()
	}
	// Interleave compactions with the read traffic; later rounds are
	// no-ops (nothing new) and must stay harmless.
	for i := 0; i < 5; i++ {
		if err := srv.Ingest().CompactAll(); err != nil {
			t.Errorf("CompactAll: %v", err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestIngestSurvivesCrash is the zero-acknowledged-loss contract over a
// real listener: trips stream into one server, which is then dropped
// without closing its ingestion service, leaving the active WAL segment
// unsealed as a kill -9 would. A second server over the same model and
// ingest directories must replay every acknowledged fix and close, keep
// the trip that was open at the crash, and go on to ingest, compact and
// serve.
func TestIngestSurvivesCrash(t *testing.T) {
	opts := Options{Ingest: &ingest.ServiceOptions{
		Dir: t.TempDir(), CompactInterval: time.Hour, Logger: DiscardLogger(),
	}}
	srv1, regions := multiServer(t, opts)
	reg := regions[0]
	// send POSTs body to url+path, decodes the JSON reply into out and
	// returns the status.
	send := func(url, path string, body io.Reader, out any) int {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s = %d with a reply that is not JSON: %v", path, resp.StatusCode, err)
		}
		return resp.StatusCode
	}
	// stream ingests the region's trip under ID crash-<i>, only its first
	// half when it stays open, and returns the acknowledged fixes + closes.
	stream := func(url string, i int, closed bool) int {
		t.Helper()
		trip := *reg.trip
		trip.ID = fmt.Sprintf("crash-%d", i)
		n := len(trip.Samples)
		if !closed {
			n /= 2
		}
		var resp IngestResponse
		code := send(url, "/ingest?region="+reg.name, ndjson(t, &trip, n, closed), &resp)
		if code != http.StatusOK || resp.Accepted != n {
			t.Fatalf("ingest of trip %d = %d with %d of %d fixes accepted: %s", i, code, resp.Accepted, n, resp.Error)
		}
		return resp.Accepted + resp.Closed
	}

	ts1 := httptest.NewServer(srv1)
	acked := 0
	for i := 0; i < 8; i++ {
		acked += stream(ts1.URL, i, i < 7)
	}
	// Crash: every acknowledged record is already fsynced, and nothing
	// seals the active segment.
	ts1.CloseClientConnections()
	ts1.Close()

	srv2, _ := multiServer(t, opts) // NewService recovers the region eagerly
	ing, err := srv2.Ingest().Ingester(reg.name)
	if err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	if st.Replay.Records < acked || st.Replay.SkippedEvents != 0 {
		t.Fatalf("replay = %+v, want all %d acknowledged records and no skipped events", st.Replay, acked)
	}
	if st.OpenTrips != 1 || st.TripsFolded != 7 {
		t.Fatalf("recovered %d open and %d folded trips, want 1 and 7", st.OpenTrips, st.TripsFolded)
	}

	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	stream(ts2.URL, 8, true)
	if err := srv2.Ingest().CompactAll(); err != nil {
		t.Fatal(err)
	}
	if seq := ing.Stats().CheckpointSeq; seq == 0 {
		t.Fatal("compaction did not advance the checkpoint")
	}
	body, err := json.Marshal(SummarizeRequest{Trajectory: reg.trip})
	if err != nil {
		t.Fatal(err)
	}
	var sum SummarizeResponse
	if code := send(ts2.URL, "/summarize?region="+reg.name, bytes.NewReader(body), &sum); code != http.StatusOK || sum.Text == "" {
		t.Fatalf("summarize after compaction = %d with text %q", code, sum.Text)
	}
	if err := srv2.Ingest().Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestRunCompactsOnInterval drives the loop stmakerd starts beside
// the listener: it compacts on its interval without being asked, and it
// returns once its context is cancelled.
func TestIngestRunCompactsOnInterval(t *testing.T) {
	srv, regions := ingestServer(t, ingest.ServiceOptions{CompactInterval: 5 * time.Millisecond})
	reg := regions[0]
	if rec, _ := postIngest(t, srv, "/ingest?region="+reg.name, ndjson(t, reg.trip, 0, true)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body.String())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		srv.Ingest().Run(ctx)
		close(done)
	}()
	compactions := srv.reg.RegionMetrics(reg.name).Counter(ingest.MetricCompactions)
	waitFor(t, "a compaction from Run", func() bool { return compactions.Value() >= 1 })
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after its context was cancelled")
	}
}

func TestReadyzVerbose(t *testing.T) {
	srv, regions := ingestServer(t, ingest.ServiceOptions{})
	// Warm one region so the fleet is ready.
	if rc := post(t, srv, "/summarize?region="+regions[0].name, SummarizeRequest{Trajectory: regions[0].trip}); rc.Code != http.StatusOK {
		t.Fatalf("warm-up = %d", rc.Code)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz?verbose=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz verbose = %d: %s", rec.Code, rec.Body.String())
	}
	var resp ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Ready || len(resp.Regions) != len(regions) {
		t.Fatalf("verbose readyz = %+v, want ready with %d regions", resp, len(regions))
	}
	states := make(map[string]registry.RegionStatus)
	for _, st := range resp.Regions {
		states[st.Region] = st
	}
	if st := states[regions[0].name]; st.State != "loaded" || st.ModelVersion == 0 {
		t.Fatalf("warmed region status = %+v, want loaded with a version", st)
	}
	if st := states[regions[1].name]; st.State != "cold" {
		t.Fatalf("cold region status = %+v, want cold", st)
	}
	// The plain probe keeps its historical shape.
	prec := httptest.NewRecorder()
	srv.ServeHTTP(prec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if prec.Code != http.StatusOK || !strings.HasPrefix(prec.Body.String(), "ok") {
		t.Fatalf("plain readyz = %d %q, want 200 ok", prec.Code, prec.Body.String())
	}
}

// FuzzIngestNDJSON throws arbitrary bytes at POST /ingest: the handler
// must always answer a well-formed JSON response with a contract status
// and leave the server serving.
func FuzzIngestNDJSON(f *testing.F) {
	multiOnce.Do(buildMultiRegionFixture)
	if multiErr != nil {
		f.Fatal(multiErr)
	}
	reg, err := registry.Open(multiDir, registry.Options{Logger: DiscardLogger()})
	if err != nil {
		f.Fatal(err)
	}
	srv, err := NewMultiRegion(reg, Options{
		Logger: DiscardLogger(),
		Ingest: &ingest.ServiceOptions{
			Dir: f.TempDir(), BufferFixes: 256, TripFixLimit: 16, Logger: DiscardLogger(),
		},
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"trip":"a","lat":39.8,"lng":116.25,"t":"2013-11-02T09:00:00Z"}` + "\n"))
	f.Add([]byte(`{"trip":"a","end":true}` + "\n"))
	f.Add([]byte(`{"trip":"a","region":"atlantis","lat":1,"lng":2,"t":"2013-11-02T09:00:00Z"}` + "\n"))
	f.Add([]byte(`{"trip":"a"` + "\n" + `{"trip":"b","end":true}` + "\n"))
	f.Add([]byte(`{"trip":"` + strings.Repeat("x", 2000) + `","end":true}` + "\n"))
	f.Add([]byte{0xff, 0xfe, 0x00, 0x01})

	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusNotFound:              true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusTooManyRequests:       true,
		http.StatusServiceUnavailable:    true,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest(http.MethodPost, "/ingest?region=beijing", bytes.NewReader(data))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if !allowed[rec.Code] {
			t.Fatalf("ingest answered %d outside the contract: %s", rec.Code, rec.Body.String())
		}
		var resp IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("ingest %d response is not IngestResponse JSON: %v: %q", rec.Code, err, rec.Body.String())
		}
		// Whatever the stream did, the server must still serve probes.
		hrec := httptest.NewRecorder()
		srv.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if hrec.Code != http.StatusOK {
			t.Fatalf("healthz after fuzzed ingest = %d", hrec.Code)
		}
	})
}
