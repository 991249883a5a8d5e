package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stmaker/internal/traj"
)

// postRaw posts a pre-encoded body, for malformed-payload cases the
// typed post helper cannot express.
func postRaw(t *testing.T, srv *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// TestBatchMatchesSingleByteForByte is the batch-endpoint equivalence
// acceptance criterion: for the same trajectory, a batch array element
// must be byte-identical to the single endpoint's response body.
func TestBatchMatchesSingleByteForByte(t *testing.T) {
	srv, trip := testServer(t)

	single := post(t, srv, "/summarize", SummarizeRequest{Trajectory: trip})
	if single.Code != http.StatusOK {
		t.Fatalf("single = %d, body %s", single.Code, single.Body.String())
	}
	want := bytes.TrimRight(single.Body.Bytes(), "\n")

	batch := post(t, srv, "/summarize/batch", BatchRequest{Items: []SummarizeRequest{
		{Trajectory: trip},
		{Trajectory: trip},
		{Trajectory: trip},
	}})
	if batch.Code != http.StatusOK {
		t.Fatalf("batch = %d, body %s", batch.Code, batch.Body.String())
	}
	if ct := batch.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("batch Content-Type = %q", ct)
	}

	// The response must be a well-formed JSON array whose raw elements
	// equal the single body. Decode to RawMessage to compare the exact
	// bytes, not a re-encoding.
	var elems []json.RawMessage
	if err := json.Unmarshal(batch.Body.Bytes(), &elems); err != nil {
		t.Fatalf("batch body is not a JSON array: %v\n%s", err, batch.Body.String())
	}
	if len(elems) != 3 {
		t.Fatalf("batch returned %d elements, want 3", len(elems))
	}
	for i, e := range elems {
		if !bytes.Equal(e, want) {
			t.Errorf("element %d differs from single response\nbatch:  %s\nsingle: %s", i, e, want)
		}
	}
}

// TestBatchPartialFailure pins the isolation contract: a malformed,
// misrouted or oversized item fails alone with an inline error while
// its neighbours succeed, and the batch itself still answers 200.
func TestBatchPartialFailure(t *testing.T) {
	srv, trip := testServer(t)

	// A structurally-valid trajectory the pipeline must reject: a single
	// sample cannot be calibrated into a route.
	tooShort := &traj.Raw{ID: "stub", Samples: trip.Samples[:1]}

	// An item over the per-item sample cap. The shared testServer uses
	// the default 40000-sample cap, so build a sparse oversized one.
	big := &traj.Raw{ID: "big", Samples: make([]traj.Sample, DefaultMaxItemSamples+1)}
	for i := range big.Samples {
		big.Samples[i] = trip.Samples[i%len(trip.Samples)]
	}

	cases := []struct {
		name    string
		item    SummarizeRequest
		errWant string // substring of the inline error
	}{
		{"missing trajectory", SummarizeRequest{}, "missing trajectory"},
		{"uncalibratable trajectory", SummarizeRequest{Trajectory: tooShort}, ""},
		{"unknown region", SummarizeRequest{Trajectory: trip, Region: "atlantis"}, "atlantis"},
		{"oversized item", SummarizeRequest{Trajectory: big}, "exceeds 40000 samples"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, srv, "/summarize/batch", BatchRequest{Items: []SummarizeRequest{
				{Trajectory: trip},
				tc.item,
				{Trajectory: trip},
			}})
			if rec.Code != http.StatusOK {
				t.Fatalf("batch = %d, want 200 (partial failure must not fail the batch); body %s",
					rec.Code, rec.Body.String())
			}
			var elems []SummarizeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &elems); err != nil {
				t.Fatalf("bad batch body: %v\n%s", err, rec.Body.String())
			}
			if len(elems) != 3 {
				t.Fatalf("batch returned %d elements, want 3", len(elems))
			}
			for _, i := range []int{0, 2} {
				if elems[i].Error != "" || elems[i].Text == "" {
					t.Errorf("healthy element %d failed: %+v", i, elems[i])
				}
			}
			if elems[1].Error == "" {
				t.Errorf("bad element succeeded: %+v", elems[1])
			}
			if tc.errWant != "" && !strings.Contains(elems[1].Error, tc.errWant) {
				t.Errorf("element error %q does not mention %q", elems[1].Error, tc.errWant)
			}
		})
	}
}

// TestBatchValidation covers the whole-batch refusals: wrong method,
// malformed body, empty batch, over-limit batch.
func TestBatchValidation(t *testing.T) {
	srv, trip := testServer(t)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/summarize/batch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET batch = %d, want 405", rec.Code)
	}

	if rec := postRaw(t, srv, "/summarize/batch", "{"); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", rec.Code)
	}
	if rec := postRaw(t, srv, "/summarize/batch", `{"items":[]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", rec.Code)
	}

	over := BatchRequest{Items: make([]SummarizeRequest, DefaultMaxBatchItems+1)}
	for i := range over.Items {
		over.Items[i] = SummarizeRequest{Trajectory: trip}
	}
	if rec := post(t, srv, "/summarize/batch", over); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-limit batch = %d, want 413", rec.Code)
	}
}

// TestBatchDefaultsApply pins that batch-level k and region act as
// per-item defaults and that item-level values win.
func TestBatchDefaultsApply(t *testing.T) {
	srv, trip := testServer(t)
	rec := post(t, srv, "/summarize/batch", BatchRequest{
		K: 2,
		Items: []SummarizeRequest{
			{Trajectory: trip},       // inherits k=2
			{Trajectory: trip, K: 3}, // keeps its own k
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d, body %s", rec.Code, rec.Body.String())
	}
	var elems []SummarizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &elems); err != nil {
		t.Fatal(err)
	}
	if got := len(elems[0].Parts); got != 2 {
		t.Errorf("default k: %d parts, want 2", got)
	}
	if got := len(elems[1].Parts); got != 3 {
		t.Errorf("item k: %d parts, want 3", got)
	}
}

// TestMixedTrafficUnderReload is the sustained-serving race test:
// single requests, batches and live model reloads all in flight at
// once, with zero failed requests and zero failed batch items. Run
// with -race this also proves the batch worker pool shares the model
// cell and metrics registry safely.
func TestMixedTrafficUnderReload(t *testing.T) {
	s, corpus, trip := reloadWorld(t)
	srv := reloadServer(t, s, func() error { _, err := s.Train(corpus); return err }, Options{EnableAdmin: true})
	v0 := s.Model().Version()

	const workers, perWorker, batchSize = 6, 15, 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w%2 == 0 {
					rec := post(t, srv, "/summarize", SummarizeRequest{Trajectory: trip})
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("single: %d %s", rec.Code, rec.Body.String())
						return
					}
					continue
				}
				items := make([]SummarizeRequest, batchSize)
				for j := range items {
					items[j] = SummarizeRequest{Trajectory: trip}
				}
				rec := post(t, srv, "/summarize/batch", BatchRequest{Items: items})
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("batch: %d %s", rec.Code, rec.Body.String())
					return
				}
				var elems []SummarizeResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &elems); err != nil {
					errs <- fmt.Sprintf("batch body: %v", err)
					return
				}
				for _, e := range elems {
					if e.Error != "" {
						errs <- fmt.Sprintf("batch item: %s", e.Error)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		triggerReload(t, srv)
		select {
		case <-done:
			close(errs)
			for msg := range errs {
				t.Fatalf("request failed during reload: %s", msg)
			}
			waitFor(t, "reload slot release", reloadIdle(srv))
			if s.Model().Version() <= v0 {
				t.Error("no reload completed during the test")
			}
			return
		case <-time.After(time.Millisecond):
		}
	}
}
