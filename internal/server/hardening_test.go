package server

// Fault-injection tests for the resilience layer: every failure mode the
// server promises to contain — pipeline panics, oversized bodies,
// overload, pipeline deadlines, slow-loris clients, shutdown under load —
// is driven end to end here. docs/ROBUSTNESS.md documents the contract.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"stmaker"
	"stmaker/internal/feature"
	"stmaker/internal/geo"
	"stmaker/internal/hits"
	"stmaker/internal/sanitize"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

// panicExtractor is the injected pipeline fault: it panics while
// extracting features for any trajectory whose ID is "boom", simulating
// a library panic deep inside the summarize pipeline.
type panicExtractor struct{}

func (panicExtractor) Descriptor() feature.Descriptor {
	return feature.Descriptor{Key: "Boom", Name: "boom", Class: feature.Moving, Numeric: true}
}

func (panicExtractor) Extract(seg traj.Segment, _ *feature.Context) float64 {
	if seg.Traj != nil && seg.Traj.ID == "boom" {
		panic("boom: injected extractor failure")
	}
	return 0
}

// hardenedServer builds an isolated world, summarizer and server so each
// fault-injection test reads its own metrics registry. pre runs against
// the summarizer before training (e.g. to register the panic extractor).
func hardenedServer(t testing.TB, cfgMut func(*stmaker.Config), pre func(*stmaker.Summarizer), opts Options) (*Server, *traj.Raw) {
	t.Helper()
	city := simulate.NewCity(simulate.CityOptions{Rows: 5, Cols: 5, Seed: 71})
	checkins := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: 72})
	city.Landmarks.InferSignificance(200, checkins, hits.Options{})
	cfg := stmaker.Config{Graph: city.Graph, Landmarks: city.Landmarks}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	s, err := stmaker.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pre != nil {
		pre(s)
	}
	train := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 60, Seed: 73, FixedHour: -1, Calm: true})
	corpus := make([]*traj.Raw, 0, len(train))
	for _, tr := range train {
		corpus = append(corpus, tr.Raw)
	}
	if _, err := s.Train(corpus); err != nil {
		t.Fatal(err)
	}
	if opts.Logger == nil {
		opts.Logger = DiscardLogger()
	}
	srv, err := NewWithOptions(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	trips := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 5, Seed: 74, FixedHour: 9})
	return srv, trips[0].Raw
}

func do(srv *Server, method, path string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, body)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func summarizeBody(t testing.TB, trip *traj.Raw) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(SummarizeRequest{Trajectory: trip}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestPanicRecoveredAndProcessSurvives(t *testing.T) {
	srv, trip := hardenedServer(t, nil, func(s *stmaker.Summarizer) {
		if err := s.RegisterFeature(panicExtractor{}, nil); err != nil {
			t.Fatal(err)
		}
	}, Options{})

	bomb := &traj.Raw{ID: "boom", Object: trip.Object, Samples: trip.Samples}
	rec := do(srv, http.MethodPost, "/summarize", summarizeBody(t, bomb))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status = %d, want 500 (body %s)", rec.Code, rec.Body.String())
	}
	var resp SummarizeResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || resp.Error == "" {
		t.Errorf("500 body not a JSON error response: %v / %+v", err, resp)
	}

	// The process is still alive and the very next requests succeed.
	if rec := do(srv, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz after panic: %d", rec.Code)
	}
	if rec := do(srv, http.MethodPost, "/summarize", summarizeBody(t, trip)); rec.Code != http.StatusOK {
		t.Errorf("summarize after panic: %d (%s)", rec.Code, rec.Body.String())
	}

	snap := srv.Metrics().Snapshot()
	if got := snap.Counters[MetricHTTPPanics]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricHTTPPanics, got)
	}
	if got := snap.Counters[MetricHTTPResponses5xx]; got < 1 {
		t.Errorf("5xx counter = %d, want >= 1", got)
	}
}

func TestOversizedBodyRejected413(t *testing.T) {
	srv, _ := hardenedServer(t, nil, nil, Options{}) // default 4 MiB cap

	// A 10 MB body must be rejected without being buffered whole.
	huge := io.MultiReader(
		strings.NewReader(`{"trajectory":{"id":"`),
		strings.NewReader(strings.Repeat("a", 10<<20)),
		strings.NewReader(`"}}`),
	)
	rec := do(srv, http.MethodPost, "/summarize", huge)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	var resp SummarizeResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || resp.Error == "" {
		t.Errorf("413 body not a JSON error response: %v / %+v", err, resp)
	}
}

func TestMaxInFlightShedsWith503(t *testing.T) {
	srv, trip := hardenedServer(t, nil, nil, Options{MaxInFlight: 1})

	entered := make(chan struct{})
	release := make(chan struct{})
	srv.Handle("/slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))

	firstDone := make(chan int)
	go func() {
		rec := do(srv, http.MethodGet, "/slow", nil)
		firstDone <- rec.Code
	}()
	<-entered // the single in-flight slot is now held

	rec := do(srv, http.MethodPost, "/summarize", summarizeBody(t, trip))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity request: status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	// Infrastructure endpoints never compete for the budget.
	if rec := do(srv, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz shed under load: %d", rec.Code)
	}
	if rec := do(srv, http.MethodGet, "/metrics", nil); rec.Code != http.StatusOK {
		t.Errorf("metrics shed under load: %d", rec.Code)
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d", code)
	}
	// With the slot free again, traffic flows.
	if rec := do(srv, http.MethodPost, "/summarize", summarizeBody(t, trip)); rec.Code != http.StatusOK {
		t.Errorf("post-release summarize: %d (%s)", rec.Code, rec.Body.String())
	}
	if got := srv.Metrics().Snapshot().Counters[MetricHTTPShed]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricHTTPShed, got)
	}
}

func TestRequestDeadlineYields504(t *testing.T) {
	// A deadline the pipeline cannot possibly meet: the first
	// between-stages checkpoint aborts the request.
	srv, trip := hardenedServer(t, nil, nil, Options{RequestTimeout: time.Nanosecond})
	rec := do(srv, http.MethodPost, "/summarize", summarizeBody(t, trip))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body.String())
	}
	var resp SummarizeResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || !strings.Contains(resp.Error, "deadline") {
		t.Errorf("504 body = %+v, want deadline error", resp)
	}
}

func TestSanitizeRepairsThroughServer(t *testing.T) {
	srv, trip := hardenedServer(t, func(cfg *stmaker.Config) {
		cfg.Sanitize = &sanitize.Options{}
	}, nil, Options{})

	// Corrupt the trip: swap two timestamps and add a teleport spike —
	// input that hard-fails a strict server (see TestSummarizeEndpointErrors).
	noisy := &traj.Raw{ID: trip.ID, Object: trip.Object, Samples: append([]traj.Sample(nil), trip.Samples...)}
	i := len(noisy.Samples) / 2
	noisy.Samples[i].T, noisy.Samples[i+1].T = noisy.Samples[i+1].T, noisy.Samples[i].T
	noisy.Samples[1].Pt = geo.Destination(noisy.Samples[1].Pt, 45, 100_000)

	rec := do(srv, http.MethodPost, "/summarize", summarizeBody(t, noisy))
	if rec.Code != http.StatusOK {
		t.Fatalf("sanitizing server rejected repairable input: %d (%s)", rec.Code, rec.Body.String())
	}
	snap := srv.Metrics().Snapshot()
	if got := snap.Counters[stmaker.MetricSanitizeRepairs]; got == 0 {
		t.Errorf("%s = 0 after repair", stmaker.MetricSanitizeRepairs)
	}

	// The same corrupted trip on the strict shared server is the
	// caller's fault: 422, not 500.
	strict, _ := testServer(t)
	rec = post(t, strict, "/summarize", SummarizeRequest{Trajectory: noisy})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("strict server: status = %d, want 422 (%s)", rec.Code, rec.Body.String())
	}
}

func TestReadyzAndMethodChecks(t *testing.T) {
	srv, _ := hardenedServer(t, nil, nil, Options{})
	if rec := do(srv, http.MethodGet, "/readyz", nil); rec.Code != http.StatusOK {
		t.Errorf("readyz = %d, want 200", rec.Code)
	}
	srv.SetReady(false)
	if rec := do(srv, http.MethodGet, "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", rec.Code)
	}
	srv.SetReady(true)

	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if rec := do(srv, http.MethodPost, path, nil); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, rec.Code)
		}
	}
}

func TestStatusForError(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{stmaker.ErrNotTrained, http.StatusServiceUnavailable},
		{errors.New("partition: no 3-partition of 2 segments"), http.StatusInternalServerError},
		{fmt.Errorf("%w: calibrate failed", stmaker.ErrInvalidInput), http.StatusUnprocessableEntity},
		{fmt.Errorf("wrapped again: %w", fmt.Errorf("%w: x", stmaker.ErrInvalidInput)), http.StatusUnprocessableEntity},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusGatewayTimeout},
		{fmt.Errorf("stage: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
	}
	for _, c := range cases {
		if got := statusForError(c.err); got != c.want {
			t.Errorf("statusForError(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// serveOnLoopback starts srv.Serve on a fresh loopback listener and
// returns the base URL, the cancel that triggers the drain, and the
// channel carrying Serve's return value.
func serveOnLoopback(t *testing.T, srv *Server, ctx context.Context, opts ServeOptions) (string, chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l, opts) }()
	return "http://" + l.Addr().String(), served
}

func TestSIGTERMDrainsInFlightRequests(t *testing.T) {
	srv, _ := hardenedServer(t, nil, nil, Options{})
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.Handle("/slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		fmt.Fprintln(w, "survived the drain")
	}))

	// The same wiring cmd/stmakerd uses: SIGTERM cancels the serve
	// context, which starts the graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	base, served := serveOnLoopback(t, srv, ctx, ServeOptions{DrainTimeout: 10 * time.Second})

	inFlight := make(chan error, 1)
	var body string
	go func() {
		resp, err := http.Get(base + "/slow")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body = string(b)
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		inFlight <- err
	}()
	<-entered // request is in the handler

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The drain must flip readiness so load balancers stop routing here.
	deadline := time.After(5 * time.Second)
	for {
		if rec := do(srv, http.MethodGet, "/readyz", nil); rec.Code == http.StatusServiceUnavailable {
			break
		}
		select {
		case <-deadline:
			t.Fatal("readyz never flipped to 503 after SIGTERM")
		case <-time.After(10 * time.Millisecond):
		}
	}

	// The in-flight request is still running; let it finish and assert
	// it completed normally despite the shutdown.
	close(release)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	if !strings.Contains(body, "survived") {
		t.Errorf("in-flight body = %q", body)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// New connections are refused once the listener is down.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

func TestSlowLorisCutByReadTimeout(t *testing.T) {
	srv, _ := hardenedServer(t, nil, nil, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, served := serveOnLoopback(t, srv, ctx, ServeOptions{
		ReadHeaderTimeout: 150 * time.Millisecond,
		ReadTimeout:       300 * time.Millisecond,
		DrainTimeout:      2 * time.Second,
	})

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send an incomplete request and then trickle: a well-behaved server
	// must cut the connection instead of pinning a goroutine forever.
	if _, err := conn.Write([]byte("POST /summarize HTTP/1.1\r\nHost: loris\r\nContent-Length: 1000000\r\n\r\n{")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1024)
	start := time.Now()
	for {
		_, err = conn.Read(buf)
		if err != nil {
			break // server closed on us: the desired outcome
		}
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("connection still open 5s into a slow-loris attack")
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("connection lingered %v before the timeout cut it", elapsed)
	}

	cancel()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}
