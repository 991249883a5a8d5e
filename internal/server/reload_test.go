package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stmaker"
	"stmaker/internal/registry"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

// reloadWorld builds a private trained summarizer — the shared testServer
// must not be retrained under other tests' feet — plus its training
// corpus and a serve-time trip.
func reloadWorld(t *testing.T) (*stmaker.Summarizer, []*traj.Raw, *traj.Raw) {
	t.Helper()
	city := simulate.NewCity(simulate.CityOptions{Rows: 6, Cols: 6, Seed: 21})
	s, err := stmaker.New(stmaker.Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	fleet := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 60, Seed: 22, FixedHour: -1, Calm: true})
	corpus := make([]*traj.Raw, 0, len(fleet))
	for _, tr := range fleet {
		corpus = append(corpus, tr.Raw)
	}
	if _, err := s.Train(corpus); err != nil {
		t.Fatal(err)
	}
	trip := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 1, Seed: 23, FixedHour: 9})[0].Raw
	return s, corpus, trip
}

// reloadServer builds a server over a registry of one whose reload
// source is source — the shape stmakerd's single-region mode serves.
func reloadServer(t *testing.T, s *stmaker.Summarizer, source func() error, opts Options) *Server {
	t.Helper()
	opts.Logger = DiscardLogger()
	reg := registry.NewStatic(registry.DefaultRegionName, s, source, registry.Options{Logger: opts.Logger})
	srv, err := NewMultiRegion(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// triggerReload starts a reload of the sole region, as SIGHUP does, and
// reports whether one was started.
func triggerReload(t *testing.T, srv *Server) bool {
	t.Helper()
	started, err := srv.reg.TriggerReload(registry.DefaultRegionName, "test")
	if err != nil {
		t.Fatal(err)
	}
	return started
}

// reloadIdle reports whether no reload of the sole region is in flight.
func reloadIdle(srv *Server) func() bool {
	return func() bool { return !srv.reg.Reloading(registry.DefaultRegionName) }
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAdminReloadEndpoint(t *testing.T) {
	s, corpus, _ := reloadWorld(t)
	srv := reloadServer(t, s, func() error { _, err := s.Train(corpus); return err }, Options{EnableAdmin: true})
	v0 := s.Model().Version()

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/reload", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /admin/reload = %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /admin/reload = %d, body %s", rec.Code, rec.Body.String())
	}
	waitFor(t, "model version bump", func() bool { return s.Model().Version() > v0 })
	waitFor(t, "reload slot release", reloadIdle(srv))

	// Naming the sole region explicitly is the same reload.
	v1 := s.Model().Version()
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload?region="+registry.DefaultRegionName, nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /admin/reload?region=%s = %d, body %s", registry.DefaultRegionName, rec.Code, rec.Body.String())
	}
	waitFor(t, "model version bump", func() bool { return s.Model().Version() > v1 })
	waitFor(t, "reload slot release", reloadIdle(srv))

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload?region=atlantis", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("POST /admin/reload?region=atlantis = %d, want 404", rec.Code)
	}
}

func TestAdminReloadNotMountedByDefault(t *testing.T) {
	s, corpus, _ := reloadWorld(t)
	srv := reloadServer(t, s, func() error { _, err := s.Train(corpus); return err }, Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("POST /admin/reload without EnableAdmin = %d, want 404", rec.Code)
	}
}

func TestAdminReloadWithoutRetrainSource(t *testing.T) {
	s, _, _ := reloadWorld(t)
	srv, err := NewWithOptions(s, Options{Logger: DiscardLogger(), EnableAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	if started, err := srv.reg.TriggerReload(registry.DefaultRegionName, "test"); started || !errors.Is(err, registry.ErrNoReloadSource) {
		t.Errorf("TriggerReload without a reload source = %v, %v; want ErrNoReloadSource", started, err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Errorf("POST /admin/reload without retrain source = %d, want 501", rec.Code)
	}
}

// TestReloadSingleFlight pins that concurrent reload triggers collapse
// into one rebuild: the second trigger is dropped, and the admin
// endpoint reports the conflict.
func TestReloadSingleFlight(t *testing.T) {
	s, _, _ := reloadWorld(t)
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	srv := reloadServer(t, s, func() error {
		once.Do(func() { close(started) })
		<-block
		return nil
	}, Options{EnableAdmin: true})
	if !triggerReload(t, srv) {
		t.Fatal("first trigger did not start a reload")
	}
	<-started
	if triggerReload(t, srv) {
		t.Error("second trigger started a concurrent reload")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusConflict {
		t.Errorf("POST /admin/reload during reload = %d, want 409", rec.Code)
	}
	close(block)
	waitFor(t, "reload slot release", reloadIdle(srv))
}

// TestReloadFailureKeepsServing pins the failure contract: a rebuild
// error is counted and logged but the previous model keeps serving,
// version unchanged.
func TestReloadFailureKeepsServing(t *testing.T) {
	s, _, trip := reloadWorld(t)
	srv := reloadServer(t, s, func() error { return errors.New("corpus store offline") }, Options{EnableAdmin: true})
	v0 := s.Model().Version()
	if !triggerReload(t, srv) {
		t.Fatal("trigger did not start a reload")
	}
	failures := srv.mx.Counter(registry.MetricRegionLoadFailures)
	waitFor(t, "failure counted", func() bool { return failures.Value() == 1 })
	if v := s.Model().Version(); v != v0 {
		t.Errorf("failed reload changed model version %d -> %d", v0, v)
	}
	rec := post(t, srv, "/summarize", SummarizeRequest{Trajectory: trip})
	if rec.Code != http.StatusOK {
		t.Errorf("summarize after failed reload = %d, body %s", rec.Code, rec.Body.String())
	}
}

// TestReloadUnderConcurrentLoad is the hot-swap acceptance test: model
// reloads fire repeatedly while summarize traffic is in flight, and not
// a single request may fail or observe a partially-swapped model.
func TestReloadUnderConcurrentLoad(t *testing.T) {
	s, corpus, trip := reloadWorld(t)
	srv := reloadServer(t, s, func() error { _, err := s.Train(corpus); return err }, Options{EnableAdmin: true})
	v0 := s.Model().Version()

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := post(t, srv, "/summarize", SummarizeRequest{Trajectory: trip})
				if rec.Code != http.StatusOK {
					errs <- rec.Body.String()
					return
				}
			}
		}()
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
