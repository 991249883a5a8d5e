package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"stmaker"
	"stmaker/internal/geo"
	"stmaker/internal/hits"
	"stmaker/internal/registry"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
	"stmaker/internal/worldio"
)

// testRegion is one generated region of the multi-region fixture: its
// key, a trip inside it and the training-time summary text for that
// trip.
type testRegion struct {
	name        string
	trip        *traj.Raw
	wantSummary string
}

var (
	multiOnce    sync.Once
	multiDir     string
	multiRegions []testRegion
	multiErr     error
)

// writeTestRegion trains a small city at origin and lays it down as
// dir/<name>/ with world, model and a bbox-bearing manifest.
func writeTestRegion(dir, name string, origin geo.Point, seed int64) (testRegion, error) {
	city := simulate.NewCity(simulate.CityOptions{
		Rows: 6, Cols: 6, BlockMeters: 500, Origin: origin, Seed: seed,
	})
	checkins := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: seed + 1})
	city.Landmarks.InferSignificance(200, checkins, hits.Options{})
	s, err := stmaker.New(stmaker.Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		return testRegion{}, err
	}
	train := simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: 80, Seed: seed + 2, FixedHour: -1, Calm: true,
	})
	corpus := make([]*traj.Raw, 0, len(train))
	for _, tr := range train {
		corpus = append(corpus, tr.Raw)
	}
	if _, err := s.Train(corpus); err != nil {
		return testRegion{}, err
	}

	sub := filepath.Join(dir, name)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return testRegion{}, err
	}
	wf, err := os.Create(filepath.Join(sub, "world.json"))
	if err != nil {
		return testRegion{}, err
	}
	if err := worldio.SaveWorld(wf, city.Graph, city.Landmarks); err != nil {
		wf.Close()
		return testRegion{}, err
	}
	if err := wf.Close(); err != nil {
		return testRegion{}, err
	}
	mf, err := os.Create(filepath.Join(sub, "model.stm"))
	if err != nil {
		return testRegion{}, err
	}
	if _, err := s.SaveModel(mf); err != nil {
		mf.Close()
		return testRegion{}, err
	}
	if err := mf.Close(); err != nil {
		return testRegion{}, err
	}
	minLat, minLng := math.Inf(1), math.Inf(1)
	maxLat, maxLng := math.Inf(-1), math.Inf(-1)
	for _, lm := range city.Landmarks.All() {
		minLat, maxLat = min(minLat, lm.Pt.Lat), max(maxLat, lm.Pt.Lat)
		minLng, maxLng = min(minLng, lm.Pt.Lng), max(maxLng, lm.Pt.Lng)
	}
	const margin = 0.02 // degrees, about 2 km
	manifest := fmt.Sprintf(
		`{"region":%q,"bbox":{"minLat":%g,"minLng":%g,"maxLat":%g,"maxLng":%g}}`,
		name, minLat-margin, minLng-margin, maxLat+margin, maxLng+margin)
	if err := os.WriteFile(filepath.Join(sub, "region.json"), []byte(manifest), 0o644); err != nil {
		return testRegion{}, err
	}

	trip := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 5, Seed: seed + 3, FixedHour: 9})[0].Raw
	sum, err := s.Summarize(trip)
	if err != nil {
		return testRegion{}, err
	}
	return testRegion{name: name, trip: trip, wantSummary: sum.Text}, nil
}

// multiRegionDir builds (once per binary) a -model-dir with two
// disjoint cities and returns it. The directory lives until the test
// binary exits; MkdirTemp under the test binary's TMPDIR is cleaned by
// the harness.
func multiRegionDir(t *testing.T) (string, []testRegion) {
	t.Helper()
	multiOnce.Do(buildMultiRegionFixture)
	if multiErr != nil {
		t.Fatal(multiErr)
	}
	return multiDir, multiRegions
}

// buildMultiRegionFixture is the multiOnce body, split out so fuzz
// targets (which hold a *testing.F, not a *testing.T) can share the
// fixture.
func buildMultiRegionFixture() {
	dir, err := os.MkdirTemp("", "server-region-test-*")
	if err != nil {
		multiErr = err
		return
	}
	multiDir = dir
	bj, err := writeTestRegion(dir, "beijing", geo.Point{Lat: 39.80, Lng: 116.25}, 301)
	if err != nil {
		multiErr = err
		return
	}
	sh, err := writeTestRegion(dir, "shanghai", geo.Point{Lat: 31.10, Lng: 121.20}, 402)
	if err != nil {
		multiErr = err
		return
	}
	multiRegions = []testRegion{bj, sh}
}

// multiServer builds a fresh multi-region server over the shared
// fixture dir — fresh, because tests mutate load state.
func multiServer(t *testing.T, opts Options) (*Server, []testRegion) {
	t.Helper()
	dir, regions := multiRegionDir(t)
	if opts.Logger == nil {
		opts.Logger = DiscardLogger()
	}
	reg, err := registry.Open(dir, registry.Options{Logger: opts.Logger})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiRegion(reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, regions
}

// TestMultiRegionRouting is the end-to-end acceptance test: one server
// over a -model-dir of two regions answers each region's requests with
// that region's model — by query key, body key and spatial routing —
// and the two regions demonstrably produce different summaries.
func TestMultiRegionRouting(t *testing.T) {
	srv, regions := multiServer(t, Options{})

	texts := make(map[string]string)
	for _, reg := range regions {
		// Explicit key in the query string.
		rec := post(t, srv, "/summarize?region="+reg.name, SummarizeRequest{Trajectory: reg.trip})
		if rec.Code != http.StatusOK {
			t.Fatalf("region %s query-key summarize = %d: %s", reg.name, rec.Code, rec.Body.String())
		}
		var resp SummarizeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Region != reg.name {
			t.Errorf("response region = %q, want %q", resp.Region, reg.name)
		}
		if resp.Text != reg.wantSummary {
			t.Errorf("region %s summary diverged from training-time summary:\n got %q\nwant %q",
				reg.name, resp.Text, reg.wantSummary)
		}
		texts[reg.name] = resp.Text

		// Explicit key in the body.
		rec = post(t, srv, "/summarize", SummarizeRequest{Trajectory: reg.trip, Region: reg.name})
		if rec.Code != http.StatusOK {
			t.Errorf("region %s body-key summarize = %d", reg.name, rec.Code)
		}

		// No key at all: spatial routing by the first sample.
		rec = post(t, srv, "/summarize", SummarizeRequest{Trajectory: reg.trip})
		if rec.Code != http.StatusOK {
			t.Fatalf("region %s spatial summarize = %d: %s", reg.name, rec.Code, rec.Body.String())
		}
		resp = SummarizeResponse{}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Region != reg.name {
			t.Errorf("spatial routing resolved %q, want %q", resp.Region, reg.name)
		}
	}
	if texts["beijing"] == texts["shanghai"] {
		t.Error("both regions returned the same summary — requests are not hitting per-region models")
	}
}

// TestMultiRegionStatusCodes pins the region error surface: 404 for an
// unknown key and for a known region whose model file is gone, 500 for
// a corrupt model file, 404 for an unroutable location.
func TestMultiRegionStatusCodes(t *testing.T) {
	srv, regions := multiServer(t, Options{})
	trip := regions[0].trip

	rec := post(t, srv, "/summarize?region=atlantis", SummarizeRequest{Trajectory: trip})
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown region = %d, want 404", rec.Code)
	}

	// An unroutable location: no region key, first sample mid-ocean.
	ocean := &traj.Raw{ID: "ocean", Samples: []traj.Sample{
		{Pt: geo.Point{Lat: 0, Lng: 0}}, {Pt: geo.Point{Lat: 0.01, Lng: 0.01}},
	}}
	rec = post(t, srv, "/summarize", SummarizeRequest{Trajectory: ocean})
	if rec.Code != http.StatusNotFound {
		t.Errorf("unroutable location = %d, want 404", rec.Code)
	}

	// A known region with its model file missing → 404; corrupt → 500.
	dir, _ := multiRegionDir(t)
	broken := t.TempDir()
	for _, name := range []string{"gone", "corrupt"} {
		sub := filepath.Join(broken, name)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		world, err := os.ReadFile(filepath.Join(dir, regions[0].name, "world.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "world.json"), world, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(broken, "corrupt", "model.stm"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(broken, registry.Options{Logger: DiscardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	bsrv, err := NewMultiRegion(reg, Options{Logger: DiscardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	rec = post(t, bsrv, "/summarize?region=gone", SummarizeRequest{Trajectory: trip})
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing model file = %d, want 404", rec.Code)
	}
	rec = post(t, bsrv, "/summarize?region=corrupt", SummarizeRequest{Trajectory: trip})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("corrupt model file = %d, want 500", rec.Code)
	}
}

// TestMultiRegionReadiness: /readyz is 503 until the first region
// loads, then 200.
func TestMultiRegionReadiness(t *testing.T) {
	srv, regions := multiServer(t, Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz before any region load = %d, want 503", rec.Code)
	}
	if rc := post(t, srv, "/summarize?region="+regions[0].name,
		SummarizeRequest{Trajectory: regions[0].trip}); rc.Code != http.StatusOK {
		t.Fatalf("summarize = %d", rc.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("readyz after region load = %d, want 200", rec.Code)
	}
}

// TestMultiRegionMetricsShape: GET /metrics carries the per-region
// snapshots under "regions" alongside the flat fleet-wide series.
func TestMultiRegionMetricsShape(t *testing.T) {
	srv, regions := multiServer(t, Options{})
	if rc := post(t, srv, "/summarize?region="+regions[0].name,
		SummarizeRequest{Trajectory: regions[0].trip}); rc.Code != http.StatusOK {
		t.Fatalf("summarize = %d", rc.Code)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Regions  map[string]struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"regions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters[registry.MetricRegionsDiscovered] != 2 {
		t.Errorf("regions_discovered = %d, want 2", snap.Counters[registry.MetricRegionsDiscovered])
	}
	if snap.Counters[registry.MetricRegionsLoaded] != 1 {
		t.Errorf("regions_loaded = %d, want 1", snap.Counters[registry.MetricRegionsLoaded])
	}
	loaded := snap.Regions[regions[0].name]
	if loaded.Counters[registry.MetricRegionLoads] != 1 {
		t.Errorf("region %s region_model_loads_total = %d, want 1",
			regions[0].name, loaded.Counters[registry.MetricRegionLoads])
	}
	if loaded.Counters[stmaker.MetricModelVersion] == 0 {
		t.Errorf("region %s model_version missing from per-region snapshot", regions[0].name)
	}
	if _, ok := snap.Regions[regions[1].name]; !ok {
		t.Errorf("unloaded region %s missing from regions map", regions[1].name)
	}
}

// TestRegionReloadUnderLoad is the zero-dropped-requests acceptance
// test at the HTTP layer: sustained traffic on region B while region A
// is reloaded via POST /admin/reload?region=A — every request on both
// regions succeeds throughout.
func TestRegionReloadUnderLoad(t *testing.T) {
	srv, regions := multiServer(t, Options{EnableAdmin: true})
	// Warm both regions.
	for _, reg := range regions {
		if rc := post(t, srv, "/summarize?region="+reg.name,
			SummarizeRequest{Trajectory: reg.trip}); rc.Code != http.StatusOK {
			t.Fatalf("warm-up summarize %s = %d", reg.name, rc.Code)
		}
	}

	const workers, iters = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(regions)*iters)
	for w := 0; w < workers; w++ {
		for _, reg := range regions {
			wg.Add(1)
			go func(reg testRegion) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					rec := post(t, srv, "/summarize?region="+reg.name, SummarizeRequest{Trajectory: reg.trip})
					if rec.Code != http.StatusOK {
						errs <- fmt.Errorf("region %s request failed during reload: %d %s",
							reg.name, rec.Code, rec.Body.String())
						return
					}
					var resp SummarizeResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						errs <- err
						return
					}
					if resp.Text != reg.wantSummary {
						errs <- fmt.Errorf("region %s summary changed during reload", reg.name)
						return
					}
				}
			}(reg)
		}
	}
	// Trigger reloads of region A while the traffic flows. 202 and 409
	// are both fine (409 = previous reload still running); anything else
	// is a failure.
	for i := 0; i < 5; i++ {
		req := httptest.NewRequest(http.MethodPost, "/admin/reload?region="+regions[0].name, nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusConflict {
			t.Errorf("admin reload = %d, want 202 or 409", rec.Code)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRegionReloadValidation pins the admin endpoint's multi-region
// parameter handling.
func TestRegionReloadValidation(t *testing.T) {
	srv, _ := multiServer(t, Options{EnableAdmin: true})
	req := httptest.NewRequest(http.MethodPost, "/admin/reload", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("reload without region = %d, want 400", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/admin/reload?region=atlantis", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("reload unknown region = %d, want 404", rec.Code)
	}
}

// oneRegionServer builds a server over a -model-dir holding a single
// region, the case a region count cannot tell apart from a registry of
// one.
func oneRegionServer(t *testing.T) (*Server, testRegion) {
	t.Helper()
	dir := t.TempDir()
	region, err := writeTestRegion(dir, "beijing", geo.Point{Lat: 39.80, Lng: 116.25}, 301)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(dir, registry.Options{Logger: DiscardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiRegion(reg, Options{Logger: DiscardLogger(), EnableAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	if rc := post(t, srv, "/summarize", SummarizeRequest{Trajectory: region.trip}); rc.Code != http.StatusOK {
		t.Fatalf("summarize = %d: %s", rc.Code, rc.Body.String())
	}
	return srv, region
}

// TestOneRegionDirReload: on a one-region -model-dir, both a reload
// naming the region and a bare reload re-read its model file.
func TestOneRegionDirReload(t *testing.T) {
	srv, region := oneRegionServer(t)
	s, err := srv.reg.Summarizer(region.name)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/admin/reload?region=" + region.name, "/admin/reload"} {
		v0 := s.Model().Version()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST %s = %d, body %s", path, rec.Code, rec.Body.String())
		}
		waitFor(t, "model version bump", func() bool { return s.Model().Version() > v0 })
		waitFor(t, "reload slot release", func() bool { return !srv.reg.Reloading(region.name) })
	}
}

// TestOneRegionDirEchoesRegion: a -model-dir registry names the region
// that answered even when it holds only one — the response shape follows
// how the registry was built, not how many regions it has — on the
// single endpoint and on every batch item.
func TestOneRegionDirEchoesRegion(t *testing.T) {
	srv, region := oneRegionServer(t)
	rec := post(t, srv, "/summarize", SummarizeRequest{Trajectory: region.trip})
	if rec.Code != http.StatusOK {
		t.Fatalf("summarize = %d: %s", rec.Code, rec.Body.String())
	}
	var resp SummarizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Region != region.name {
		t.Errorf("summarize region = %q, want %q", resp.Region, region.name)
	}

	rec = post(t, srv, "/summarize/batch", BatchRequest{Items: []SummarizeRequest{
		{Trajectory: region.trip}, {Trajectory: region.trip, Region: region.name},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", rec.Code, rec.Body.String())
	}
	var items []SummarizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("batch returned %d items, want 2", len(items))
	}
	for i, it := range items {
		if it.Error != "" || it.Region != region.name {
			t.Errorf("batch item %d: region = %q, error = %q; want region %q", i, it.Region, it.Error, region.name)
		}
	}
}

// TestOneRegionDirMetricsShape: a one-region -model-dir keeps its
// region's own registry, so GET /metrics must nest it under "regions"
// rather than drop its pipeline and model series.
func TestOneRegionDirMetricsShape(t *testing.T) {
	srv, region := oneRegionServer(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	var snap multiMetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	got, ok := snap.Regions[region.name]
	if !ok {
		t.Fatalf("regions map lacks %q: %s", region.name, rec.Body.String())
	}
	if got.Histograms[stmaker.MetricStageSelect].Count == 0 {
		t.Errorf("regions.%s lacks %s", region.name, stmaker.MetricStageSelect)
	}
	if got.Counters[stmaker.MetricModelVersion] == 0 {
		t.Errorf("regions.%s lacks %s", region.name, stmaker.MetricModelVersion)
	}
}
