package registry

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stmaker"
	"stmaker/internal/geo"
	"stmaker/internal/hits"
	"stmaker/internal/landmark"
	"stmaker/internal/metrics"
	"stmaker/internal/modelio"
	"stmaker/internal/roadnet"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
	"stmaker/internal/worldio"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func sleepMillis(n int) { time.Sleep(time.Duration(n) * time.Millisecond) }

// region is a generated test region: its on-disk directory plus a trip
// inside it and the summary text the training-time summarizer produced
// for that trip — the ground truth a registry-served summarizer must
// reproduce byte for byte.
type region struct {
	name        string
	trip        *traj.Raw
	wantSummary string
}

// originBeijing and originShanghai anchor the two test cities far
// enough apart that their bounding boxes are disjoint and spatial
// routing is unambiguous.
var (
	originBeijing  = geo.Point{Lat: 39.80, Lng: 116.25}
	originShanghai = geo.Point{Lat: 31.10, Lng: 121.20}
)

// buildRegion trains a small city at the given origin — with HMM map
// matching when hmm is set, so its model carries a routing overlay — and
// lays its world + model down in dir/<name>/ in the -model-dir layout,
// with a region.json carrying the city's bounding box.
func buildRegion(t testing.TB, dir, name string, origin geo.Point, seed int64, hmm bool) region {
	t.Helper()
	city := simulate.NewCity(simulate.CityOptions{
		Rows: 6, Cols: 6, BlockMeters: 500, Origin: origin, Seed: seed,
	})
	checkins := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: seed + 1})
	city.Landmarks.InferSignificance(200, checkins, hits.Options{})
	s, err := stmaker.New(stmaker.Config{Graph: city.Graph, Landmarks: city.Landmarks, UseHMMMatching: hmm})
	if err != nil {
		t.Fatal(err)
	}
	train := simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: 80, Seed: seed + 2, FixedHour: -1, Calm: true,
	})
	corpus := make([]*traj.Raw, 0, len(train))
	for _, tr := range train {
		corpus = append(corpus, tr.Raw)
	}
	if _, err := s.Train(corpus); err != nil {
		t.Fatal(err)
	}

	sub := filepath.Join(dir, name)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	wf, err := os.Create(filepath.Join(sub, "world.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := worldio.SaveWorld(wf, city.Graph, city.Landmarks); err != nil {
		t.Fatal(err)
	}
	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Create(filepath.Join(sub, "model.stm"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveModel(mf); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}

	// The manifest's bbox is the landmark extent plus a margin, so every
	// trip sample of this city routes here and nowhere else.
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
		t.Fatal(err)
	}

	trips := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 5, Seed: seed + 3, FixedHour: 9})
	trip := trips[0].Raw
	sum, err := s.Summarize(trip)
	if err != nil {
		t.Fatal(err)
	}
	return region{name: name, trip: trip, wantSummary: sum.Text}
}

// twoRegionDir lays out a -model-dir with two disjoint cities. The
// result is cached per test binary: training two cities is the
// expensive part of every test here.
var (
	twoOnce    sync.Once
	twoDir     string
	twoRegions []region
	twoErr     error
)

func twoRegionDir(t testing.TB) (string, []region) {
	t.Helper()
	twoOnce.Do(func() {
		dir, err := os.MkdirTemp("", "registry-test-*")
		if err != nil {
			twoErr = err
			return
		}
		twoDir = dir
		twoRegions = []region{
			buildRegion(t, dir, "beijing", originBeijing, 101, false),
			buildRegion(t, dir, "shanghai", originShanghai, 202, false),
		}
	})
	if twoErr != nil {
		t.Fatal(twoErr)
	}
	return twoDir, twoRegions
}

func TestMain(m *testing.M) {
	code := m.Run()
	if twoDir != "" {
		os.RemoveAll(twoDir)
	}
	os.Exit(code)
}

func testOptions() Options {
	return Options{Logger: discardLogger(), Metrics: metrics.NewRegistry()}
}

// TestOpenRoutesPerRegion is the multi-region acceptance test: one
// registry over a -model-dir of two cities resolves each region key to
// a model that reproduces that region's training-time summaries — the
// two regions produce different summaries for their own trips, proving
// requests hit the right model.
func TestOpenRoutesPerRegion(t *testing.T) {
	dir, regions := twoRegionDir(t)
	r, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "beijing" || got[1] != "shanghai" {
		t.Fatalf("Names() = %v, want [beijing shanghai]", got)
	}
	if r.Static() {
		t.Error("Static() = true for a -model-dir registry")
	}
	if !r.SeparateMetrics() {
		t.Error("SeparateMetrics() = false for a -model-dir registry")
	}
	if r.DefaultRegion() != "" {
		t.Errorf("DefaultRegion() = %q, want empty for two regions", r.DefaultRegion())
	}
	if r.ReadyCount() != 0 {
		t.Errorf("ReadyCount() = %d before any load, want 0", r.ReadyCount())
	}

	texts := make(map[string]string)
	for _, reg := range regions {
		s, err := r.Summarizer(reg.name)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Summarize(reg.trip)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Text != reg.wantSummary {
			t.Errorf("region %s summary diverged from training-time summary:\n got %q\nwant %q",
				reg.name, sum.Text, reg.wantSummary)
		}
		texts[reg.name] = sum.Text
	}
	if texts["beijing"] == texts["shanghai"] {
		t.Error("both regions produced the same summary — routing is not region-specific")
	}
	if r.ReadyCount() != 2 {
		t.Errorf("ReadyCount() = %d after loading both, want 2", r.ReadyCount())
	}
}

// TestResolveSpatial routes by geometry: each region's own trip starts
// inside its bounding box and must resolve to it.
func TestResolveSpatial(t *testing.T) {
	dir, regions := twoRegionDir(t)
	r, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range regions {
		name, ok := r.Resolve(reg.trip.Samples[0].Pt)
		if !ok || name != reg.name {
			t.Errorf("Resolve(%v) = %q, %v; want %q", reg.trip.Samples[0].Pt, name, ok, reg.name)
		}
	}
	if name, ok := r.Resolve(geo.Point{Lat: 0, Lng: 0}); ok {
		t.Errorf("Resolve(mid-ocean) = %q, want no region", name)
	}
}

// TestResolveOverlappingBoxes pins Resolve's rule where boxes overlap:
// the containing box whose centroid is nearest wins, a tie goes to the
// earlier name, and boxless regions never match.
func TestResolveOverlappingBoxes(t *testing.T) {
	box := func(minLat, minLng, maxLat, maxLng float64) *modelio.BBox {
		return &modelio.BBox{MinLat: minLat, MinLng: minLng, MaxLat: maxLat, MaxLng: maxLng}
	}
	r := &Registry{cells: map[string]*cell{
		"a":      {bbox: box(0, 0, 2, 2)}, // centroid (1, 1)
		"b":      {bbox: box(0, 0, 2, 2)}, // same box as a
		"c":      {bbox: box(1, 1, 3, 3)}, // centroid (2, 2)
		"nobbox": {},
	}, names: []string{"a", "b", "c", "nobbox"}}
	for _, tc := range []struct {
		p    geo.Point
		want string
		ok   bool
	}{
		{geo.Point{Lat: 1.2, Lng: 1.2}, "a", true}, // a and b tie, c is farther
		{geo.Point{Lat: 1.9, Lng: 1.9}, "c", true}, // nearer c's centroid
		{geo.Point{Lat: 2.5, Lng: 2.5}, "c", true},
		{geo.Point{Lat: 4, Lng: 4}, "", false},
	} {
		if got, ok := r.Resolve(tc.p); got != tc.want || ok != tc.ok {
			t.Errorf("Resolve(%v) = %q, %v; want %q, %v", tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestUnknownRegion(t *testing.T) {
	dir, _ := twoRegionDir(t)
	opts := testOptions()
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Summarizer("atlantis"); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("Summarizer(atlantis) err = %v, want ErrUnknownRegion", err)
	}
	if got := opts.Metrics.Counter(MetricUnknownRegionRequests).Value(); got != 1 {
		t.Errorf("unknown-region counter = %d, want 1", got)
	}
}

// TestLoadErrorClasses pins the error taxonomy the server's status map
// depends on: missing model file vs corrupt model file vs missing
// world, all on known regions.
func TestLoadErrorClasses(t *testing.T) {
	dir := t.TempDir()
	src, regions := twoRegionDir(t)
	// A region with a world but no model at all.
	copyRegion(t, src, dir, regions[0].name, "nomodel")
	if err := os.Remove(filepath.Join(dir, "nomodel", "model.stm")); err != nil {
		t.Fatal(err)
	}
	// A region whose model file is garbage.
	copyRegion(t, src, dir, regions[0].name, "corrupt")
	if err := os.WriteFile(filepath.Join(dir, "corrupt", "model.stm"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A region whose world file is unreadable garbage.
	copyRegion(t, src, dir, regions[0].name, "badworld")
	if err := os.WriteFile(filepath.Join(dir, "badworld", "world.json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		region  string
		wantErr error
	}{
		{"nomodel", stmaker.ErrModelNotFound},
		{"corrupt", stmaker.ErrInvalidModel},
		{"badworld", ErrRegionUnavailable},
	} {
		if _, err := r.Summarizer(tc.region); !errors.Is(err, tc.wantErr) {
			t.Errorf("Summarizer(%s) err = %v, want %v", tc.region, err, tc.wantErr)
		}
	}
}

// copyRegion clones a region directory under a new name, rewriting the
// manifest's region field to match.
func copyRegion(t testing.TB, srcDir, dstDir, srcName, dstName string) {
	t.Helper()
	sub := filepath.Join(dstDir, dstName)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"world.json", "model.stm"} {
		data, err := os.ReadFile(filepath.Join(srcDir, srcName, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The copy keeps no bbox: these synthetic regions must not shadow the
	// originals in spatial routing.
	manifest := fmt.Sprintf(`{"region":%q}`, dstName)
	if err := os.WriteFile(filepath.Join(sub, "region.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionAndColdReload is the budget acceptance test: with a
// budget that fits only one region, loading the second evicts the
// first, and re-loading the evicted region cold from disk reproduces
// its summaries byte-identically.
func TestEvictionAndColdReload(t *testing.T) {
	dir, regions := twoRegionDir(t)
	size := regionBytes(t, dir, regions[0].name)
	if s2 := regionBytes(t, dir, regions[1].name); s2 > size {
		size = s2
	}
	opts := testOptions()
	// Budget: one region fits, two do not.
	opts.MaxBytes = size + size/2
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	s0, err := r.Summarizer(regions[0].name)
	if err != nil {
		t.Fatal(err)
	}
	first0, err := s0.Summarize(regions[0].trip)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Loaded(regions[0].name) {
		t.Fatal("region 0 not loaded after use")
	}

	// Loading region 1 must push region 0 out.
	if _, err := r.Summarizer(regions[1].name); err != nil {
		t.Fatal(err)
	}
	if r.Loaded(regions[0].name) {
		t.Error("region 0 still loaded past the budget")
	}
	if !r.Loaded(regions[1].name) {
		t.Error("region 1 not loaded")
	}

	// The summarizer resolved before the eviction keeps serving: an
	// in-flight request never observes its model vanishing.
	if _, err := s0.Summarize(regions[0].trip); err != nil {
		t.Errorf("evicted-but-held summarizer failed: %v", err)
	}

	// Cold re-load round trip: the evicted region loads again from disk
	// and its summaries are byte-identical to the pre-eviction ones.
	s0again, err := r.Summarizer(regions[0].name)
	if err != nil {
		t.Fatal(err)
	}
	if s0again == s0 {
		t.Error("expected a fresh summarizer after eviction, got the old pointer")
	}
	again, err := s0again.Summarize(regions[0].trip)
	if err != nil {
		t.Fatal(err)
	}
	if again.Text != first0.Text {
		t.Errorf("cold re-load summary diverged:\n got %q\nwant %q", again.Text, first0.Text)
	}
	if r.Loaded(regions[1].name) && r.Loaded(regions[0].name) {
		t.Error("both regions loaded past the budget after round trip")
	}
	evicted := 0
	for _, snap := range r.RegionSnapshots() {
		evicted += int(snap.Counters[MetricRegionEvictions])
	}
	if evicted < 2 {
		t.Errorf("eviction counters sum to %d, want at least 2", evicted)
	}
}

// TestRegionOverlayBytesGauge pins region_overlay_bytes to the overlay
// of the model a region is serving: its resident size after a load and
// after each reload, whatever the new model carries, and 0 once the
// region is evicted.
func TestRegionOverlayBytesGauge(t *testing.T) {
	dir := t.TempDir()
	regions := []region{
		buildRegion(t, dir, "beijing", originBeijing, 101, true),
		buildRegion(t, dir, "shanghai", originShanghai, 202, true),
	}
	opts := testOptions()
	opts.NewSummarizer = func(g *roadnet.Graph, lms *landmark.Set, mx *metrics.Registry) (*stmaker.Summarizer, error) {
		return stmaker.New(stmaker.Config{Graph: g, Landmarks: lms, Metrics: mx, UseHMMMatching: true})
	}
	// The budget is soft for one region, so every load evicts the other.
	opts.MaxBytes = 1
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	name := regions[0].name
	gauge := r.RegionMetrics(name).Counter(MetricRegionOverlayBytes)
	overlayBytes := func(name string) int64 {
		t.Helper()
		s, err := r.Summarizer(name)
		if err != nil {
			t.Fatal(err)
		}
		o := s.Model().RoutingOverlay()
		if o == nil {
			return 0
		}
		return o.MemoryBytes()
	}
	reload := func() {
		t.Helper()
		if _, err := r.TriggerReload(name, "test"); err != nil {
			t.Fatal(err)
		}
		waitForReloadIdle(t, r, name)
	}

	want := overlayBytes(name)
	if want == 0 {
		t.Fatal("HMM-trained region model carries no overlay")
	}
	if got := gauge.Value(); got != want {
		t.Fatalf("after load: %s = %d, want %d", MetricRegionOverlayBytes, got, want)
	}

	// Reload the same knowledge without its overlay, then with it again.
	modelPath := filepath.Join(dir, name, "model.stm")
	withOverlay, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := modelio.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	data.Overlay = nil
	bare, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modelio.Write(bare, data); err != nil {
		t.Fatal(err)
	}
	if err := bare.Close(); err != nil {
		t.Fatal(err)
	}
	reload()
	if got := gauge.Value(); got != 0 {
		t.Errorf("after reload without overlay: %s = %d, want 0", MetricRegionOverlayBytes, got)
	}
	if err := os.WriteFile(modelPath, withOverlay, 0o644); err != nil {
		t.Fatal(err)
	}
	reload()
	if got, want := gauge.Value(), overlayBytes(name); got != want || got == 0 {
		t.Errorf("after reload with overlay: %s = %d, want %d", MetricRegionOverlayBytes, got, want)
	}

	// Loading the other region evicts this one.
	other := overlayBytes(regions[1].name)
	if r.Loaded(name) {
		t.Fatal("region still loaded past the budget")
	}
	if got := gauge.Value(); got != 0 {
		t.Errorf("after eviction: %s = %d, want 0", MetricRegionOverlayBytes, got)
	}
	if got := r.RegionMetrics(regions[1].name).Counter(MetricRegionOverlayBytes).Value(); got != other || got == 0 {
		t.Errorf("loaded region: %s = %d, want %d", MetricRegionOverlayBytes, got, other)
	}
}

func regionBytes(t testing.TB, dir, name string) int64 {
	t.Helper()
	var total int64
	for _, f := range []string{"world.json", "model.stm"} {
		fi, err := os.Stat(filepath.Join(dir, name, f))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestConcurrentSummarizeAndReload exercises the acceptance scenario
// under -race: sustained summarize traffic on both regions while one
// region's model is reloaded — zero failures anywhere, on the reloading
// region and on the other one.
func TestConcurrentSummarizeAndReload(t *testing.T) {
	dir, regions := twoRegionDir(t)
	r, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Warm both regions so the loop below measures serving, not loading.
	for _, reg := range regions {
		if _, err := r.Summarizer(reg.name); err != nil {
			t.Fatal(err)
		}
	}

	const workers, iters = 4, 15
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(regions)*iters+1)
	for w := 0; w < workers; w++ {
		for _, reg := range regions {
			wg.Add(1)
			go func(reg region) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					s, err := r.Summarizer(reg.name)
					if err != nil {
						errs <- fmt.Errorf("region %s resolve: %w", reg.name, err)
						return
					}
					sum, err := s.Summarize(reg.trip)
					if err != nil {
						errs <- fmt.Errorf("region %s summarize: %w", reg.name, err)
						return
					}
					if sum.Text != reg.wantSummary {
						errs <- fmt.Errorf("region %s summary changed under reload", reg.name)
						return
					}
				}
			}(reg)
		}
	}
	// Hammer reloads of region 0 while traffic flows on both.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := r.TriggerReload(regions[0].name, "test"); err != nil {
				errs <- fmt.Errorf("reload: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Reloads publish the same model file, so summaries stay identical;
	// at least one must have completed and bumped the swap counter.
	waitForReloadIdle(t, r, regions[0].name)
	s, err := r.Summarizer(regions[0].name)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Counter(stmaker.MetricModelSwaps).Value(); got < 2 {
		t.Errorf("model_swaps_total = %d after reloads, want >= 2", got)
	}
}

func waitForReloadIdle(t testing.TB, r *Registry, name string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if !r.Reloading(name) {
			return
		}
		sleepMillis(5)
	}
	t.Fatal("reload never finished")
}

// TestStaticRegistry covers the single-region wrapper: readiness tracks
// the summarizer's trained state, and the cell is never evictable.
func TestStaticRegistry(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 4, Cols: 4, Seed: 9})
	s, err := stmaker.New(stmaker.Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	r := NewStatic(DefaultRegionName, s, nil, testOptions())
	if !r.Static() {
		t.Error("NewStatic registry does not report Static")
	}
	if r.DefaultRegion() != DefaultRegionName {
		t.Errorf("DefaultRegion() = %q", r.DefaultRegion())
	}
	if r.ReadyCount() != 0 {
		t.Error("untrained static registry claims ready")
	}
	got, err := r.Summarizer(DefaultRegionName)
	if err != nil || got != s {
		t.Fatalf("Summarizer() = %v, %v; want the wrapped summarizer", got, err)
	}
	if _, err := r.TriggerReload(DefaultRegionName, "test"); !errors.Is(err, ErrNoReloadSource) {
		t.Errorf("static cell without a source: reload err = %v, want ErrNoReloadSource", err)
	}
}

// TestStaticReloadSource covers the SIGHUP path of a registry of one:
// ReloadLoaded runs the cell's reload source in the background, a
// successful source publishes a new model, and a failing one is counted
// in the flat registry while the previous model keeps serving.
func TestStaticReloadSource(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 5, Cols: 5, Seed: 11})
	s, err := stmaker.New(stmaker.Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	fleet := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 30, Seed: 12, FixedHour: -1, Calm: true})
	corpus := make([]*traj.Raw, 0, len(fleet))
	for _, tr := range fleet {
		corpus = append(corpus, tr.Raw)
	}
	if _, err := s.Train(corpus); err != nil {
		t.Fatal(err)
	}
	var fail atomic.Bool
	r := NewStatic(DefaultRegionName, s, func() error {
		if fail.Load() {
			return errors.New("corpus store offline")
		}
		_, err := s.Train(corpus)
		return err
	}, Options{Logger: discardLogger()})
	if r.SeparateMetrics() {
		t.Error("static registry over its summarizer's metrics reports separate metrics")
	}

	v0 := s.Model().Version()
	if n := r.ReloadLoaded("sighup"); n != 1 {
		t.Fatalf("ReloadLoaded started %d reloads, want 1", n)
	}
	waitForReloadIdle(t, r, DefaultRegionName)
	v1 := s.Model().Version()
	if v1 <= v0 {
		t.Fatalf("model version %d -> %d after reload, want a bump", v0, v1)
	}

	fail.Store(true)
	if n := r.ReloadLoaded("sighup"); n != 1 {
		t.Fatalf("ReloadLoaded started %d reloads, want 1", n)
	}
	waitForReloadIdle(t, r, DefaultRegionName)
	if got := r.Metrics().Counter(MetricRegionLoadFailures).Value(); got != 1 {
		t.Errorf("%s = %d after a failed reload, want 1", MetricRegionLoadFailures, got)
	}
	if v := s.Model().Version(); v != v1 {
		t.Errorf("failed reload changed model version %d -> %d", v1, v)
	}
}

// TestOpenRejects pins discovery-time validation.
func TestOpenRejects(t *testing.T) {
	t.Run("empty dir", func(t *testing.T) {
		if _, err := Open(t.TempDir(), testOptions()); !errors.Is(err, ErrNoRegions) {
			t.Errorf("err = %v, want ErrNoRegions", err)
		}
	})
	t.Run("manifest region mismatch", func(t *testing.T) {
		dir := t.TempDir()
		sub := filepath.Join(dir, "a")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "region.json"), []byte(`{"region":"b"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, testOptions()); err == nil {
			t.Error("manifest claiming another region accepted")
		}
	})
	t.Run("invalid dir name", func(t *testing.T) {
		dir := t.TempDir()
		sub := filepath.Join(dir, "Bad.Name")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "region.json"), []byte(`{}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, testOptions()); err == nil {
			t.Error("invalid region directory name accepted")
		}
	})
	t.Run("non-region dirs skipped", func(t *testing.T) {
		src, regions := twoRegionDir(t)
		dir := t.TempDir()
		copyRegion(t, src, dir, regions[0].name, "only")
		// A stray directory without manifest or world file is not a region.
		if err := os.MkdirAll(filepath.Join(dir, "logs"), 0o755); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Names(); len(got) != 1 || got[0] != "only" {
			t.Errorf("Names() = %v, want [only]", got)
		}
		if r.DefaultRegion() != "only" {
			t.Errorf("DefaultRegion() = %q, want the sole region", r.DefaultRegion())
		}
	})
}

// TestPreload covers the boot-time loading helpers.
func TestPreload(t *testing.T) {
	dir, regions := twoRegionDir(t)
	r, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	name, err := r.PreloadAny()
	if err != nil {
		t.Fatal(err)
	}
	if name != regions[0].name {
		t.Errorf("PreloadAny loaded %q, want first region %q", name, regions[0].name)
	}
	if r.ReadyCount() != 1 {
		t.Errorf("ReadyCount = %d after PreloadAny, want 1", r.ReadyCount())
	}
	if err := r.Preload(r.Names()); err != nil {
		t.Fatal(err)
	}
	if r.ReadyCount() != 2 {
		t.Errorf("ReadyCount = %d after Preload(all), want 2", r.ReadyCount())
	}
	if err := r.Preload([]string{"atlantis"}); !errors.Is(err, ErrUnknownRegion) {
		t.Errorf("Preload(unknown) err = %v, want ErrUnknownRegion", err)
	}
}
