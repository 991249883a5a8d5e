package stmaker

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"stmaker/internal/feature"
	"stmaker/internal/geo"
	"stmaker/internal/hits"
	"stmaker/internal/simulate"
	"stmaker/internal/summarize"
	"stmaker/internal/traj"
)

// newWorld builds a small simulated city and a summarizer trained on a
// calm corpus, shared by the integration tests.
func newWorld(t testing.TB, cfgMut func(*Config)) (*simulate.City, *Summarizer) {
	t.Helper()
	city := simulate.NewCity(simulate.CityOptions{Rows: 8, Cols: 8, BlockMeters: 500, Seed: 21})
	visits := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: 22})
	city.Landmarks.InferSignificance(200, visits, hits.Options{})

	cfg := Config{Graph: city.Graph, Landmarks: city.Landmarks}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := newWorldCorpus(city)
	stats, err := s.Train(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Calibrated < len(corpus)/2 {
		t.Fatalf("only %d/%d corpus trips calibrated", stats.Calibrated, len(corpus))
	}
	if stats.Transitions == 0 {
		t.Fatal("empty historical feature map")
	}
	return city, s
}

// newWorldCorpus is the calm training corpus newWorld trains on.
func newWorldCorpus(city *simulate.City) []*traj.Raw {
	return rawCorpus(simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: 120, Seed: 23, FixedHour: -1, Calm: true,
	}))
}

func eventfulTrip(t testing.TB, city *simulate.City, seed int64) *simulate.Trip {
	t.Helper()
	trips := simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: 40, Seed: seed, FixedHour: 8,
	})
	for _, tr := range trips {
		if len(tr.Truth) > 0 {
			return tr
		}
	}
	t.Fatal("no eventful trip generated")
	return nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil graph accepted")
	}
	city := simulate.NewCity(simulate.CityOptions{Rows: 4, Cols: 4, Seed: 1})
	if _, err := New(Config{Graph: city.Graph}); err == nil {
		t.Error("nil landmarks accepted")
	}
}

func TestSummarizeEndToEnd(t *testing.T) {
	city, s := newWorld(t, nil)
	trip := eventfulTrip(t, city, 31)
	sum, err := s.Summarize(trip.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TrajectoryID != trip.Raw.ID {
		t.Errorf("summary id = %q", sum.TrajectoryID)
	}
	if !strings.HasPrefix(sum.Text, "The car started from ") {
		t.Errorf("summary text = %q", sum.Text)
	}
	if !strings.HasSuffix(sum.Text, ".") {
		t.Errorf("summary must end with a period: %q", sum.Text)
	}
	if len(sum.Parts) == 0 {
		t.Fatal("no partitions")
	}
	// Partitions chain: each part's Dest is the next part's Source.
	for i := 1; i < len(sum.Parts); i++ {
		if sum.Parts[i-1].Dest != sum.Parts[i].Source {
			t.Fatalf("partition endpoints do not chain: %+v", sum.Parts)
		}
	}
	// The summary is dramatically smaller than the raw trajectory — the
	// paper's data-volume motivation.
	if len(sum.Text) > 40*len(trip.Raw.Samples) && len(trip.Raw.Samples) > 50 {
		t.Errorf("summary suspiciously long: %d chars for %d samples", len(sum.Text), len(trip.Raw.Samples))
	}
}

func TestSummarizeRequiresTraining(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 6, Cols: 6, Seed: 3})
	s, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	trips := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 5, Seed: 4, FixedHour: 10})
	if _, err := s.Summarize(trips[0].Raw); err != ErrNotTrained {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
}

func TestSummarizeKGranularity(t *testing.T) {
	city, s := newWorld(t, nil)
	trip := eventfulTrip(t, city, 37)
	sym, err := s.Calibrate(trip.Raw)
	if err != nil {
		t.Fatal(err)
	}
	maxK := sym.NumSegments()
	for k := 1; k <= 3 && k <= maxK; k++ {
		sum, err := s.SummarizeK(trip.Raw, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(sum.Parts) != k {
			t.Fatalf("k=%d produced %d parts", k, len(sum.Parts))
		}
	}
	// k beyond the segment count clamps instead of failing.
	sum, err := s.SummarizeK(trip.Raw, maxK+5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Parts) != maxK {
		t.Fatalf("clamped k produced %d parts, want %d", len(sum.Parts), maxK)
	}
}

func TestSummarizeInvalidTrajectory(t *testing.T) {
	_, s := newWorld(t, nil)
	bad := &traj.Raw{ID: "bad", Samples: []traj.Sample{
		{Pt: geo.Point{Lat: 39.8, Lng: 116.25}, T: time.Now()},
	}}
	if _, err := s.Summarize(bad); err == nil {
		t.Fatal("single-sample trajectory accepted")
	}
}

func TestCustomFeatureEndToEnd(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 8, Cols: 8, BlockMeters: 500, Seed: 21})
	visits := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: 22})
	city.Landmarks.InferSignificance(200, visits, hits.Options{})
	s, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterFeature(feature.NewSpeedChange(), nil); err != nil {
		t.Fatal(err) // SpeC has a default clause in the template set
	}
	if s.Registry().Len() != 7 {
		t.Fatalf("registry len = %d", s.Registry().Len())
	}
	train := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 80, Seed: 23, FixedHour: -1, Calm: true})
	corpus := make([]*traj.Raw, 0, len(train))
	for _, tr := range train {
		corpus = append(corpus, tr.Raw)
	}
	if _, err := s.Train(corpus); err != nil {
		t.Fatal(err)
	}
	// Registration after training is rejected.
	if err := s.RegisterFeature(dummyFeature{}, nil); err == nil {
		t.Fatal("post-train registration accepted")
	}
	trip := eventfulTrip(t, city, 41)
	if _, err := s.Summarize(trip.Raw); err != nil {
		t.Fatal(err)
	}
}

type dummyFeature struct{}

func (dummyFeature) Descriptor() feature.Descriptor {
	return feature.Descriptor{Key: "Dummy", Name: "dummy", Class: feature.Moving, Numeric: true}
}
func (dummyFeature) Extract(traj.Segment, *feature.Context) float64 { return 0 }

func TestEventsSurfaceInSummaries(t *testing.T) {
	city, s := newWorld(t, nil)
	trips := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 120, Seed: 53, FixedHour: 8})
	var stayTrips, stayMentioned int
	for _, tr := range trips {
		if !slices.ContainsFunc(tr.Truth, func(e simulate.Event) bool { return e.Kind == simulate.EventStay }) {
			continue
		}
		stayTrips++
		// k=3 granularity, as in the paper's presentation examples; the
		// coarse optimal partition dilutes short events over long trips.
		sum, err := s.SummarizeK(tr.Raw, 3)
		if err != nil {
			continue
		}
		if sum.MentionsFeature(feature.KeyStayPoints) {
			stayMentioned++
		}
	}
	if stayTrips == 0 {
		t.Skip("no stay trips generated")
	}
	// The summarizer should surface stays in a solid majority of trips
	// whose ground truth contains them.
	if float64(stayMentioned) < 0.5*float64(stayTrips) {
		t.Fatalf("stays mentioned in %d/%d trips", stayMentioned, stayTrips)
	}
}

func TestCalmTripsSummarizeSmoothly(t *testing.T) {
	city, s := newWorld(t, nil)
	// Calm night trips on the training distribution: most should select
	// few or no features.
	trips := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 30, Seed: 61, FixedHour: 2, Calm: true})
	var smooth, total int
	for _, tr := range trips {
		sum, err := s.Summarize(tr.Raw)
		if err != nil {
			continue
		}
		total++
		if len(FeatureKeys(sum)) <= 2 {
			smooth++
		}
	}
	if total == 0 {
		t.Fatal("no summaries produced")
	}
	if float64(smooth) < 0.5*float64(total) {
		t.Fatalf("only %d/%d calm trips were near-smooth", smooth, total)
	}
}

func TestPartitionExposed(t *testing.T) {
	city, s := newWorld(t, nil)
	trip := eventfulTrip(t, city, 71)
	sym, err := s.Calibrate(trip.Raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Partition(sym, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 2 {
		t.Fatalf("parts = %d", len(res.Parts))
	}
	opt, err := s.Partition(sym, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Energy > res.Energy+1e-9 {
		t.Fatalf("optimal energy %v worse than k=2 energy %v", opt.Energy, res.Energy)
	}
}

func TestDescribe(t *testing.T) {
	sum := &summarize.Summary{
		Text: "The car moved smoothly.",
		Parts: []summarize.PartSummary{{
			Features: []summarize.SelectedFeature{{Key: "Spe", Rate: 0.4, Value: 30}},
		}},
	}
	out := Describe(sum)
	if !strings.Contains(out, "The car moved smoothly.") || !strings.Contains(out, "Spe") {
		t.Fatalf("Describe = %q", out)
	}
}

func TestConcurrentSummarize(t *testing.T) {
	city, s := newWorld(t, nil)
	trips := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 16, Seed: 91, FixedHour: 9})
	var wg sync.WaitGroup
	errs := make(chan error, len(trips)*4)
	for round := 0; round < 4; round++ {
		for _, tr := range trips {
			wg.Add(1)
			go func(r *traj.Raw) {
				defer wg.Done()
				if _, err := s.Summarize(r); err != nil {
					errs <- err
				}
			}(tr.Raw)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSummarizeWithHMMMatching(t *testing.T) {
	city, s := newWorld(t, func(c *Config) { c.UseHMMMatching = true })
	trip := eventfulTrip(t, city, 97)
	sum, err := s.SummarizeK(trip.Raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Parts) != 2 || sum.Text == "" {
		t.Fatalf("HMM summary = %+v", sum)
	}
	// Road types must still resolve under HMM matching.
	for _, p := range sum.Parts {
		if p.RoadType == "" {
			t.Fatalf("partition lost its road type under HMM matching: %+v", p)
		}
	}
}

// TestConcurrentHMMSummarizeSharedCache hammers the one shortest-path
// cache every HMM-matching request shares, from many goroutines at once.
// Run under -race by make check; the cache counters prove it was hit.
func TestConcurrentHMMSummarizeSharedCache(t *testing.T) {
	city, s := newWorld(t, func(c *Config) { c.UseHMMMatching = true })
	trips := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 8, Seed: 93, FixedHour: 9})

	// Golden serial results: the shared cache must not change what any
	// concurrent request returns.
	golden := make([]*summarize.Summary, len(trips))
	for i, tr := range trips {
		sum, err := s.Summarize(tr.Raw)
		if err != nil {
			t.Fatal(err)
		}
		golden[i] = sum
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(trips)*4)
	diverged := make(chan string, len(trips)*4)
	for round := 0; round < 4; round++ {
		for i, tr := range trips {
			wg.Add(1)
			go func(i int, r *traj.Raw) {
				defer wg.Done()
				sum, err := s.Summarize(r)
				if err != nil {
					errs <- err
					return
				}
				if sum.Text != golden[i].Text {
					diverged <- sum.Text
				}
			}(i, tr.Raw)
		}
	}
	wg.Wait()
	close(errs)
	close(diverged)
	for err := range errs {
		t.Fatal(err)
	}
	for text := range diverged {
		t.Fatalf("concurrent summary diverged from serial result: %q", text)
	}

	snap := s.Metrics().Snapshot()
	if snap.Counters[MetricSPCacheHits] == 0 {
		t.Fatalf("shared SP cache never hit: %+v", snap.Counters)
	}
	if snap.Counters[MetricSPCacheMisses] == 0 {
		t.Fatalf("shared SP cache never missed: %+v", snap.Counters)
	}
}

func TestAccessorsAndClones(t *testing.T) {
	city, s := newWorld(t, nil)
	if !s.Trained() {
		t.Fatal("Trained should be true")
	}
	if s.Model().Popular() == nil || s.Model().FeatureMap() == nil {
		t.Fatal("trained knowledge accessors returned nil")
	}
	if s.Templates() == nil {
		t.Fatal("Templates returned nil")
	}

	trip := eventfulTrip(t, city, 63)
	base, err := s.SummarizeK(trip.Raw, 2)
	if err != nil {
		t.Fatal(err)
	}

	// WithWeights shares trained knowledge; a huge speed weight must not
	// reduce what is selected.
	boosted := s.WithWeights(feature.Weights{feature.KeySpeed: 5})
	if !boosted.Trained() {
		t.Fatal("clone lost training")
	}
	bsum, err := boosted.SummarizeK(trip.Raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bsum.MentionsFeature(feature.KeySpeed) && base.MentionsFeature(feature.KeySpeed) {
		t.Fatal("boosted weights dropped the speed feature")
	}

	// WithThreshold at an absurdly high η selects nothing.
	strict := s.WithThreshold(50)
	ssum, err := strict.SummarizeK(trip.Raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if keys := FeatureKeys(ssum); len(keys) != 0 {
		t.Fatalf("strict threshold still selected %v", keys)
	}
	// The original summarizer is unaffected by the clones.
	again, err := s.SummarizeK(trip.Raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again.Text != base.Text {
		t.Fatal("clone mutated the original summarizer")
	}
}

func TestFlattenHistoryForAblationOnSummarizer(t *testing.T) {
	_, s := newWorld(t, nil)
	before := s.Model().FeatureMap().NumEdges()
	s.FlattenHistoryForAblation()
	if s.Model().FeatureMap().NumEdges() != before {
		t.Fatal("flattening changed the edge set")
	}
	// Every transition now carries the identical regular vector.
	fm := s.Model().FeatureMap()
	edges := fm.EdgesSorted()
	if len(edges) < 2 {
		t.Skip("not enough transitions found to compare")
	}
	first := edges[0]
	for _, e := range edges[1:] {
		for j := range fm.CategoricalDims() {
			got, _ := fm.RegularAt(e[0], e[1], j)
			want, _ := fm.RegularAt(first[0], first[1], j)
			if got != want {
				t.Fatalf("flattened regulars differ at %v dim %d: %v vs %v", e, j, got, want)
			}
		}
	}
}

func TestTrainEmptyAndHopelessCorpus(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 6, Cols: 6, Seed: 3})
	s, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(nil); err == nil {
		t.Error("empty corpus accepted")
	}
	// A corpus of structurally invalid trajectories is all skipped.
	bad := []*traj.Raw{{ID: "x"}, {ID: "y"}}
	stats, err := s.Train(bad)
	if err == nil {
		t.Error("hopeless corpus accepted")
	}
	if stats.Skipped != 2 || stats.Calibrated != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestTrainParallelMatchesSerial proves the parallel corpus calibration is
// deterministic: Train's pool is GOMAXPROCS workers, and any size learns
// exactly the same knowledge as a single worker, with identical
// summaries. Run under -race it also exercises the pool for data races.
func TestTrainParallelMatchesSerial(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 8, Cols: 8, BlockMeters: 500, Seed: 21})
	visits := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: 22})
	city.Landmarks.InferSignificance(200, visits, hits.Options{})
	train := simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: 80, Seed: 23, FixedHour: -1, Calm: true,
	})
	corpus := make([]*traj.Raw, 0, len(train))
	for _, tr := range train {
		corpus = append(corpus, tr.Raw)
	}
	trip := eventfulTrip(t, city, 24)

	summarizers := map[int]*Summarizer{}
	var serialStats TrainStats
	trainWith := func(workers int) (*Summarizer, TrainStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		s, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := s.Train(corpus)
		if err != nil {
			t.Fatal(err)
		}
		return s, stats
	}
	for _, workers := range []int{1, 4} {
		s, stats := trainWith(workers)
		if workers == 1 {
			serialStats = stats
		} else if stats != serialStats {
			t.Errorf("workers=%d stats = %+v, serial = %+v", workers, stats, serialStats)
		}
		summarizers[workers] = s
	}
	sumSerial, err := summarizers[1].SummarizeK(trip.Raw, 3)
	if err != nil {
		t.Fatal(err)
	}
	sumParallel, err := summarizers[4].SummarizeK(trip.Raw, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sumSerial.Text != sumParallel.Text {
		t.Errorf("parallel training changed the summary:\nserial:   %s\nparallel: %s",
			sumSerial.Text, sumParallel.Text)
	}
}

// TestStageMetricsRecorded checks the per-stage histograms and pipeline
// counters fill in as the pipeline runs (docs/OBSERVABILITY.md documents
// the names asserted here).
func TestStageMetricsRecorded(t *testing.T) {
	city, s := newWorld(t, nil)
	snap := s.Metrics().Snapshot()
	if snap.Histograms[MetricTrain].Count != 1 {
		t.Errorf("%s count = %d, want 1", MetricTrain, snap.Histograms[MetricTrain].Count)
	}
	if snap.Counters[MetricTrainCalibrated] == 0 {
		t.Errorf("%s = 0 after Train", MetricTrainCalibrated)
	}
	calibrations := snap.Histograms[MetricStageCalibrate].Count
	if calibrations == 0 {
		t.Errorf("%s empty after Train", MetricStageCalibrate)
	}

	trip := eventfulTrip(t, city, 25)
	if _, err := s.Summarize(trip.Raw); err != nil {
		t.Fatal(err)
	}
	snap = s.Metrics().Snapshot()
	for _, name := range []string{
		MetricStageCalibrate, MetricStageExtract, MetricStagePartition,
		MetricStageSelect, MetricStageRender, MetricSummarize,
	} {
		h := snap.Histograms[name]
		if h.Count == 0 {
			t.Errorf("histogram %s not recorded", name)
		}
		if h.Sum < 0 || h.Max < h.Min {
			t.Errorf("histogram %s inconsistent: %+v", name, h)
		}
	}
	if snap.Histograms[MetricStageCalibrate].Count != calibrations+1 {
		t.Errorf("calibrate count = %d, want %d",
			snap.Histograms[MetricStageCalibrate].Count, calibrations+1)
	}
	if snap.Counters[MetricSummaries] != 1 {
		t.Errorf("%s = %d, want 1", MetricSummaries, snap.Counters[MetricSummaries])
	}

	// Errors are counted, not timed.
	if _, err := s.Summarize(&traj.Raw{ID: "bad"}); err == nil {
		t.Fatal("invalid trajectory accepted")
	}
	snap = s.Metrics().Snapshot()
	if snap.Counters[MetricSummarizeErrors] == 0 {
		t.Errorf("%s = 0 after failed Summarize", MetricSummarizeErrors)
	}
}

// FeatureKeys returns the distinct selected feature keys across all
// partitions of s, in first-appearance order. It is exported for the
// benchmarks of the external test package.
func FeatureKeys(s *summarize.Summary) []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range s.Parts {
		for _, f := range p.Features {
			if !seen[f.Key] {
				seen[f.Key] = true
				out = append(out, f.Key)
			}
		}
	}
	return out
}
