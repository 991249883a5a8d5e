package stmaker

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"stmaker/internal/feature"
	"stmaker/internal/hits"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

func rawCorpus(trips []*simulate.Trip) []*traj.Raw {
	corpus := make([]*traj.Raw, 0, len(trips))
	for _, tr := range trips {
		corpus = append(corpus, tr.Raw)
	}
	return corpus
}

// summaryFingerprint renders a summary into one comparable string,
// including the numeric feature values, so two summaries compare
// bit-for-bit rather than just textually.
func summaryFingerprint(t *testing.T, s *Summarizer, trip *traj.Raw) string {
	t.Helper()
	sum, err := s.Summarize(trip)
	if err != nil {
		t.Fatal(err)
	}
	return Describe(sum)
}

// TestModelRoundTripByteIdentical is the warm-start correctness
// acceptance test: Save → Load into a fresh summarizer must serve
// byte-identical summaries, and re-saving the loaded model must
// reproduce the file byte for byte.
func TestModelRoundTripByteIdentical(t *testing.T) {
	city, s := newWorld(t, nil)
	trip := eventfulTrip(t, city, 31)
	want := summaryFingerprint(t, s, trip.Raw)

	// Greedy matching never routes, so its Train builds no ALT overlay:
	// no tables, no build time, no model_build_seconds observation.
	if s.Model().RoutingOverlay() != nil {
		t.Error("greedy Train built a routing overlay")
	}
	if got := s.Model().Stats().OverlayBuildSeconds; got != 0 {
		t.Errorf("greedy Train reports %gs of overlay build", got)
	}
	if _, ok := s.Metrics().Snapshot().Histograms[MetricModelBuild]; ok {
		t.Errorf("greedy Train observed %s", MetricModelBuild)
	}

	var file bytes.Buffer
	n, err := s.SaveModel(&file)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(file.Len()) || n == 0 {
		t.Fatalf("SaveModel reported %d bytes, wrote %d", n, file.Len())
	}
	// The overlay-present flag is the last payload byte (see the
	// internal/modelio layout); an overlay-less model writes 0 there.
	if last := file.Bytes()[file.Len()-1]; last != 0 {
		t.Errorf("greedy model file sets the overlay-present byte to %d", last)
	}

	cold, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Trained() {
		t.Fatal("fresh summarizer claims to be trained")
	}
	m, err := ReadModelFrom(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version() != s.Model().Version() {
		t.Errorf("loaded version %d, saved %d", m.Version(), s.Model().Version())
	}
	if m.NumTransitions() != s.Model().NumTransitions() {
		t.Errorf("loaded transitions %d, saved %d", m.NumTransitions(), s.Model().NumTransitions())
	}
	if err := cold.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	if !cold.Trained() {
		t.Fatal("warm-started summarizer not trained")
	}
	if got := summaryFingerprint(t, cold, trip.Raw); got != want {
		t.Errorf("warm-start summary diverged:\n got %q\nwant %q", got, want)
	}

	var file2 bytes.Buffer
	if _, err := cold.SaveModel(&file2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file.Bytes(), file2.Bytes()) {
		t.Error("save -> load -> save is not byte-identical")
	}
}

// TestRetrainFullReplace pins re-Train semantics: the new corpus fully
// replaces the old knowledge, never merges with it.
func TestRetrainFullReplace(t *testing.T) {
	city, s := newWorld(t, nil)
	small := rawCorpus(simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: 25, Seed: 77, FixedHour: -1, Calm: true,
	}))
	stats, err := s.Train(small)
	if err != nil {
		t.Fatal(err)
	}

	// A summarizer that has only ever seen the small corpus is the
	// ground truth for "replaced, not merged".
	fresh, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	freshStats, err := fresh.Train(small)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Transitions != freshStats.Transitions {
		t.Errorf("retrained transitions = %d, fresh train = %d (merge leak?)",
			stats.Transitions, freshStats.Transitions)
	}
	if got, want := len(s.Model().Popular().Sequences()), len(fresh.Model().Popular().Sequences()); got != want {
		t.Errorf("retrained popular sequences = %d, fresh train = %d", got, want)
	}

	// Byte-level proof: aside from the version counter, the retrained
	// model must serialize identically to the fresh one.
	reEncode := func(src *Summarizer) []byte {
		var buf bytes.Buffer
		if _, err := src.SaveModel(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := ReadModelFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		m.version = 0
		var out bytes.Buffer
		if _, err := m.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if !bytes.Equal(reEncode(s), reEncode(fresh)) {
		t.Error("retrained model differs from fresh-trained model on the same corpus")
	}
}

// TestConcurrentTrainAndSummarize is the hot-swap race regression test:
// repeated re-Trains run while Summarize traffic is in flight on a warm
// summarizer (and its clones), and every request must succeed against a
// complete model. Run under -race, this pins the atomic-publish design.
func TestConcurrentTrainAndSummarize(t *testing.T) {
	city, s := newWorld(t, nil)
	trip := eventfulTrip(t, city, 63)
	retrainCorpus := rawCorpus(simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: 20, Seed: 81, FixedHour: -1, Calm: true,
	}))

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stopSummarize := make(chan struct{})
	// Readers: the summarizer itself plus a clone, which shares the same
	// model cell and must observe the retrains too.
	for _, reader := range []*Summarizer{s, s.WithThreshold(0.3)} {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(r *Summarizer) {
				defer wg.Done()
				for {
					select {
					case <-stopSummarize:
						return
					default:
					}
					if _, err := r.Summarize(trip.Raw); err != nil {
						errs <- err
						return
					}
				}
			}(reader)
		}
	}
	var trainWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		trainWG.Add(1)
		go func() {
			defer trainWG.Done()
			for i := 0; i < 3; i++ {
				if _, err := s.Train(retrainCorpus); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	trainWG.Wait()
	close(stopSummarize)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent train/summarize failed: %v", err)
	}
	if got := s.Model().Version(); got < 7 {
		t.Errorf("model version = %d after 6 retrains on version 1", got)
	}
}

// TestLoadModelRejectsMismatch pins the fingerprint check, both ways: a
// stale model missing a feature the summarizer now has, and a model
// carrying a custom feature the summarizer lacks.
func TestLoadModelRejectsMismatch(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 6, Cols: 6, BlockMeters: 500, Seed: 51})
	visits := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: 52})
	city.Landmarks.InferSignificance(200, visits, hits.Options{})
	corpus := rawCorpus(simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: 40, Seed: 53, FixedHour: -1, Calm: true,
	}))
	baseCfg := Config{Graph: city.Graph, Landmarks: city.Landmarks}

	trained := func(mut func(*Summarizer) error) *Model {
		t.Helper()
		s, err := New(baseCfg)
		if err != nil {
			t.Fatal(err)
		}
		if mut != nil {
			if err := mut(s); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Train(corpus); err != nil {
			t.Fatal(err)
		}
		// Round-trip through the codec so the rejection covers models
		// loaded from disk, not just in-memory ones.
		var buf bytes.Buffer
		if _, err := s.SaveModel(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := ReadModelFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	defaultModel := trained(nil)
	customModel := trained(func(s *Summarizer) error {
		return s.RegisterFeature(feature.NewSpeedChange(), nil)
	})

	// Stale model: the summarizer has since grown a custom feature.
	s, err := New(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterFeature(feature.NewSpeedChange(), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadModel(defaultModel); !errors.Is(err, ErrModelMismatch) {
		t.Errorf("stale model load err = %v, want ErrModelMismatch", err)
	}
	if s.Trained() {
		t.Error("rejected load still published a model")
	}
	if err := s.LoadModel(customModel); err != nil {
		t.Errorf("matching custom model rejected: %v", err)
	}

	// Extra custom feature in the model, absent from the summarizer.
	s2, err := New(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadModel(customModel); !errors.Is(err, ErrModelMismatch) {
		t.Errorf("extra-feature model load err = %v, want ErrModelMismatch", err)
	}

	// Calibration parameter drift: a model calibrated with another anchor
	// radius, or another anchor spacing.
	s3, err := New(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	radiusDrift, spacingDrift := *defaultModel, *defaultModel
	radiusDrift.calibrationRadiusMeters = 120
	spacingDrift.minAnchorSpacingMeters = 40
	for name, m := range map[string]*Model{"radius": &radiusDrift, "spacing": &spacingDrift} {
		if err := s3.LoadModel(m); !errors.Is(err, ErrModelMismatch) {
			t.Errorf("%s-drift model load err = %v, want ErrModelMismatch", name, err)
		}
	}
	if s3.Trained() {
		t.Error("rejected drifted load still published a model")
	}

	// Nil model and registration-after-load guards.
	if err := s.LoadModel(nil); err == nil {
		t.Error("nil model accepted")
	}
	if err := s.RegisterFeature(dummyFeature{}, nil); err == nil {
		t.Error("RegisterFeature after LoadModel accepted")
	}
}

// TestModelVersionAndSwapMetrics pins the publish bookkeeping: versions
// increase monotonically across Train, FlattenHistoryForAblation and
// LoadModel, and the model_version / model_swaps_total metrics track
// them.
func TestModelVersionAndSwapMetrics(t *testing.T) {
	city, s := newWorld(t, nil)
	if got := s.Model().Version(); got != 1 {
		t.Fatalf("version after first train = %d, want 1", got)
	}
	small := rawCorpus(simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: 20, Seed: 91, FixedHour: -1, Calm: true,
	}))
	if _, err := s.Train(small); err != nil {
		t.Fatal(err)
	}
	if got := s.Model().Version(); got != 2 {
		t.Fatalf("version after retrain = %d, want 2", got)
	}
	var buf bytes.Buffer
	if _, err := s.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	s.FlattenHistoryForAblation()
	if got := s.Model().Version(); got != 3 {
		t.Fatalf("version after flatten = %d, want 3", got)
	}
	// Re-loading the version-2 snapshot cannot move the version backwards.
	m, err := ReadModelFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	if got := s.Model().Version(); got != 4 {
		t.Fatalf("version after re-load = %d, want 4", got)
	}
	if got := s.Metrics().Counter(MetricModelSwaps).Value(); got != 4 {
		t.Errorf("model_swaps_total = %d, want 4", got)
	}
	if got := s.Metrics().Counter(MetricModelVersion).Value(); got != 4 { //nolint:stmaker/metricnames -- reading the model_version gauge
		t.Errorf("model_version = %d, want 4", got)
	}

	// A fresh summarizer warm-started from a saved model keeps the saved
	// version: monitoring can tell which knowledge generation is serving.
	cold, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	if got := cold.Model().Version(); got != 2 {
		t.Errorf("warm-start version = %d, want saved 2", got)
	}
}

func TestSaveModelRequiresModel(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 4, Cols: 4, Seed: 5})
	s, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.SaveModel(&buf); !errors.Is(err, ErrNotTrained) {
		t.Errorf("SaveModel untrained err = %v, want ErrNotTrained", err)
	}
	dir := t.TempDir()
	if err := s.SaveModelFile(filepath.Join(dir, "model.stm")); !errors.Is(err, ErrNotTrained) {
		t.Errorf("SaveModelFile untrained err = %v, want ErrNotTrained", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("failed SaveModelFile left %d files behind (err %v)", len(entries), err)
	}
}

// TestLoadModelFileClassification pins the error taxonomy of the
// on-disk load path: the server maps "no such model" to 404 and
// "model present but unusable" to a 500-class response, so the two
// must stay distinguishable sentinel errors.
func TestLoadModelFileClassification(t *testing.T) {
	city, s := newWorld(t, nil)
	dir := t.TempDir()

	okPath := filepath.Join(dir, "model.stm")
	var buf bytes.Buffer
	if _, err := s.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveModelFile(okPath); err != nil {
		t.Fatal(err)
	}
	if saved, err := os.ReadFile(okPath); err != nil || !bytes.Equal(saved, buf.Bytes()) {
		t.Fatalf("SaveModelFile wrote %d bytes (err %v), want SaveModel's %d", len(saved), err, buf.Len())
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("SaveModelFile left %d files in the directory (err %v), want only the model", len(entries), err)
	}
	corruptPath := filepath.Join(dir, "corrupt.stm")
	if err := os.WriteFile(corruptPath, []byte("not a model file"), 0o644); err != nil {
		t.Fatal(err)
	}
	truncatedPath := filepath.Join(dir, "truncated.stm")
	if err := os.WriteFile(truncatedPath, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name    string
		path    string
		wantErr error // nil means the load must succeed
	}{
		{"valid model", okPath, nil},
		{"missing file", filepath.Join(dir, "nope.stm"), ErrModelNotFound},
		{"corrupt file", corruptPath, ErrInvalidModel},
		{"truncated file", truncatedPath, ErrInvalidModel},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m, err := LoadModelFile(tc.path)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("LoadModelFile(%q) = %v, want success", tc.path, err)
				}
				if m.NumTransitions() != s.Model().NumTransitions() {
					t.Errorf("loaded transitions %d, want %d", m.NumTransitions(), s.Model().NumTransitions())
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("LoadModelFile(%q) err = %v, want %v", tc.path, err, tc.wantErr)
			}
			// The classes must not bleed into each other.
			if errors.Is(err, ErrModelNotFound) && errors.Is(err, ErrInvalidModel) {
				t.Fatalf("error %v matches both sentinels", err)
			}
		})
	}

	// A structurally valid file loaded into an incompatible summarizer is
	// the third failure class: LoadModelFile succeeds, LoadModel refuses.
	m, err := LoadModelFile(okPath)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RegisterFeature(feature.NewSpeedChange(), nil); err != nil {
		t.Fatal(err)
	}
	if err := other.LoadModel(m); !errors.Is(err, ErrModelMismatch) {
		t.Errorf("incompatible LoadModel err = %v, want ErrModelMismatch", err)
	}
}
