package stmaker

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"stmaker/internal/simulate"
)

// v1FixturePath is a pinned model file written by the FormatVersion-1
// codec, before the routing overlay existed (see testdata/gen_model_v1.go
// for provenance). It was trained on exactly the world and corpus
// newWorld builds.
const v1FixturePath = "testdata/model_v1.stm"

// TestV1ModelFixtureServesIdentically is the backward-compatibility
// contract end to end: a pre-overlay model file still loads (overlay
// absent, plain-Dijkstra fallback — never an error) and serves summaries
// byte-identical to a freshly trained model that carries the overlay.
// That last part is the router-equivalence guarantee surfacing at the
// API: which engine answers must be unobservable in the output.
func TestV1ModelFixtureServesIdentically(t *testing.T) {
	city, fresh := newWorld(t, func(c *Config) { c.UseHMMMatching = true })
	if fresh.Model().RoutingOverlay() == nil {
		t.Fatal("freshly trained model carries no routing overlay")
	}

	warm, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks, UseHMMMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModelFile(v1FixturePath)
	if err != nil {
		t.Fatalf("pre-overlay fixture rejected: %v", err)
	}
	if m.RoutingOverlay() != nil {
		t.Fatal("version-1 file produced an overlay from nowhere")
	}
	if err := warm.LoadModel(m); err != nil {
		t.Fatal(err)
	}

	for _, seed := range []int64{24, 31, 47, 63} {
		trip := eventfulTrip(t, city, seed)
		want, err := fresh.SummarizeK(trip.Raw, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := warm.SummarizeK(trip.Raw, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Text != want.Text {
			t.Fatalf("seed %d: v1-model summary diverged\n got: %s\nwant: %s", seed, got.Text, want.Text)
		}
	}

	// A retrain on the warm summarizer builds the overlay it was missing;
	// stats report the build.
	stats := TrainStats{}
	if o := warm.routingOverlay(&stats); o == nil {
		t.Fatal("retrain path failed to build an overlay for a v1-loaded summarizer")
	} else if stats.OverlayBuildSeconds <= 0 {
		t.Fatal("overlay build time not reported")
	}
}

// TestOverlayFollowsHMMMatching pins who pays for the ALT overlay. An
// HMM summarizer, its only consumer, builds it on the first Train and
// carries the same tables across a retrain. A greedy summarizer builds
// none, not even in an ingest compaction, yet still loads a format-2
// file that carries one, and the overlay is inert there: it serves the
// same bytes as the same knowledge without an overlay. (Greedy and HMM
// matching extract different routing-feature values, so the reference is
// the writer's model served greedily, not the HMM writer itself.)
func TestOverlayFollowsHMMMatching(t *testing.T) {
	city, hmm := newWorld(t, func(c *Config) { c.UseHMMMatching = true })
	overlay := hmm.Model().RoutingOverlay()
	if overlay == nil {
		t.Fatal("HMM Train built no routing overlay")
	}
	if hmm.Model().Stats().OverlayBuildSeconds <= 0 {
		t.Error("HMM Train reported no overlay build time")
	}
	var file bytes.Buffer
	if _, err := hmm.SaveModel(&file); err != nil {
		t.Fatal(err)
	}

	stats, err := hmm.Train(rawCorpus(simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: 20, Seed: 91, FixedHour: -1, Calm: true,
	})))
	if err != nil {
		t.Fatal(err)
	}
	if hmm.Model().RoutingOverlay() != overlay {
		t.Error("HMM retrain rebuilt the overlay instead of reusing the serving one")
	}
	if stats.OverlayBuildSeconds != 0 {
		t.Errorf("HMM retrain reports %gs of overlay build", stats.OverlayBuildSeconds)
	}
	if n := hmm.Metrics().Snapshot().Histograms[MetricModelBuild].Count; n != 1 {
		t.Errorf("%s count = %d after train + retrain, want 1", MetricModelBuild, n)
	}

	greedy, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadModelFrom(&file)
	if err != nil {
		t.Fatal(err)
	}
	if m.RoutingOverlay() == nil {
		t.Fatal("HMM model file carries no overlay")
	}
	if err := greedy.LoadModel(m); err != nil {
		t.Fatalf("greedy summarizer rejected an overlay-carrying model: %v", err)
	}
	bare, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	stripped := *m
	stripped.overlay = nil
	if err := bare.LoadModel(&stripped); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{24, 31, 47, 63} {
		trip := eventfulTrip(t, city, seed)
		if got, want := summaryFingerprint(t, greedy, trip.Raw), summaryFingerprint(t, bare, trip.Raw); got != want {
			t.Errorf("seed %d: the overlay changed a greedy summary\n got: %s\nwant: %s", seed, got, want)
		}
	}

	// A compaction on the greedy summarizer builds no overlay, even while
	// the model it replaces carries one.
	acc, err := greedy.NewHistoryAccumulator(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 10, Seed: 93, FixedHour: -1, Calm: true}) {
		if sym, err := greedy.Calibrate(tr.Raw); err == nil {
			greedy.AccumulateHistory(acc, sym)
		}
	}
	if acc.Trips() == 0 {
		t.Fatal("no compaction trip calibrated")
	}
	if c := greedy.BuildIncrementalModel(acc); c.RoutingOverlay() != nil {
		t.Error("greedy compaction built a routing overlay")
	}
}

// TestReloadUnderLoadOverlaySwap hammers the model hot-swap while
// summarize traffic is in flight, alternating between a pre-overlay
// model (plain-Dijkstra serving) and an overlay-carrying one (ALT
// serving). Under -race this pins that the router swap inside publish is
// as race-free as the model swap itself, and that every request — no
// matter which side of a swap it lands on — produces the same bytes.
func TestReloadUnderLoadOverlaySwap(t *testing.T) {
	city, s := newWorld(t, func(c *Config) { c.UseHMMMatching = true })
	withOverlay := s.Model()
	if withOverlay.RoutingOverlay() == nil {
		t.Fatal("trained model carries no overlay")
	}
	noOverlay, err := LoadModelFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	trip := eventfulTrip(t, city, 63)
	want, err := s.SummarizeK(trip.Raw, 3)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	stop := make(chan struct{})
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				got, err := s.SummarizeK(trip.Raw, 3)
				if err != nil {
					errs <- err
					return
				}
				if got.Text != want.Text {
					errs <- fmt.Errorf("summary diverged mid-swap:\n got: %s\nwant: %s", got.Text, want.Text)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		m := withOverlay
		if i%2 == 0 {
			m = noOverlay
		}
		if err := s.LoadModel(m); err != nil {
			close(stop)
			t.Fatal(err)
		}
	}
	close(stop)
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestV1FixtureRejectsOnlyGenuineCorruption pins the error taxonomy on
// the old-format file: the pristine fixture loads, and ErrInvalidModel
// appears only when the bytes are actually damaged.
func TestV1FixtureRejectsOnlyGenuineCorruption(t *testing.T) {
	data, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(v1FixturePath); err != nil {
		t.Fatalf("pristine fixture: %v", err)
	}
	dir := t.TempDir()
	write := func(b []byte) string {
		p := dir + "/m.stm"
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x20
	if _, err := LoadModelFile(write(flipped)); !errors.Is(err, ErrInvalidModel) {
		t.Fatalf("flipped byte: err = %v, want ErrInvalidModel", err)
	}
	if _, err := LoadModelFile(write(data[:len(data)-7])); !errors.Is(err, ErrInvalidModel) {
		t.Fatalf("truncation: err = %v, want ErrInvalidModel", err)
	}
	if _, err := LoadModelFile(dir + "/absent.stm"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("missing file: err = %v, want ErrModelNotFound", err)
	}
}
