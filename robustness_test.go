package stmaker

// Robustness integration tests: degraded GPS input through the
// sanitize→calibrate pipeline (Config.Sanitize), context cancellation
// between pipeline stages, and the input-vs-internal error split that
// the HTTP layer's status mapping relies on.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/hits"
	"stmaker/internal/sanitize"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

// noisyWorld builds a small city plus two summarizers over it — one
// strict, one sanitizing — so tests can compare behaviour on the same
// degraded input.
func noisyWorld(t testing.TB) (*simulate.City, *Summarizer, *Summarizer) {
	t.Helper()
	city := simulate.NewCity(simulate.CityOptions{Rows: 6, Cols: 6, BlockMeters: 500, Seed: 61})
	visits := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: 62})
	city.Landmarks.InferSignificance(200, visits, hits.Options{})
	strict, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	repairing, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks, Sanitize: &sanitize.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	return city, strict, repairing
}

func calmCorpus(city *simulate.City, n int, seed int64) []*traj.Raw {
	trips := simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: n, Seed: seed, FixedHour: -1, Calm: true,
	})
	corpus := make([]*traj.Raw, 0, len(trips))
	for _, tr := range trips {
		corpus = append(corpus, tr.Raw)
	}
	return corpus
}

// Noise kinds injected by corruptTrip, cycling through the degraded
// input real trackers produce.
const (
	noiseShuffled   = iota // two timestamps swapped: fails Validate
	noiseDuplicated        // a fix repeated twice at the same instant
	noiseTeleport          // one fix jumps 100 km off-route
	noiseKinds
)

// corruptTrip returns a corrupted copy of r; the input is untouched.
func corruptTrip(r *traj.Raw, kind int) *traj.Raw {
	c := &traj.Raw{ID: r.ID, Object: r.Object, Samples: append([]traj.Sample(nil), r.Samples...)}
	i := len(c.Samples) / 2
	switch kind % noiseKinds {
	case noiseShuffled:
		c.Samples[i].T, c.Samples[i+1].T = c.Samples[i+1].T, c.Samples[i].T
	case noiseDuplicated:
		dup := c.Samples[i]
		c.Samples = append(c.Samples[:i], append([]traj.Sample{dup, dup}, c.Samples[i:]...)...)
	case noiseTeleport:
		c.Samples[i].Pt = geo.Destination(c.Samples[i].Pt, 45, 100_000)
	}
	return c
}

func TestTrainSanitizesNoisyCorpus(t *testing.T) {
	city, strict, repairing := noisyWorld(t)
	corpus := calmCorpus(city, 60, 63)

	// Corrupt every second trip, cycling through the noise kinds.
	noisy := make([]*traj.Raw, len(corpus))
	corrupted := 0
	for i, r := range corpus {
		if i%2 == 0 {
			noisy[i] = corruptTrip(r, i/2)
			corrupted++
		} else {
			noisy[i] = r
		}
	}

	strictStats, err := strict.Train(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if strictStats.Repaired != 0 || !strictStats.Repairs.Clean() {
		t.Errorf("strict summarizer reported repairs: %+v", strictStats)
	}
	// Shuffled trips fail Validate inside Calibrate, so the strict
	// summarizer must have dropped at least those.
	if strictStats.Skipped == 0 {
		t.Error("strict Train skipped nothing on a noisy corpus")
	}

	repairStats, err := repairing.Train(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if repairStats.Calibrated <= strictStats.Calibrated {
		t.Errorf("sanitization did not recover trips: strict %d vs repairing %d calibrated",
			strictStats.Calibrated, repairStats.Calibrated)
	}
	if repairStats.Repaired < corrupted {
		t.Errorf("Repaired = %d, want >= %d", repairStats.Repaired, corrupted)
	}
	rep := repairStats.Repairs
	if rep.Reordered == 0 || rep.DroppedDuplicates == 0 || rep.DroppedOutliers == 0 {
		t.Errorf("repair kinds missing from aggregate: %+v", rep)
	}
	if got := repairing.Metrics().Counter(MetricSanitizeRepairs).Value(); got < int64(corrupted) {
		t.Errorf("%s = %d, want >= %d", MetricSanitizeRepairs, got, corrupted)
	}
}

func TestSummarizeRepairsNoisyTrajectory(t *testing.T) {
	city, strict, repairing := noisyWorld(t)
	corpus := calmCorpus(city, 60, 63)
	if _, err := strict.Train(corpus); err != nil {
		t.Fatal(err)
	}
	if _, err := repairing.Train(corpus); err != nil {
		t.Fatal(err)
	}
	trip := eventfulTrip(t, city, 64).Raw

	for kind := 0; kind < noiseKinds; kind++ {
		noisy := corruptTrip(trip, kind)
		if _, err := repairing.Summarize(noisy); err != nil {
			t.Errorf("kind %d: sanitizing summarizer failed: %v", kind, err)
		}
	}

	// The shuffled trajectory hard-fails without sanitization — and the
	// failure is classified as the caller's fault.
	shuffled := corruptTrip(trip, noiseShuffled)
	_, err := strict.Summarize(shuffled)
	if err == nil {
		t.Fatal("strict summarizer accepted a shuffled trajectory")
	}
	if !IsInputError(err) {
		t.Errorf("shuffled-trajectory error not classified as input error: %v", err)
	}

	// Timestamp sorting restores the exact original trajectory, so the
	// repaired summary matches the clean one verbatim.
	clean, err := repairing.Summarize(trip)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := repairing.Summarize(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Text != repaired.Text {
		t.Errorf("repaired summary diverged:\nclean:    %s\nrepaired: %s", clean.Text, repaired.Text)
	}

	// A sanitizer rejection (nothing usable left) is an input error too.
	dead := &traj.Raw{ID: "dead", Samples: []traj.Sample{
		{Pt: geo.Point{Lat: 200, Lng: 200}, T: time.Now()},
		{Pt: geo.Point{Lat: 200, Lng: 200}, T: time.Now()},
	}}
	if _, err := repairing.Summarize(dead); !IsInputError(err) || !errors.Is(err, sanitize.ErrUnusable) {
		t.Errorf("sanitizer rejection not classified as input error: %v", err)
	}
	if got := repairing.Metrics().Counter(MetricSanitizeRejects).Value(); got == 0 {
		t.Errorf("%s not incremented", MetricSanitizeRejects)
	}
}

func TestSummarizeContextCancellation(t *testing.T) {
	city, _, repairing := noisyWorld(t)
	if _, err := repairing.Train(calmCorpus(city, 60, 63)); err != nil {
		t.Fatal(err)
	}
	trip := eventfulTrip(t, city, 64).Raw

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repairing.SummarizeKContext(ctx, trip, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}

	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	<-expired.Done()
	if _, err := repairing.SummarizeKContext(expired, trip, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired context: err = %v, want context.DeadlineExceeded", err)
	}

	// Cancellation between stages: a context that expires mid-pipeline
	// must abort rather than render. We cannot schedule the expiry on a
	// stage boundary deterministically, but an aggressive deadline on a
	// long trajectory exercises the checkpoints; either outcome (summary
	// or DeadlineExceeded) is legal, anything else is a bug.
	tight, cancel3 := context.WithTimeout(context.Background(), 50*time.Microsecond)
	defer cancel3()
	if _, err := repairing.SummarizeKContext(tight, trip, 0); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("tight deadline: unexpected error class: %v", err)
	}
}

func TestErrorClassification(t *testing.T) {
	city, strict, _ := noisyWorld(t)
	trip := eventfulTrip(t, city, 64).Raw

	// Untrained summarizer: server-side state, not the caller's fault.
	_, err := strict.Summarize(trip)
	if !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
	if IsInputError(err) {
		t.Error("ErrNotTrained classified as input error")
	}

	if _, err := strict.Train(calmCorpus(city, 40, 65)); err != nil {
		t.Fatal(err)
	}

	// Structurally broken input: the caller's fault.
	short := &traj.Raw{ID: "short", Samples: trip.Samples[:1]}
	_, err = strict.Summarize(short)
	if err == nil || !IsInputError(err) {
		t.Errorf("short-trajectory error not classified as input error: %v", err)
	}

	// An uncalibrated symbolic trajectory is input-shaped as well.
	_, err = strict.SummarizeSymbolic(&traj.Symbolic{ID: "empty"}, 0)
	if !errors.Is(err, traj.ErrNotCalibrated) || !IsInputError(err) {
		t.Errorf("empty symbolic: err = %v, want ErrNotCalibrated and input-classified", err)
	}

	// Wrapping survives another layer, as servers will add context.
	wrapped := fmt.Errorf("handler: %w", err)
	if !IsInputError(wrapped) {
		t.Error("IsInputError lost through wrapping")
	}
}
