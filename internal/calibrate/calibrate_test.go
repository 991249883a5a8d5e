package calibrate

import (
	"testing"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/landmark"
	"stmaker/internal/racedetect"
	"stmaker/internal/traj"
)

var (
	base  = geo.Point{Lat: 39.9, Lng: 116.4}
	start = time.Date(2013, 11, 2, 9, 17, 56, 0, time.UTC)
)

// lineSet places landmarks every spacing metres heading east from base.
func lineSet(n int, spacing float64) *landmark.Set {
	lms := make([]landmark.Landmark, n)
	for i := range lms {
		lms[i] = landmark.Landmark{
			Name: string(rune('A' + i)),
			Pt:   geo.Destination(base, 90, float64(i)*spacing),
		}
	}
	return landmark.NewSet(lms)
}

// sampleRoute produces a raw trajectory along the east line at speed
// (km/h), sampled every intervalSec, covering dist metres.
func sampleRoute(speedKmh float64, intervalSec float64, dist float64) *traj.Raw {
	r := &traj.Raw{ID: "r"}
	step := speedKmh / 3.6 * intervalSec
	for d, i := 0.0, 0; d <= dist; d, i = d+step, i+1 {
		r.Samples = append(r.Samples, traj.Sample{
			Pt: geo.Destination(base, 90, d),
			T:  start.Add(time.Duration(float64(i) * intervalSec * float64(time.Second))),
		})
	}
	return r
}

func TestCalibrateBasic(t *testing.T) {
	set := lineSet(5, 500) // A..E every 500m
	cal := New(set, Options{RadiusMeters: 80})
	r := sampleRoute(40, 5, 2000)
	s, err := cal.Calibrate(r)
	if err != nil {
		t.Fatal(err)
	}
	ids := s.LandmarkIDs()
	if len(ids) != 5 {
		t.Fatalf("landmarks = %v, want 5 visits", ids)
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("landmark order = %v", ids)
		}
	}
	// Visit times increase and lie within the trajectory window.
	for i, v := range s.Visits {
		if i > 0 && !v.T.After(s.Visits[i-1].T) {
			t.Fatalf("visit times not increasing: %v", s.Visits)
		}
		if v.T.Before(r.Start()) || v.T.After(r.End()) {
			t.Fatalf("visit %d time %v outside trajectory window", i, v.T)
		}
	}
	if s.Raw != r {
		t.Fatal("Raw not attached")
	}
}

func TestSamplingInvariance(t *testing.T) {
	// The central motivation of §II-A: different sampling strategies of the
	// same route must calibrate to the same symbolic trajectory.
	set := lineSet(6, 400)
	cal := New(set, Options{RadiusMeters: 60})
	dense := sampleRoute(40, 1, 2000)   // sample every second
	sparse := sampleRoute(40, 20, 2000) // sample every 20 seconds
	s1, err := cal.Calibrate(dense)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cal.Calibrate(sparse)
	if err != nil {
		t.Fatal(err)
	}
	ids1, ids2 := s1.LandmarkIDs(), s2.LandmarkIDs()
	if len(ids1) != len(ids2) {
		t.Fatalf("different landmark counts: %v vs %v", ids1, ids2)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("different sequences: %v vs %v", ids1, ids2)
		}
	}
}

func TestTooFewAnchors(t *testing.T) {
	set := lineSet(1, 500)
	cal := New(set, Options{RadiusMeters: 50})
	r := sampleRoute(40, 5, 600)
	if _, err := cal.Calibrate(r); err != ErrTooFewAnchors {
		t.Fatalf("err = %v, want ErrTooFewAnchors", err)
	}
}

func TestInvalidRawRejected(t *testing.T) {
	set := lineSet(3, 500)
	cal := New(set, Options{})
	bad := &traj.Raw{ID: "bad", Samples: []traj.Sample{{Pt: base, T: start}}}
	if _, err := cal.Calibrate(bad); err == nil {
		t.Fatal("invalid raw accepted")
	}
}

func TestFarLandmarksIgnored(t *testing.T) {
	lms := []landmark.Landmark{
		{Name: "near1", Pt: base},
		{Name: "near2", Pt: geo.Destination(base, 90, 1000)},
		{Name: "far", Pt: geo.Destination(geo.Destination(base, 90, 500), 0, 400)}, // 400m off-route
	}
	set := landmark.NewSet(lms)
	cal := New(set, Options{RadiusMeters: 100})
	r := sampleRoute(40, 5, 1000)
	s, err := cal.Calibrate(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range s.LandmarkIDs() {
		if set.Get(id).Name == "far" {
			t.Fatal("off-route landmark anchored")
		}
	}
}

func TestLoopProducesRepeatVisit(t *testing.T) {
	// Out-and-back route: A ... B ... A. The far pass of A must be a
	// distinct second visit.
	set := lineSet(2, 1000) // A at 0, B at 1000
	cal := New(set, Options{RadiusMeters: 80})
	r := &traj.Raw{ID: "loop"}
	step := 50.0
	ts := start
	for d := 0.0; d <= 1000; d += step {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(base, 90, d), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	for d := 950.0; d >= 0; d -= step {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(base, 90, d), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	s, err := cal.Calibrate(r)
	if err != nil {
		t.Fatal(err)
	}
	ids := s.LandmarkIDs()
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 0 {
		t.Fatalf("loop visits = %v, want [0 1 0]", ids)
	}
}

func TestMinSpacingDropsDenseAnchors(t *testing.T) {
	set := lineSet(11, 100) // landmarks every 100m over 1km
	r := sampleRoute(40, 2, 1000)

	all, err := New(set, Options{RadiusMeters: 40}).Calibrate(r)
	if err != nil {
		t.Fatal(err)
	}
	spaced, err := New(set, Options{RadiusMeters: 40, MinSpacingMeters: 250}).Calibrate(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(spaced.Visits) >= len(all.Visits) {
		t.Fatalf("spacing had no effect: %d vs %d", len(spaced.Visits), len(all.Visits))
	}
	// Endpoints are preserved.
	if spaced.Visits[0].Landmark != all.Visits[0].Landmark {
		t.Fatal("first anchor lost")
	}
	if spaced.Visits[len(spaced.Visits)-1].Landmark != all.Visits[len(all.Visits)-1].Landmark {
		t.Fatal("last anchor lost")
	}
}

func TestPassingTimeInterpolated(t *testing.T) {
	// A single landmark midway between two samples: its visit time should
	// be midway between the sample timestamps.
	lms := []landmark.Landmark{
		{Name: "start", Pt: base},
		{Name: "mid", Pt: geo.Destination(base, 90, 150)},
	}
	set := landmark.NewSet(lms)
	r := &traj.Raw{ID: "t", Samples: []traj.Sample{
		{Pt: base, T: start},
		{Pt: geo.Destination(base, 90, 300), T: start.Add(30 * time.Second)},
	}}
	s, err := New(set, Options{RadiusMeters: 30}).Calibrate(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Visits) != 2 {
		t.Fatalf("visits = %d", len(s.Visits))
	}
	got := s.Visits[1].T.Sub(start)
	if got < 14*time.Second || got > 16*time.Second {
		t.Fatalf("interpolated pass time offset = %v, want about 15s", got)
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.RadiusMeters != 100 {
		t.Fatalf("defaults = %+v", o)
	}
}

// TestCalibrateAllocs guards the pooled calibration scratch: a warm
// Calibrate allocates only the symbolic trajectory and its visits.
func TestCalibrateAllocs(t *testing.T) {
	if racedetect.Enabled() {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	set := lineSet(21, 200)
	cal := New(set, Options{RadiusMeters: 80, MinSpacingMeters: 50})
	r := sampleRoute(45, 5, 4000)
	calibrate := func() {
		if _, err := cal.Calibrate(r); err != nil {
			t.Fatal(err)
		}
	}
	calibrate() // warm the pool
	if allocs := testing.AllocsPerRun(50, calibrate); allocs != 2 {
		t.Fatalf("Calibrate allocates %v times, want 2 (the Symbolic and its Visits)", allocs)
	}
}
