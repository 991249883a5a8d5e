package sanitize

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/traj"
)

var t0 = time.Date(2013, 11, 2, 6, 0, 0, 0, time.UTC)

// mkTraj builds a straight eastbound trajectory with one sample every
// step seconds, spaced spacing metres apart — comfortably under any
// speed threshold at the defaults (100 m / 10 s = 36 km/h).
func mkTraj(n int) *traj.Raw {
	r := &traj.Raw{ID: "clean"}
	pt := geo.Point{Lat: 39.9, Lng: 116.3}
	for i := 0; i < n; i++ {
		r.Samples = append(r.Samples, traj.Sample{Pt: pt, T: t0.Add(time.Duration(i) * 10 * time.Second)})
		pt = geo.Destination(pt, 90, 100)
	}
	return r
}

func sanitize(t *testing.T, r *traj.Raw) (*traj.Raw, Report) {
	t.Helper()
	out, rep, err := New(Options{}).Sanitize(r)
	if err != nil {
		t.Fatalf("Sanitize: %v", err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("sanitized output fails Validate: %v", err)
	}
	return out, rep
}

func TestCleanTrajectoryUntouched(t *testing.T) {
	in := mkTraj(10)
	out, rep := sanitize(t, in)
	if !rep.Clean() {
		t.Errorf("clean input reported repairs: %+v", rep)
	}
	if len(out.Samples) != 10 || rep.Input != 10 || rep.Output != 10 {
		t.Errorf("out = %d samples, report = %+v", len(out.Samples), rep)
	}
}

func TestDropsInvalidSamples(t *testing.T) {
	in := mkTraj(6)
	in.Samples[1].Pt = geo.Point{Lat: math.NaN(), Lng: 116.3}
	in.Samples[2].Pt = geo.Point{Lat: 91, Lng: 200}
	in.Samples[3].T = time.Time{}
	out, rep := sanitize(t, in)
	if rep.DroppedInvalid != 3 {
		t.Errorf("DroppedInvalid = %d, want 3: %+v", rep.DroppedInvalid, rep)
	}
	if len(out.Samples) != 3 {
		t.Errorf("kept %d samples, want 3", len(out.Samples))
	}
}

func TestRestoresTimestampOrder(t *testing.T) {
	in := mkTraj(6)
	// Swap two adjacent timestamps: one inversion.
	in.Samples[2], in.Samples[3] = in.Samples[3], in.Samples[2]
	if in.Validate() == nil {
		t.Fatal("shuffled input unexpectedly valid")
	}
	out, rep := sanitize(t, in)
	if rep.Reordered == 0 {
		t.Errorf("Reordered = 0, want > 0")
	}
	for i := 1; i < len(out.Samples); i++ {
		if out.Samples[i].T.Before(out.Samples[i-1].T) {
			t.Fatalf("output still out of order at %d", i)
		}
	}
}

func TestDropsDuplicateFixes(t *testing.T) {
	in := mkTraj(5)
	dup := in.Samples[2]
	in.Samples = append(in.Samples[:3], append([]traj.Sample{dup, dup}, in.Samples[3:]...)...)
	out, rep := sanitize(t, in)
	if rep.DroppedDuplicates != 2 {
		t.Errorf("DroppedDuplicates = %d, want 2: %+v", rep.DroppedDuplicates, rep)
	}
	if len(out.Samples) != 5 {
		t.Errorf("kept %d samples, want 5", len(out.Samples))
	}
}

func TestDropsTeleportOutlier(t *testing.T) {
	in := mkTraj(8)
	// One fix jumps ~50 km off-route and back: two impossible hops.
	in.Samples[4].Pt = geo.Destination(in.Samples[4].Pt, 0, 50_000)
	out, rep := sanitize(t, in)
	if rep.DroppedOutliers != 1 {
		t.Errorf("DroppedOutliers = %d, want 1: %+v", rep.DroppedOutliers, rep)
	}
	if len(out.Samples) != 7 {
		t.Errorf("kept %d samples, want 7", len(out.Samples))
	}
	for _, sm := range out.Samples {
		if geo.Distance(sm.Pt, in.Samples[0].Pt) > 10_000 {
			t.Fatalf("teleport sample survived: %v", sm.Pt)
		}
	}
}

func TestTeleportAnchorReset(t *testing.T) {
	// A bogus first fix followed by a consistent distant track: the
	// anchor reset must recover the track instead of dropping it all.
	in := mkTraj(12)
	in.Samples[0].Pt = geo.Destination(in.Samples[0].Pt, 180, 500_000)
	out, rep := sanitize(t, in)
	if len(out.Samples) < 8 {
		t.Fatalf("anchor reset failed: only %d samples kept (%+v)", len(out.Samples), rep)
	}
	if got := geo.Distance(out.Samples[0].Pt, in.Samples[1].Pt); got > 5_000 {
		t.Errorf("output still anchored to the bogus fix (%.0f m away)", got)
	}
}

func TestCollapsesJitter(t *testing.T) {
	in := mkTraj(4)
	// Insert a parked episode: 6 fixes roaming < 1 m over a minute.
	base := in.Samples[1]
	var parked []traj.Sample
	for i := 0; i < 6; i++ {
		parked = append(parked, traj.Sample{
			Pt: geo.Destination(base.Pt, float64(i*60), 0.5),
			T:  base.T.Add(time.Duration(i+1) * time.Second),
		})
	}
	rest := append([]traj.Sample(nil), in.Samples[2:]...)
	for i := range rest {
		rest[i].T = rest[i].T.Add(time.Minute)
	}
	in.Samples = append(in.Samples[:2], append(parked, rest...)...)
	out, rep := sanitize(t, in)
	if rep.CollapsedJitter == 0 {
		t.Errorf("CollapsedJitter = 0, want > 0: %+v", rep)
	}
	// The run endpoints survive, so the dwell duration is preserved.
	if len(out.Samples) >= rep.Input {
		t.Errorf("nothing collapsed: %d of %d", len(out.Samples), rep.Input)
	}
}

func TestRejectsUnusableTrajectory(t *testing.T) {
	in := &traj.Raw{ID: "dead", Samples: []traj.Sample{
		{Pt: geo.Point{Lat: math.NaN()}, T: t0},
		{Pt: geo.Point{Lat: 200}, T: t0},
	}}
	out, rep, err := New(Options{}).Sanitize(in)
	if !errors.Is(err, ErrUnusable) {
		t.Fatalf("err = %v, want ErrUnusable", err)
	}
	if out != nil {
		t.Error("rejected trajectory returned non-nil output")
	}
	if rep.DroppedInvalid != 2 {
		t.Errorf("report not populated on rejection: %+v", rep)
	}
	if _, _, err := New(Options{}).Sanitize(nil); !errors.Is(err, ErrUnusable) {
		t.Errorf("nil trajectory: err = %v, want ErrUnusable", err)
	}
}

func TestInputNeverMutated(t *testing.T) {
	in := mkTraj(8)
	in.Samples[3], in.Samples[5] = in.Samples[5], in.Samples[3] // out of order
	in.Samples[6].Pt = geo.Point{Lat: 95}                       // invalid (and, unlike NaN, comparable)
	snapshot := append([]traj.Sample(nil), in.Samples...)
	if _, _, err := New(Options{}).Sanitize(in); err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if in.Samples[i] != snapshot[i] {
			t.Fatalf("input sample %d mutated", i)
		}
	}
}

func TestReportMerge(t *testing.T) {
	a := Report{Input: 10, Output: 8, DroppedInvalid: 1, DroppedOutliers: 1}
	b := Report{Input: 5, Output: 5, Reordered: 2}
	a.Merge(b)
	if a.Input != 15 || a.Output != 13 || a.Repairs() != 4 {
		t.Errorf("merged = %+v", a)
	}
	if a.Clean() {
		t.Error("merged report with repairs claims clean")
	}
}

// BenchmarkSanitize repairs a 1 Hz half-hour trip at city speeds: 30 to
// 60 km/h on a slowly turning heading, with a minute parked in
// sub-metre jitter every ten minutes and one teleport fix.
func BenchmarkSanitize(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	r := &traj.Raw{ID: "bench"}
	pt, brg := geo.Point{Lat: 39.9, Lng: 116.3}, 0.0
	for i := 0; i < 1800; i++ {
		switch {
		case i%600 >= 540:
			r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(pt, rng.Float64()*360, rng.Float64()*0.8), T: t0.Add(time.Duration(i) * time.Second)})
			continue
		case i == 900:
			r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(pt, 0, 5000), T: t0.Add(time.Duration(i) * time.Second)})
			continue
		}
		brg += rng.Float64()*10 - 5
		pt = geo.Destination(pt, brg, (30+rng.Float64()*30)/3.6)
		r.Samples = append(r.Samples, traj.Sample{Pt: pt, T: t0.Add(time.Duration(i) * time.Second)})
	}
	s := New(Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Sanitize(r); err != nil {
			b.Fatal(err)
		}
	}
}
