package feature

import (
	"testing"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/racedetect"
	"stmaker/internal/traj"
)

// TestMovingExtractAllocs guards the moving features: on a 1 Hz segment
// that holds a stay and a U-turn, Speed, StayPoints and UTurns extract
// without allocating. The race detector's instrumentation allocates, so
// the guard skips under -race; `make allocs` runs it without.
func TestMovingExtractAllocs(t *testing.T) {
	if racedetect.Enabled() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// East at 10 m/s for 300 m, 90 s within 5 m of one spot, east again
	// for 200 m, then back west for 300 m.
	r := &traj.Raw{ID: "1hz"}
	ts := start
	add := func(p geo.Point) {
		r.Samples = append(r.Samples, traj.Sample{Pt: p, T: ts})
		ts = ts.Add(time.Second)
	}
	for d := 0.0; d < 300; d += 10 {
		add(geo.Destination(base, 90, d))
	}
	stop := geo.Destination(base, 90, 300)
	for i := 0; i < 90; i++ {
		add(geo.Destination(stop, float64(i*37%360), 5))
	}
	for d := 300.0; d < 500; d += 10 {
		add(geo.Destination(base, 90, d))
	}
	for d := 500.0; d >= 200; d -= 10 {
		add(geo.Destination(base, 90, d))
	}
	seg := wholeSegment(r)

	for _, c := range []struct {
		e    Extractor
		want float64
	}{
		{NewStayPoints(), 1},
		{NewUTurns(), 1},
		{NewSpeed(), -1}, // any value
	} {
		name := c.e.Descriptor().Key
		if got := c.e.Extract(seg, nil); c.want >= 0 && got != c.want {
			t.Fatalf("%s = %v on the fixture, want %v", name, got, c.want)
		}
		if allocs := testing.AllocsPerRun(20, func() { c.e.Extract(seg, nil) }); allocs != 0 {
			t.Errorf("%s.Extract allocates %v times per segment, want 0", name, allocs)
		}
	}
}
