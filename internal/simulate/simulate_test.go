package simulate

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/landmark"
	"stmaker/internal/roadnet"
)

func smallCity(t *testing.T) *City {
	t.Helper()
	return NewCity(CityOptions{Rows: 6, Cols: 6, BlockMeters: 500, Seed: 7})
}

func TestNewCityStructure(t *testing.T) {
	c := smallCity(t)
	if c.Graph.NumNodes() != 36 {
		t.Fatalf("nodes = %d, want 36", c.Graph.NumNodes())
	}
	// 6 rows × 5 + 6 cols × 5 = 60 street segments.
	if c.Graph.NumEdges() != 60 {
		t.Fatalf("edges = %d, want 60", c.Graph.NumEdges())
	}
	grades := make(map[roadnet.Grade]int)
	oneWay := 0
	for _, e := range c.Graph.Edges() {
		grades[e.Grade]++
		if e.Direction == roadnet.OneWay {
			oneWay++
		}
		if e.Name == "" {
			t.Fatal("unnamed road")
		}
	}
	if grades[roadnet.GradeHighway] == 0 || grades[roadnet.GradeExpress] == 0 || grades[roadnet.GradeVillage] == 0 {
		t.Fatalf("grade mix missing levels: %v", grades)
	}
	if oneWay == 0 {
		t.Fatal("no one-way streets generated")
	}
	if c.Landmarks.Len() <= 36 {
		t.Fatalf("landmarks = %d, want intersections plus POI clusters", c.Landmarks.Len())
	}
	if c.opts.Rows != 6 || c.opts.Cols != 6 {
		t.Fatal("dims wrong")
	}
}

func TestCityConnectivity(t *testing.T) {
	c := smallCity(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		a, b := c.RandomNode(rng), c.RandomNode(rng)
		if a == b {
			continue
		}
		if _, err := c.Graph.ShortestPath(a, b, roadnet.ByTravelTime); err != nil {
			t.Fatalf("city not strongly connected: %d→%d: %v", a, b, err)
		}
	}
}

func TestCityDeterministic(t *testing.T) {
	a := NewCity(CityOptions{Rows: 5, Cols: 5, Seed: 11})
	b := NewCity(CityOptions{Rows: 5, Cols: 5, Seed: 11})
	if a.Graph.NumEdges() != b.Graph.NumEdges() || a.Landmarks.Len() != b.Landmarks.Len() {
		t.Fatal("same seed produced different cities")
	}
	for i := range a.Graph.Edges() {
		ea, eb := a.Graph.Edge(roadnet.EdgeID(i)), b.Graph.Edge(roadnet.EdgeID(i))
		if ea.Direction != eb.Direction || ea.Grade != eb.Grade {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestNoOneWayOptOut(t *testing.T) {
	c := NewCity(CityOptions{Rows: 5, Cols: 5, Seed: 2, OneWayFraction: -1})
	for _, e := range c.Graph.Edges() {
		if e.Direction == roadnet.OneWay {
			t.Fatal("one-way street despite opt-out")
		}
	}
}

func TestCongestionModelShape(t *testing.T) {
	if !(CongestionFactor(8) < CongestionFactor(12) && CongestionFactor(12) < CongestionFactor(2)) {
		t.Fatal("congestion ordering wrong: rush < day < night expected")
	}
	if !(StayProbability(8) > StayProbability(12) && StayProbability(12) > StayProbability(2)) {
		t.Fatal("stay probability ordering wrong")
	}
	if OverspeedProbability(23) <= OverspeedProbability(8) {
		t.Fatal("overspeed should peak at night")
	}
	if CongestionFactor(-16) != CongestionFactor(8) || CongestionFactor(32) != CongestionFactor(8) {
		t.Fatal("hour normalization wrong")
	}
}

func TestGenerateFleetBasics(t *testing.T) {
	c := smallCity(t)
	trips := GenerateFleet(c, FleetOptions{NumTrips: 30, Seed: 5, FixedHour: -1})
	if len(trips) < 25 {
		t.Fatalf("trips generated = %d, want most of 30", len(trips))
	}
	minLat, minLng := math.Inf(1), math.Inf(1)
	maxLat, maxLng := math.Inf(-1), math.Inf(-1)
	for _, n := range c.Graph.Nodes() {
		minLat, maxLat = min(minLat, n.Pt.Lat), max(maxLat, n.Pt.Lat)
		minLng, maxLng = min(minLng, n.Pt.Lng), max(maxLng, n.Pt.Lng)
	}
	for _, tr := range trips {
		if err := tr.Raw.Validate(); err != nil {
			t.Fatalf("invalid trajectory %s: %v", tr.Raw.ID, err)
		}
		if len(tr.Path) < 2 {
			t.Fatalf("trip %s path too short", tr.Raw.ID)
		}
		if tr.Raw.Duration() <= 0 {
			t.Fatalf("trip %s has no duration", tr.Raw.ID)
		}
		// Samples stay within the city's bounding box grown by 0.005°
		// (about 500 m).
		for _, s := range tr.Raw.Samples {
			if s.Pt.Lat < minLat-0.005 || s.Pt.Lat > maxLat+0.005 ||
				s.Pt.Lng < minLng-0.005 || s.Pt.Lng > maxLng+0.005 {
				t.Fatalf("trip %s leaves the city: %v", tr.Raw.ID, s.Pt)
			}
		}
	}
}

func TestFleetDeterministic(t *testing.T) {
	c := smallCity(t)
	a := GenerateFleet(c, FleetOptions{NumTrips: 10, Seed: 9, FixedHour: -1})
	b := GenerateFleet(c, FleetOptions{NumTrips: 10, Seed: 9, FixedHour: -1})
	if len(a) != len(b) {
		t.Fatal("nondeterministic trip count")
	}
	for i := range a {
		if len(a[i].Raw.Samples) != len(b[i].Raw.Samples) {
			t.Fatalf("trip %d sample counts differ", i)
		}
		if len(a[i].Truth) != len(b[i].Truth) {
			t.Fatalf("trip %d truths differ", i)
		}
	}
}

func TestCalmFleetHasNoEvents(t *testing.T) {
	c := smallCity(t)
	trips := GenerateFleet(c, FleetOptions{NumTrips: 20, Seed: 4, Calm: true, FixedHour: -1})
	for _, tr := range trips {
		if len(tr.Truth) != 0 {
			t.Fatalf("calm trip has events: %+v", tr.Truth)
		}
	}
}

func TestRushHourSlowerThanNight(t *testing.T) {
	c := smallCity(t)
	rush := GenerateFleet(c, FleetOptions{NumTrips: 40, Seed: 6, FixedHour: 8, Calm: true})
	night := GenerateFleet(c, FleetOptions{NumTrips: 40, Seed: 6, FixedHour: 2, Calm: true})
	avg := func(trips []*Trip) float64 {
		var sum float64
		for _, tr := range trips {
			sum += tr.Raw.Length() / tr.Raw.Duration().Seconds() * 3.6
		}
		return sum / float64(len(trips))
	}
	if avg(rush) >= avg(night)*0.8 {
		t.Fatalf("rush avg %.1f should be well below night avg %.1f", avg(rush), avg(night))
	}
}

func TestEventInjectionAppears(t *testing.T) {
	c := smallCity(t)
	trips := GenerateFleet(c, FleetOptions{NumTrips: 150, Seed: 8, FixedHour: 8})
	counts := make(map[EventKind]int)
	for _, tr := range trips {
		for _, e := range tr.Truth {
			counts[e.Kind]++
		}
	}
	for _, kind := range []EventKind{EventStay, EventDetour} {
		if counts[kind] == 0 {
			t.Fatalf("no %v events in 150 rush-hour trips", kind)
		}
	}
	// U-turn legs require long edges; with 500m blocks they occur but may
	// be rarer.
	if counts[EventUTurn]+counts[EventOverspeed] == 0 {
		t.Fatal("no u-turn or overspeed events at all")
	}
}

func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{
		EventStay: "stay", EventUTurn: "u-turn", EventDetour: "detour",
		EventOverspeed: "overspeed", EventCongestion: "congestion",
		EventKind(99): "event-99",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestGenerateCheckinsZipf(t *testing.T) {
	c := smallCity(t)
	visits := GenerateCheckins(c.Landmarks, CheckinOptions{Seed: 3})
	if len(visits) == 0 {
		t.Fatal("no visits")
	}
	counts := make(map[int]int)
	for _, v := range visits {
		if v.Landmark < 0 || v.Landmark >= c.Landmarks.Len() {
			t.Fatalf("visit out of range: %+v", v)
		}
		counts[v.Landmark]++
	}
	// Long tail: the most-visited landmark should dominate the median.
	maxN := 0
	for _, n := range counts {
		if n > maxN {
			maxN = n
		}
	}
	if maxN < len(visits)/10 {
		t.Fatalf("no popularity head: max count %d of %d visits", maxN, len(visits))
	}
}

func TestGenerateCheckinsEmptySet(t *testing.T) {
	if got := GenerateCheckins(landmark.NewSet(nil), CheckinOptions{}); got != nil {
		t.Fatalf("empty set visits = %v", got)
	}
}

func TestSubPolyline(t *testing.T) {
	base := geo.Point{Lat: 39.9, Lng: 116.4}
	pl := geo.Polyline{base, geo.Destination(base, 90, 1000)}
	mid := subPolyline(pl, 200, 700)
	if got := mid.Length(); got < 490 || got > 510 {
		t.Fatalf("subPolyline length = %v, want about 500", got)
	}
	// Swapped bounds behave identically.
	swapped := subPolyline(pl, 700, 200)
	if got := swapped.Length(); got < 490 || got > 510 {
		t.Fatalf("swapped length = %v", got)
	}
	rev := reverse(mid)
	if rev[0] != mid[len(mid)-1] || rev[len(rev)-1] != mid[0] {
		t.Fatal("reverse endpoints wrong")
	}
}

func TestTripTimestampsMonotonic(t *testing.T) {
	c := smallCity(t)
	trips := GenerateFleet(c, FleetOptions{NumTrips: 20, Seed: 12, FixedHour: 8})
	for _, tr := range trips {
		for i := 1; i < len(tr.Raw.Samples); i++ {
			if tr.Raw.Samples[i].T.Before(tr.Raw.Samples[i-1].T) {
				t.Fatalf("trip %s timestamps decrease", tr.Raw.ID)
			}
		}
		if tr.Start.IsZero() {
			t.Fatal("start missing")
		}
		if tr.Raw.Duration() < 30*time.Second {
			t.Fatalf("trip %s implausibly short: %v", tr.Raw.ID, tr.Raw.Duration())
		}
	}
}

func TestCityOptionDefaultsAndNodeAt(t *testing.T) {
	c := NewCity(CityOptions{}) // all defaults
	if c.opts.Rows != 12 || c.opts.Cols != 12 {
		t.Fatalf("default grid = %dx%d", c.opts.Rows, c.opts.Cols)
	}
	if got := c.nodeAt[0][0]; c.Graph.Node(got).Pt != c.Graph.Node(0).Pt {
		t.Fatal("NodeAt(0,0) mismatch")
	}
	if got := c.nodeAt[2][3]; int(got) != 2*12+3 {
		t.Fatalf("NodeAt(2,3) = %d", got)
	}
	// Clamped one-way fraction.
	over := NewCity(CityOptions{Rows: 4, Cols: 4, Seed: 2, OneWayFraction: 5})
	if over.Graph.NumEdges() == 0 {
		t.Fatal("clamped city empty")
	}
}

func TestFleetOptionDefaults(t *testing.T) {
	o := FleetOptions{}.withDefaults()
	if o.NumTrips != 200 || o.Taxis != 40 || o.MinHops != 6 || o.Seed != 1 {
		t.Fatalf("defaults = %+v", o)
	}
	if o.SampleInterval != 5*time.Second {
		t.Fatalf("sample interval = %v", o.SampleInterval)
	}
	if o.StartDay.IsZero() {
		t.Fatal("start day unset")
	}
}
