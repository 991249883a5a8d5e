package feature

import (
	"math"
	"testing"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/roadnet"
	"stmaker/internal/traj"
)

var (
	base  = geo.Point{Lat: 39.9, Lng: 116.4}
	start = time.Date(2013, 11, 2, 9, 0, 0, 0, time.UTC)
)

// testWorld builds a two-road network: a 2km highway "G6" heading east from
// base, then a 1km one-way village road "Hutong" continuing east.
func testWorld(t *testing.T) (*roadnet.Graph, *Context) {
	t.Helper()
	g := &roadnet.Graph{}
	a := g.AddNode(base, true)
	b := g.AddNode(geo.Destination(base, 90, 2000), true)
	c := g.AddNode(geo.Destination(base, 90, 3000), true)
	if _, err := g.AddEdge(a, b, "G6", roadnet.GradeHighway, 28, roadnet.TwoWay, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(b, c, "Hutong", roadnet.GradeVillage, 7, roadnet.OneWay, nil); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(g, roadnet.NewMatcher(g), nil)
	return g, ctx
}

// drive produces a raw trajectory from startDist to endDist metres along
// the east axis at speed km/h with 5-second sampling.
func drive(speedKmh, startDist, endDist float64) *traj.Raw {
	r := &traj.Raw{ID: "f"}
	step := speedKmh / 3.6 * 5
	ts := start
	for d := startDist; d <= endDist; d += step {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(base, 90, d), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	return r
}

// wholeSegment wraps a raw trajectory as a single-segment symbolic
// trajectory.
func wholeSegment(r *traj.Raw) traj.Segment {
	s := &traj.Symbolic{
		ID:  r.ID,
		Raw: r,
		Visits: []traj.Visit{
			{Landmark: 0, T: r.Start(), RawIndex: 0},
			{Landmark: 1, T: r.End(), RawIndex: len(r.Samples) - 1},
		},
	}
	return s.Segment(0)
}

func TestDefaultRegistry(t *testing.T) {
	r := NewDefaultRegistry()
	if r.Len() != 6 {
		t.Fatalf("Len = %d, want 6", r.Len())
	}
	wantKeys := []string{KeyGradeOfRoad, KeyRoadWidth, KeyDirection, KeySpeed, KeyStayPoints, KeyUTurns}
	for i, d := range r.Descriptors() {
		if d.Key != wantKeys[i] {
			t.Fatalf("descriptor %d key = %q, want %q", i, d.Key, wantKeys[i])
		}
		if i < 3 && d.Class != Routing {
			t.Errorf("%s should be routing", d.Key)
		}
		if i >= 3 && d.Class != Moving {
			t.Errorf("%s should be moving", d.Key)
		}
	}
	if r.IndexOf(KeySpeed) != 3 || r.IndexOf("nope") != -1 {
		t.Fatal("IndexOf wrong")
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewDefaultRegistry()
	if err := r.Register(NewSpeed()); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if err := r.Register(badExtractor{}); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := r.Register(NewSpeedChange()); err != nil {
		t.Fatalf("SpeC registration failed: %v", err)
	}
	if r.Len() != 7 || r.IndexOf(KeySpeedChange) != 6 {
		t.Fatalf("after extension Len = %d and SpeC index = %d, want 7 and 6", r.Len(), r.IndexOf(KeySpeedChange))
	}
}

type badExtractor struct{}

func (badExtractor) Descriptor() Descriptor                 { return Descriptor{} }
func (badExtractor) Extract(traj.Segment, *Context) float64 { return 0 }

func TestRoutingExtraction(t *testing.T) {
	_, ctx := testWorld(t)
	// Drive only on the highway portion.
	seg := wholeSegment(drive(60, 100, 1900))
	if got := (GradeOfRoad{}).Extract(seg, ctx); got != float64(roadnet.GradeHighway) {
		t.Errorf("grade = %v, want 1", got)
	}
	if got := (RoadWidth{}).Extract(seg, ctx); math.Abs(got-28) > 0.01 {
		t.Errorf("width = %v, want 28", got)
	}
	if got := (TrafficDirection{}).Extract(seg, ctx); got != float64(roadnet.TwoWay) {
		t.Errorf("direction = %v, want two-way", got)
	}

	// Drive only on the village road.
	seg2 := wholeSegment(drive(30, 2100, 2900))
	if got := (GradeOfRoad{}).Extract(seg2, ctx); got != float64(roadnet.GradeVillage) {
		t.Errorf("grade = %v, want 6", got)
	}
	if got := (TrafficDirection{}).Extract(seg2, ctx); got != float64(roadnet.OneWay) {
		t.Errorf("direction = %v, want one-way", got)
	}
}

func TestRoutingUnmatched(t *testing.T) {
	_, ctx := testWorld(t)
	// Trajectory far south of the network.
	r := &traj.Raw{ID: "far"}
	p := geo.Destination(base, 180, 5000)
	for i := 0; i < 5; i++ {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(p, 90, float64(i)*50), T: start.Add(time.Duration(i) * 5 * time.Second)})
	}
	seg := wholeSegment(r)
	if got := (GradeOfRoad{}).Extract(seg, ctx); got != 0 {
		t.Errorf("unmatched grade = %v", got)
	}
	if got := (RoadWidth{}).Extract(seg, ctx); got != 0 {
		t.Errorf("unmatched width = %v", got)
	}
	if got := (TrafficDirection{}).Extract(seg, ctx); got != 0 {
		t.Errorf("unmatched direction = %v", got)
	}
}

func TestSegmentEdgesCached(t *testing.T) {
	_, ctx := testWorld(t)
	seg := wholeSegment(drive(60, 100, 900))
	e1 := ctx.SegmentEdges(seg)
	e2 := ctx.SegmentEdges(seg)
	if len(e1) == 0 || len(e1) != len(e2) {
		t.Fatalf("cache mismatch: %d vs %d", len(e1), len(e2))
	}
	if &e1[0] != &e2[0] {
		t.Fatal("second call should return the cached slice")
	}
}

func TestSpeedExtraction(t *testing.T) {
	seg := wholeSegment(drive(72, 0, 1000))
	got := NewSpeed().Extract(seg, nil)
	if math.Abs(got-72) > 1 {
		t.Fatalf("speed = %v, want about 72", got)
	}
}

func TestSpeedDegenerate(t *testing.T) {
	r := &traj.Raw{ID: "x", Samples: []traj.Sample{
		{Pt: base, T: start}, {Pt: base, T: start},
	}}
	if got := NewSpeed().Extract(wholeSegment(r), nil); got != 0 {
		t.Fatalf("zero-duration speed = %v", got)
	}
}

func TestStayPointDetection(t *testing.T) {
	// 500m drive, then 120 seconds stationary, then 500m more.
	r := drive(36, 0, 500) // 10 m/s, 5s sampling
	stayAt := r.Samples[len(r.Samples)-1]
	ts := stayAt.T
	for i := 0; i < 24; i++ { // 120s of jitter within 10m
		ts = ts.Add(5 * time.Second)
		r.Samples = append(r.Samples, traj.Sample{
			Pt: geo.Destination(stayAt.Pt, float64(i*37%360), 5),
			T:  ts,
		})
	}
	for d := 0.0; d <= 500; d += 50 {
		ts = ts.Add(5 * time.Second)
		r.Samples = append(r.Samples, traj.Sample{
			Pt: geo.Destination(stayAt.Pt, 90, d+50),
			T:  ts,
		})
	}
	sp := NewStayPoints()
	stays := sp.Detect(r.Samples)
	if len(stays) != 1 {
		t.Fatalf("stays = %d, want 1", len(stays))
	}
	if stays[0].Duration < 115*time.Second {
		t.Fatalf("stay duration = %v", stays[0].Duration)
	}
	if d := geo.Distance(stays[0].Center, stayAt.Pt); d > 20 {
		t.Fatalf("stay centre %v is %vm from the stop", stays[0].Center, d)
	}
	if got := sp.Extract(wholeSegment(r), nil); got != 1 {
		t.Fatalf("Extract = %v", got)
	}
}

func TestNoStayOnSteadyDrive(t *testing.T) {
	seg := wholeSegment(drive(60, 0, 2000))
	if got := NewStayPoints().Extract(seg, nil); got != 0 {
		t.Fatalf("steady drive stays = %v", got)
	}
}

func TestUTurnDetection(t *testing.T) {
	// Drive 500m east then back west: exactly one U-turn near the apex.
	r := &traj.Raw{ID: "u"}
	ts := start
	for d := 0.0; d <= 500; d += 50 {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(base, 90, d), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	for d := 450.0; d >= 0; d -= 50 {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(base, 90, d), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	ut := NewUTurns()
	turns := ut.Detect(r.Samples)
	if len(turns) != 1 {
		t.Fatalf("turns = %d, want 1", len(turns))
	}
	apex := geo.Destination(base, 90, 500)
	if d := geo.Distance(turns[0].At, apex); d > 120 {
		t.Fatalf("turn detected %vm from apex", d)
	}
	if got := ut.Extract(wholeSegment(r), nil); got != 1 {
		t.Fatalf("Extract = %v", got)
	}
}

func TestNoUTurnOnStraightDrive(t *testing.T) {
	seg := wholeSegment(drive(60, 0, 2000))
	if got := NewUTurns().Extract(seg, nil); got != 0 {
		t.Fatalf("straight drive U-turns = %v", got)
	}
}

func TestNoUTurnOnLShape(t *testing.T) {
	// East 500 m, then north 500 m: a 90° corner is not a U-turn.
	r := &traj.Raw{ID: "L"}
	ts := start
	for d := 0.0; d <= 500; d += 50 {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(base, 90, d), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	corner := geo.Destination(base, 90, 500)
	for d := 50.0; d <= 500; d += 50 {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(corner, 0, d), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	if got := NewUTurns().Extract(wholeSegment(r), nil); got != 0 {
		t.Fatalf("L-shape U-turns = %v", got)
	}
}

func TestSpeedChange(t *testing.T) {
	// 60 km/h then an abrupt drop to 10 km/h: one sharp change.
	r := &traj.Raw{ID: "sc"}
	ts := start
	d := 0.0
	for i := 0; i < 10; i++ {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(base, 90, d), T: ts})
		d += 60 / 3.6 * 5
		ts = ts.Add(5 * time.Second)
	}
	for i := 0; i < 10; i++ {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(base, 90, d), T: ts})
		d += 10 / 3.6 * 5
		ts = ts.Add(5 * time.Second)
	}
	got := NewSpeedChange().Extract(wholeSegment(r), nil)
	if got != 1 {
		t.Fatalf("sharp changes = %v, want 1", got)
	}
	if got := NewSpeedChange().Extract(wholeSegment(drive(60, 0, 1500)), nil); got != 0 {
		t.Fatalf("steady drive changes = %v", got)
	}
}

func TestExtractAllAndNormalize(t *testing.T) {
	_, ctx := testWorld(t)
	r := drive(60, 100, 2900)
	s := &traj.Symbolic{ID: r.ID, Raw: r, Visits: []traj.Visit{
		{Landmark: 0, T: r.Start(), RawIndex: 0},
		{Landmark: 1, T: r.Samples[len(r.Samples)/2].T, RawIndex: len(r.Samples) / 2},
		{Landmark: 2, T: r.End(), RawIndex: len(r.Samples) - 1},
	}}
	reg := NewDefaultRegistry()
	matrix := reg.ExtractAll(s, ctx)
	if len(matrix) != 2 || len(matrix[0]) != 6 {
		t.Fatalf("matrix shape = %dx%d", len(matrix), len(matrix[0]))
	}
	norm := NormalizeByMax(matrix)
	for j := 0; j < 6; j++ {
		maxV := 0.0
		for i := range norm {
			v := norm[i][j]
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("normalized value out of range: %v", v)
			}
			if v > maxV {
				maxV = v
			}
		}
		// Columns with any nonzero raw value normalize their max to 1.
		rawMax := math.Max(matrix[0][j], matrix[1][j])
		if rawMax > 0 && math.Abs(maxV-1) > 1e-9 {
			t.Fatalf("dimension %d max = %v, want 1", j, maxV)
		}
	}
	if NormalizeByMax(nil) != nil {
		t.Fatal("NormalizeByMax(nil) should be nil")
	}
}

func TestWeightsVector(t *testing.T) {
	reg := NewDefaultRegistry()
	w := Weights{KeySpeed: 2.5, KeyUTurns: 0, "unknown": 9}
	v := w.VectorFor(reg)
	if v[reg.IndexOf(KeySpeed)] != 2.5 {
		t.Errorf("speed weight = %v", v[reg.IndexOf(KeySpeed)])
	}
	if v[reg.IndexOf(KeyUTurns)] != 0 {
		t.Errorf("explicit zero weight = %v", v[reg.IndexOf(KeyUTurns)])
	}
	if v[reg.IndexOf(KeyGradeOfRoad)] != 1 {
		t.Errorf("default weight = %v", v[reg.IndexOf(KeyGradeOfRoad)])
	}
	var nilW Weights
	for _, x := range nilW.VectorFor(reg) {
		if x != 1 {
			t.Fatal("nil weights should default to 1")
		}
	}
}

func TestClassString(t *testing.T) {
	if Routing.String() != "routing" || Moving.String() != "moving" {
		t.Fatal("class strings wrong")
	}
}
