package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"stmaker/internal/geo"
)

// distanceAlong is the oracle of Match.Along: the distance in metres
// from the start of pl to the point identified by segment index and
// fraction (as returned by NearestPoint), taking each segment's
// haversine as the sum goes.
func distanceAlong(pl geo.Polyline, segIdx int, t float64) float64 {
	var d float64
	for i := 0; i < segIdx && i < len(pl)-1; i++ {
		d += geo.Distance(pl[i], pl[i+1])
	}
	if segIdx < len(pl)-1 {
		d += geo.Distance(pl[segIdx], pl[segIdx+1]) * t
	}
	return d
}

// randomPolylineGraph builds a graph of n edges whose geometries are
// random walks of 1 to 12 segments, 0 to 250 m each (a zero-length
// segment included now and then), scattered over a few kilometres.
func randomPolylineGraph(t *testing.T, rng *rand.Rand, n int) *Graph {
	t.Helper()
	g := &Graph{}
	for i := 0; i < n; i++ {
		p := geo.Destination(testOrigin, rng.Float64()*360, rng.Float64()*3000)
		pl := geo.Polyline{p}
		for s := 1 + rng.Intn(12); s > 0; s-- {
			step := rng.Float64() * 250
			if rng.Intn(10) == 0 {
				step = 0
			}
			p = geo.Destination(p, rng.Float64()*360, step)
			pl = append(pl, p)
		}
		from, to := g.AddNode(pl[0], false), g.AddNode(pl[len(pl)-1], false)
		if _, err := g.AddEdge(from, to, "walk", GradeProvincial, 0, TwoWay, pl); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// requireAlong fails unless m.Along is the oracle's value for the
// projection NearestPoint gives p on m.Edge, to the bit.
func requireAlong(t *testing.T, m Match, p geo.Point, label string) {
	t.Helper()
	_, seg, frac := m.Edge.Geometry.NearestPoint(p)
	if want := distanceAlong(m.Edge.Geometry, seg, frac); math.Float64bits(m.Along) != math.Float64bits(want) {
		t.Fatalf("%s: edge %d, fix %v: Along %v, distanceAlong %v", label, m.Edge.ID, p, m.Along, want)
	}
}

// TestAlongMatchesDistanceAlong checks the stored segment lengths. On an
// edge of two 1000 m segments, a fix 100 m off the middle of the second
// lies about 1500 m along it. On random multi-segment geometries, Length
// is the geometry's haversine length, Edge.along gives the oracle's bits
// at every segment's ends and at random fractions, and so do the Along
// of greedy matches, hinted or not, and of HMM candidates.
func TestAlongMatchesDistanceAlong(t *testing.T) {
	known := &Graph{}
	mid := geo.Destination(testOrigin, 90, 1000)
	end := geo.Destination(mid, 90, 1000)
	from, to := known.AddNode(testOrigin, false), known.AddNode(end, false)
	if _, err := known.AddEdge(from, to, "two segments", GradeProvincial, 0, TwoWay, geo.Polyline{testOrigin, mid, end}); err != nil {
		t.Fatal(err)
	}
	fix := geo.Destination(geo.Destination(mid, 90, 500), 0, 100)
	got, ok := NewMatcher(known).NearestEdge(fix, 150, nil)
	if !ok || math.Abs(got.Along-1500) > 10 {
		t.Fatalf("a fix 100 m off the middle of the second 1000 m segment: match %v, Along %v, want about 1500", ok, got.Along)
	}
	requireAlong(t, got, fix, "two-segment match")

	rng := rand.New(rand.NewSource(17))
	g := randomPolylineGraph(t, rng, 200)
	for i := range g.Edges() {
		e := g.Edge(EdgeID(i))
		if math.Float64bits(e.Length()) != math.Float64bits(e.Geometry.Length()) {
			t.Fatalf("edge %d: Length %v, Geometry.Length %v", i, e.Length(), e.Geometry.Length())
		}
		for seg := 0; seg <= len(e.Geometry); seg++ {
			for _, frac := range []float64{0, 1, rng.Float64()} {
				if got, want := e.along(seg, frac), distanceAlong(e.Geometry, seg, frac); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("edge %d, segment %d, t %v: along %v, distanceAlong %v", i, seg, frac, got, want)
				}
			}
		}
	}

	m := NewMatcher(g)
	var (
		sc    matchScratch
		cands []Match
		prev  *Edge
	)
	for i := 0; i < 2000; i++ {
		p := geo.Destination(testOrigin, rng.Float64()*360, rng.Float64()*3200)
		if got, ok := m.NearestEdge(p, 150, nil); ok {
			requireAlong(t, got, p, "unhinted match")
			hinted, _ := m.NearestEdge(p, 150, prev)
			requireAlong(t, hinted, p, "hinted match")
			prev = got.Edge
		}
		cands = m.appendBandCandidates(cands[:0], &sc, p, hmmCandidateRadiusMeters, hmmMaxCandidates)
		for _, c := range cands {
			requireAlong(t, c, p, "HMM candidate")
		}
	}
}
