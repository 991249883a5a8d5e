package roadnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stmaker/internal/geo"
	"stmaker/internal/spatial"
)

// requireSameMatch fails unless a hinted NearestEdge result equals the
// unhinted one: the same edge, the same Distance and Along bits, and the
// same ok.
func requireSameMatch(t *testing.T, got Match, gotOK bool, want Match, wantOK bool, label string) {
	t.Helper()
	if gotOK != wantOK || got.Edge != want.Edge ||
		math.Float64bits(got.Distance) != math.Float64bits(want.Distance) ||
		math.Float64bits(got.Along) != math.Float64bits(want.Along) {
		t.Fatalf("%s: hinted %s, unhinted %s", label, describeMatch(got, gotOK), describeMatch(want, wantOK))
	}
}

func describeMatch(m Match, ok bool) string {
	if !ok {
		return "no match"
	}
	return fmt.Sprintf("edge %d (%s) %v m away, %v m along", m.Edge.ID, m.Edge.Name, m.Distance, m.Along)
}

// cornerTieGraph is a corner node with two 400 m edges starting at it,
// one east and one north, and clutter: radial 60 m edges 130–190 m to
// the corner's south-west that touch neither corner edge. A fix in the
// corner's south-west quadrant projects onto the corner node from both
// corner edges, so its distance to each is the same computation on the
// same numbers: an exact tie, decided by which edge's sample the query
// meets first.
func cornerTieGraph(t *testing.T, clutter int) *Graph {
	t.Helper()
	g := &Graph{}
	corner := g.AddNode(testOrigin, true)
	east := g.AddNode(geo.Destination(testOrigin, 90, 400), true)
	north := g.AddNode(geo.Destination(testOrigin, 0, 400), true)
	for _, to := range []NodeID{east, north} {
		if _, err := g.AddEdge(corner, to, "corner", GradeProvincial, 0, TwoWay, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < clutter; i++ {
		bearing := 195 + 60*float64(i)/float64(clutter)
		a := g.AddNode(geo.Destination(testOrigin, bearing, 130), false)
		b := g.AddNode(geo.Destination(testOrigin, bearing, 190), false)
		if _, err := g.AddEdge(a, b, "clutter", GradeProvincial, 0, TwoWay, nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestNearestEdgeHintTies pins the tie rule of the hinted query. Every
// fix ties exactly between the two corner edges, and with the clutter
// the full query has more than 12 hits, where slices.SortFunc switches
// from insertion sort to pdqsort and no longer keeps equal hits in walk
// order. A hinted query that kept its narrow winner, or the hint
// itself, would then disagree with the full query on many fixes.
func TestNearestEdgeHintTies(t *testing.T) {
	g := cornerTieGraph(t, 4)
	m := NewMatcher(g)
	const maxDist = 150
	rng := rand.New(rand.NewSource(3))
	var hits []spatial.Result
	for i := 0; i < 2000; i++ {
		p := geo.Destination(testOrigin, 180+90*(0.001+0.998*rng.Float64()), 25*(0.001+0.999*rng.Float64()))
		de, _, _ := g.Edge(0).Geometry.NearestPoint(p)
		dn, _, _ := g.Edge(1).Geometry.NearestPoint(p)
		if math.Float64bits(de) != math.Float64bits(dn) {
			t.Fatalf("fix %v is %v m from the east edge but %v m from the north edge", p, de, dn)
		}
		if hits = m.ix.AppendWithin(hits[:0], p, maxDist+matchSampleSpacing); len(hits) <= 12 {
			t.Fatalf("full query from %v has %d hits, want more than 12", p, len(hits))
		}
		want, wantOK := m.NearestEdge(p, maxDist, nil)
		if !wantOK || want.Edge.Name != "corner" {
			t.Fatalf("fix %v matched %s, want a corner edge", p, describeMatch(want, wantOK))
		}
		for id := range g.Edges() {
			got, ok := m.NearestEdge(p, maxDist, g.Edge(EdgeID(id)))
			requireSameMatch(t, got, ok, want, wantOK, "hint "+g.Edge(EdgeID(id)).Name)
		}
	}
}

// FuzzNearestEdgeHint checks the hint contract on fuzzer-chosen grids:
// whatever edge is the hint, near or far beyond maxDist, NearestEdge
// returns the unhinted result bit for bit. Each run also hints the
// unhinted winner itself, the hint greedy matching passes along a trace.
func FuzzNearestEdgeHint(f *testing.F) {
	f.Add(uint8(3), 100.0, -10.0, -12.0, uint16(0), 150.0)  // corner tie south-west of node 0
	f.Add(uint8(4), 400.0, 30.0, 200.0, uint16(0), 150.0)   // hint on the nearest edge
	f.Add(uint8(6), 300.0, 20.0, 150.0, uint16(55), 150.0)  // hint far beyond maxDist
	f.Add(uint8(5), 250.0, 500.0, 250.0, uint16(7), 1000.0) // fix exactly on a node
	f.Fuzz(func(t *testing.T, size uint8, spacing, north, east float64, hint uint16, maxDist float64) {
		n := 2 + int(size%9)
		if !(spacing >= 10 && spacing <= 2000) {
			spacing = 400
		}
		// Wrap the fix's offsets from node 0 into the grid and a
		// kilometre around it.
		extent := float64(n-1)*spacing + 2000
		wrap := func(x float64) float64 {
			x = math.Mod(x+1000, extent)
			if math.IsNaN(x) {
				return 0
			}
			if x < 0 {
				x += extent
			}
			return x - 1000
		}
		g := benchGrid(n, spacing)
		m := NewMatcher(g)
		p := geo.Destination(geo.Destination(testOrigin, 90, wrap(east)), 0, wrap(north))
		want, wantOK := m.NearestEdge(p, maxDist, nil)
		e := g.Edge(EdgeID(int(hint) % g.NumEdges()))
		got, ok := m.NearestEdge(p, maxDist, e)
		requireSameMatch(t, got, ok, want, wantOK, "fuzzer's hint")
		if wantOK {
			got, ok = m.NearestEdge(p, maxDist, want.Edge)
			requireSameMatch(t, got, ok, want, wantOK, "hint on the nearest edge")
		}
	})
}
