package roadnet

import (
	"math"
	"testing"

	"stmaker/internal/geo"
)

var testOrigin = geo.Point{Lat: 39.9, Lng: 116.4}

// buildGrid creates an n x n grid graph with spacing metres between
// neighbouring nodes, all edges two-way provincial roads. Node (r,c) has id
// r*n+c; horizontal and vertical edges connect neighbours.
func buildGrid(t *testing.T, n int, spacing float64) *Graph {
	t.Helper()
	g := &Graph{}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			p := geo.Destination(geo.Destination(testOrigin, 90, float64(c)*spacing), 0, float64(r)*spacing)
			g.AddNode(p, true)
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			id := NodeID(r*n + c)
			if c+1 < n {
				if _, err := g.AddEdge(id, id+1, "h", GradeProvincial, 0, TwoWay, nil); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < n {
				if _, err := g.AddEdge(id, NodeID((r+1)*n+c), "v", GradeProvincial, 0, TwoWay, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(testOrigin, false)
	b := g.AddNode(geo.Destination(testOrigin, 90, 100), false)
	if _, err := g.AddEdge(a, 99, "x", GradeHighway, 10, TwoWay, nil); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := g.AddEdge(a, b, "x", Grade(0), 10, TwoWay, nil); err == nil {
		t.Error("invalid grade accepted")
	}
	if _, err := g.AddEdge(a, b, "x", GradeHighway, 10, Direction(5), nil); err == nil {
		t.Error("invalid direction accepted")
	}
	id, err := g.AddEdge(a, b, "x", GradeHighway, 0, TwoWay, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edge(id)
	if e.Width != GradeHighway.TypicalWidthMeters() {
		t.Errorf("default width = %v", e.Width)
	}
	if math.Abs(e.Length()-100) > 1 {
		t.Errorf("edge length = %v, want about 100", e.Length())
	}
	if len(e.Geometry) != 2 {
		t.Errorf("default geometry = %v", e.Geometry)
	}
}

func TestShortestPathGrid(t *testing.T) {
	g := buildGrid(t, 3, 500)
	// From corner (0,0)=0 to corner (2,2)=8: 4 edges of 500m = 2000m.
	p, err := g.ShortestPath(0, 8, ByDistance)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Cost-2000) > 5 {
		t.Fatalf("cost = %v, want about 2000", p.Cost)
	}
	if len(p.Steps) != 4 {
		t.Fatalf("steps = %d, want 4", len(p.Steps))
	}
	ids := p.NodeIDs(0)
	if ids[0] != 0 || ids[len(ids)-1] != 8 {
		t.Fatalf("node ids = %v", ids)
	}
	// Consecutive steps chain.
	for i, s := range p.Steps {
		if i > 0 && p.Steps[i-1].To != s.From {
			t.Fatalf("steps do not chain at %d", i)
		}
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := buildGrid(t, 2, 100)
	p, err := g.ShortestPath(1, 1, nil)
	if err != nil || len(p.Steps) != 0 || p.Cost != 0 {
		t.Fatalf("same-node path: %+v err=%v", p, err)
	}
	ids := p.NodeIDs(1)
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("NodeIDs = %v", ids)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(testOrigin, false)
	b := g.AddNode(geo.Destination(testOrigin, 90, 100), false)
	if _, err := g.ShortestPath(a, b, nil); err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	if _, err := g.ShortestPath(-1, b, nil); err != ErrNoPath {
		t.Fatalf("out-of-range err = %v", err)
	}
}

func TestOneWayRestriction(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(testOrigin, false)
	b := g.AddNode(geo.Destination(testOrigin, 90, 100), false)
	if _, err := g.AddEdge(a, b, "ow", GradeExpress, 10, OneWay, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ShortestPath(a, b, nil); err != nil {
		t.Fatalf("forward one-way: %v", err)
	}
	if _, err := g.ShortestPath(b, a, nil); err != ErrNoPath {
		t.Fatalf("reverse one-way should be unreachable, got %v", err)
	}
}

func TestTwoWayReverseTraversal(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(testOrigin, false)
	b := g.AddNode(geo.Destination(testOrigin, 90, 100), false)
	g.AddEdge(a, b, "tw", GradeExpress, 10, TwoWay, nil)
	p, err := g.ShortestPath(b, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Steps[0].Reverse {
		t.Fatal("reverse traversal not flagged")
	}
	geom := EdgeGeometry(p.Steps[0].Edge, true)
	if geom[0] != g.Node(b).Pt || geom[len(geom)-1] != g.Node(a).Pt {
		t.Fatalf("reversed geometry wrong: %v", geom)
	}
}

func TestByTravelTimePrefersFastRoad(t *testing.T) {
	// Two routes a→b: a direct village road (400m) and a longer highway
	// detour (600m via c). Travel time should prefer the highway.
	g := &Graph{}
	a := g.AddNode(testOrigin, false)
	b := g.AddNode(geo.Destination(testOrigin, 90, 400), false)
	c := g.AddNode(geo.Destination(testOrigin, 45, 300), false)
	slow, _ := g.AddEdge(a, b, "village", GradeVillage, 0, TwoWay, nil)
	g.AddEdge(a, c, "hw1", GradeHighway, 0, TwoWay, nil)
	g.AddEdge(c, b, "hw2", GradeHighway, 0, TwoWay, nil)

	pd, err := g.ShortestPath(a, b, ByDistance)
	if err != nil {
		t.Fatal(err)
	}
	if len(pd.Steps) != 1 || pd.Steps[0].Edge.ID != slow {
		t.Fatalf("distance route should take the direct road")
	}
	pt, err := g.ShortestPath(a, b, ByTravelTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Steps) != 2 {
		t.Fatalf("time route should take the highway detour, got %d steps", len(pt.Steps))
	}
}

func TestEdgeBetween(t *testing.T) {
	g := buildGrid(t, 2, 100)
	if e := g.EdgeBetween(0, 1); e == nil {
		t.Fatal("expected edge 0-1")
	}
	if e := g.EdgeBetween(1, 0); e == nil {
		t.Fatal("expected reverse edge 1-0 (two-way)")
	}
	if e := g.EdgeBetween(0, 3); e != nil {
		t.Fatal("no direct edge 0-3 expected")
	}
}

func TestNeighbors(t *testing.T) {
	g := buildGrid(t, 3, 100)
	// Centre node 4 has 4 neighbours.
	nbrs := g.Neighbors(4)
	if len(nbrs) != 4 {
		t.Fatalf("centre neighbours = %d, want 4", len(nbrs))
	}
	seen := map[NodeID]bool{}
	for _, nb := range nbrs {
		seen[nb.To] = true
	}
	for _, want := range []NodeID{1, 3, 5, 7} {
		if !seen[want] {
			t.Errorf("missing neighbour %d", want)
		}
	}
}

func TestMatcher(t *testing.T) {
	g := buildGrid(t, 3, 500)
	m := NewMatcher(g)
	// A point 30m north of the midpoint of the bottom edge 0-1.
	mid := geo.Midpoint(g.Node(0).Pt, g.Node(1).Pt)
	q := geo.Destination(mid, 0, 30)
	match, ok := m.NearestEdge(q, 100, nil)
	if !ok {
		t.Fatal("no match found")
	}
	if match.Edge.From != 0 || match.Edge.To != 1 {
		t.Fatalf("matched edge %d-%d", match.Edge.From, match.Edge.To)
	}
	if math.Abs(match.Distance-30) > 2 {
		t.Fatalf("match distance = %v", match.Distance)
	}
	if math.Abs(match.Along-250) > 10 {
		t.Fatalf("match along = %v, want about 250", match.Along)
	}

	// Far away: no match.
	far := geo.Destination(testOrigin, 180, 5000)
	if _, ok := m.NearestEdge(far, 100, nil); ok {
		t.Fatal("unexpected match far from network")
	}
}

func TestNearestNode(t *testing.T) {
	g := buildGrid(t, 2, 1000)
	q := geo.Destination(g.Node(3).Pt, 45, 40)
	id, ok := g.NearestNode(q)
	if !ok || id != 3 {
		t.Fatalf("NearestNode = %d ok=%v, want 3", id, ok)
	}
	empty := &Graph{}
	if _, ok := empty.NearestNode(q); ok {
		t.Fatal("empty graph should have no nearest node")
	}
}

func TestGradeAndDirectionStrings(t *testing.T) {
	if GradeHighway.String() != "highway" || GradeFeeder.String() != "feeder road" {
		t.Error("grade names wrong")
	}
	if Grade(99).String() != "grade-99 road" {
		t.Errorf("unknown grade string = %q", Grade(99).String())
	}
	if !GradeHighway.Valid() || Grade(0).Valid() || Grade(8).Valid() {
		t.Error("grade validity wrong")
	}
	if OneWay.String() != "a one-way road" || TwoWay.String() != "a two-way road" {
		t.Error("direction names wrong")
	}
	if !OneWay.Valid() || Direction(0).Valid() {
		t.Error("direction validity wrong")
	}
}

func TestSpeedAndWidthMonotonic(t *testing.T) {
	for g := GradeHighway; g < GradeFeeder; g++ {
		if g.TypicalSpeedKmh() <= (g + 1).TypicalSpeedKmh() {
			t.Errorf("speed not decreasing at grade %d", g)
		}
		if g.TypicalWidthMeters() <= (g + 1).TypicalWidthMeters() {
			t.Errorf("width not decreasing at grade %d", g)
		}
	}
}

func TestEdgeSpeedLimitOverride(t *testing.T) {
	e := Edge{Grade: GradeHighway}
	if e.SpeedLimit() != 100 {
		t.Errorf("default speed = %v", e.SpeedLimit())
	}
	e.SpeedLimitKmh = 60
	if e.SpeedLimit() != 60 {
		t.Errorf("override speed = %v", e.SpeedLimit())
	}
	e.length = 1000
	want := 1000 / (60 / 3.6)
	if math.Abs(e.TravelTimeSeconds()-want) > 1e-9 {
		t.Errorf("travel time = %v, want %v", e.TravelTimeSeconds(), want)
	}
}

// Neighbors returns the traversable arcs leaving node n.
func (g *Graph) Neighbors(n NodeID) []Neighbor {
	arcs := g.out[n]
	out := make([]Neighbor, len(arcs))
	for i, a := range arcs {
		e := &g.edges[a.edge]
		to := e.To
		if a.reverse {
			to = e.From
		}
		out[i] = Neighbor{Edge: e, To: to, Reverse: a.reverse}
	}
	return out
}
