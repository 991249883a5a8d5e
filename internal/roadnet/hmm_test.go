package roadnet

import (
	"math/rand"
	"testing"

	"stmaker/internal/geo"
)

// parallelRoads builds two parallel east-west roads 60m apart plus a
// connector, to exercise the HMM's ability to stay on one road despite
// noisy samples that are sometimes nearer the other.
func parallelRoads(t *testing.T) (*Graph, EdgeID, EdgeID) {
	t.Helper()
	g := &Graph{}
	a0 := g.AddNode(testOrigin, false)
	a1 := g.AddNode(geo.Destination(testOrigin, 90, 2000), false)
	north := geo.Destination(testOrigin, 0, 60)
	b0 := g.AddNode(north, false)
	b1 := g.AddNode(geo.Destination(north, 90, 2000), false)
	south, err := g.AddEdge(a0, a1, "South Rd", GradeProvincial, 0, TwoWay, nil)
	if err != nil {
		t.Fatal(err)
	}
	northE, err := g.AddEdge(b0, b1, "North Rd", GradeProvincial, 0, TwoWay, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(a0, b0, "Link", GradeFeeder, 0, TwoWay, nil); err != nil {
		t.Fatal(err)
	}
	return g, south, northE
}

func TestHMMStaysOnOneRoad(t *testing.T) {
	g, south, _ := parallelRoads(t)
	h := NewHMMMatcher(g, HMMOptions{})
	rng := rand.New(rand.NewSource(3))

	// Drive along the south road with 20m of noise: about a third of the
	// noisy points are nearer the north road, but the joint decoding
	// should keep (almost) everything on the south road.
	var pts []geo.Point
	for d := 0.0; d <= 2000; d += 50 {
		p := geo.Destination(testOrigin, 90, d)
		pts = append(pts, geo.Destination(p, rng.Float64()*360, rng.Float64()*20))
	}
	matches := h.MatchPoints(pts)
	var onSouth, matched int
	for _, m := range matches {
		if m.Edge == nil {
			continue
		}
		matched++
		if m.Edge.ID == south {
			onSouth++
		}
	}
	if matched < len(pts)*9/10 {
		t.Fatalf("matched only %d/%d points", matched, len(pts))
	}
	if onSouth < matched*9/10 {
		t.Fatalf("HMM flip-flopped: %d/%d on the travelled road", onSouth, matched)
	}

	// The greedy nearest-edge matcher, by contrast, must flip to the north
	// road for points whose noise pushed them past the midline; verify the
	// HMM strictly improves on it.
	m := NewMatcher(g)
	greedySouth := 0
	for _, p := range pts {
		if match, ok := m.NearestEdge(p, 150); ok && match.Edge.ID == south {
			greedySouth++
		}
	}
	if onSouth < greedySouth {
		t.Fatalf("HMM (%d) should not be worse than greedy (%d)", onSouth, greedySouth)
	}
}

func TestHMMAlongIsMonotonic(t *testing.T) {
	g, south, _ := parallelRoads(t)
	h := NewHMMMatcher(g, HMMOptions{})
	var pts []geo.Point
	for d := 100.0; d <= 1900; d += 100 {
		pts = append(pts, geo.Destination(testOrigin, 90, d))
	}
	matches := h.MatchPoints(pts)
	var lastAlong float64 = -1
	for i, m := range matches {
		if m.Edge == nil || m.Edge.ID != south {
			t.Fatalf("point %d not matched to the travelled road", i)
		}
		if m.Along < lastAlong-1 {
			t.Fatalf("along positions not monotone at %d: %v then %v", i, lastAlong, m.Along)
		}
		lastAlong = m.Along
	}
}

func TestHMMGapRestartsChain(t *testing.T) {
	g, south, _ := parallelRoads(t)
	h := NewHMMMatcher(g, HMMOptions{})
	pts := []geo.Point{
		geo.Destination(testOrigin, 90, 100),
		geo.Destination(testOrigin, 180, 5000), // far off the network
		geo.Destination(testOrigin, 90, 300),
	}
	matches := h.MatchPoints(pts)
	if matches[0].Edge == nil || matches[0].Edge.ID != south {
		t.Fatal("first point unmatched")
	}
	if matches[1].Edge != nil {
		t.Fatal("off-network point should be unmatched")
	}
	if matches[2].Edge == nil || matches[2].Edge.ID != south {
		t.Fatal("chain did not restart after the gap")
	}
}

func TestHMMEmptyInput(t *testing.T) {
	g, _, _ := parallelRoads(t)
	h := NewHMMMatcher(g, HMMOptions{})
	if got := h.MatchPoints(nil); len(got) != 0 {
		t.Fatalf("empty input matches = %v", got)
	}
}

func TestHMMNetworkDistanceSameEdge(t *testing.T) {
	g, south, _ := parallelRoads(t)
	h := NewHMMMatcher(g, HMMOptions{})
	e := g.Edge(south)
	a := Match{Edge: e, Along: 100}
	b := Match{Edge: e, Along: 350}
	if d := h.networkDistance(new(stepScratch), a, b); d != 250 {
		t.Fatalf("same-edge distance = %v", d)
	}
	if d := newReferenceHMM(g).networkDistance(a, b); d != 250 {
		t.Fatalf("reference same-edge distance = %v", d)
	}
}

func TestCandidateEdgesOrderedAndCapped(t *testing.T) {
	g, south, northE := parallelRoads(t)
	m := NewMatcher(g)
	// A point 20m north of the south road: south is nearer than north.
	p := geo.Destination(geo.Destination(testOrigin, 90, 1000), 0, 20)
	cands := m.appendCandidates(nil, new(matchScratch), p, 150, 10)
	if len(cands) < 2 {
		t.Fatalf("candidates = %d", len(cands))
	}
	if cands[0].Edge.ID != south || cands[1].Edge.ID != northE {
		t.Fatalf("candidate order wrong: %v then %v", cands[0].Edge.ID, cands[1].Edge.ID)
	}
	if got := m.appendCandidates(nil, new(matchScratch), p, 150, 1); len(got) != 1 {
		t.Fatalf("cap ignored: %d", len(got))
	}
}
