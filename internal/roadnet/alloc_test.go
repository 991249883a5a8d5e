package roadnet

import (
	"testing"

	"stmaker/internal/geo"
	"stmaker/internal/racedetect"
)

func skipUnderRace(t *testing.T) {
	if racedetect.Enabled() {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
}

// TestNearestEdgeAllocs guards the greedy matching path: a warm
// NearestEdge queries the index through pooled scratch and allocates
// nothing, with and without the previous sample's edge as the hint.
func TestNearestEdgeAllocs(t *testing.T) {
	skipUnderRace(t)
	m := NewMatcher(benchGrid(10, 400))
	pts := benchTrajectory(100)
	for _, chained := range []bool{false, true} {
		match := func() {
			var prev *Edge
			for _, p := range pts {
				got, ok := m.NearestEdge(p, 150, prev)
				if !ok {
					t.Fatalf("no edge near %v", p)
				}
				if chained {
					prev = got.Edge
				}
			}
		}
		match() // warm the pool
		if allocs := testing.AllocsPerRun(20, match); allocs != 0 {
			t.Fatalf("NearestEdge (chained %v) allocates %v times per %d samples, want 0", chained, allocs, len(pts))
		}
	}
}

// TestHMMCandidatesAllocs guards the HMM candidate query: warm, the
// band walk and the tie path both run in the step scratch and allocate
// nothing.
func TestHMMCandidatesAllocs(t *testing.T) {
	g := cornerTieGraph(t, 8)
	m := NewMatcher(g)
	pts := append(benchTrajectory(20), geo.Destination(testOrigin, 225, 10)) // the last fix ties
	var sc stepScratch
	query := func() {
		for _, p := range pts {
			sc.matches = m.appendBandCandidates(sc.matches[:0], &sc.match, p, hmmCandidateRadiusMeters, hmmMaxCandidates)
		}
	}
	query() // grow the buffers
	if allocs := testing.AllocsPerRun(20, query); allocs != 0 {
		t.Fatalf("a warm candidate query allocates %v times per %d fixes, want 0", allocs, len(pts))
	}
}

// TestMatchPointsAllocs guards the HMM path: with the scratch pool and
// the shared distance cache warm, MatchPoints allocates only the slice
// it returns.
func TestMatchPointsAllocs(t *testing.T) {
	skipUnderRace(t)
	h := NewHMMMatcher(benchGrid(10, 400), HMMOptions{Cache: NewSPCache(SPCacheOptions{})})
	pts := benchTrajectory(100)
	var got []Match
	match := func() { got = h.MatchPoints(pts) }
	match() // warm the pool and the cache
	if allocs := testing.AllocsPerRun(20, match); allocs != 1 {
		t.Fatalf("MatchPoints allocates %v times, want 1 (the returned slice)", allocs)
	}
	for i, m := range got {
		if m.Edge == nil {
			t.Fatalf("sample %d (%v) unmatched", i, pts[i])
		}
	}
}

// TestMatchPointsOverlayAllocs guards the overlay path of the HMM
// matcher: with a zero-gate overlay router, no distance cache and a
// sparse trajectory, every transition is certified and searched through
// the overlay, and MatchPoints still allocates only the slice it
// returns.
func TestMatchPointsOverlayAllocs(t *testing.T) {
	skipUnderRace(t)
	g := benchGrid(10, 400)
	h := NewHMMMatcher(g, HMMOptions{})
	h.SetRouter(zeroGateRouter(g, BuildOverlay(g, OverlayOptions{})))
	pts := benchSparseTrajectory(400, 4)
	match := func() { h.MatchPoints(pts) }
	match() // warm the pools
	if allocs := testing.AllocsPerRun(20, match); allocs != 1 {
		t.Fatalf("MatchPoints allocates %v times, want 1 (the returned slice)", allocs)
	}
}
