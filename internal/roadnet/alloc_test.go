package roadnet

import (
	"testing"

	"stmaker/internal/racedetect"
)

func skipUnderRace(t *testing.T) {
	if racedetect.Enabled() {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
}

// TestNearestEdgeAllocs guards the greedy matching path: a warm
// NearestEdge queries the index through pooled scratch and allocates
// nothing.
func TestNearestEdgeAllocs(t *testing.T) {
	skipUnderRace(t)
	m := NewMatcher(benchGrid(10, 400))
	pts := benchTrajectory(100)
	match := func() {
		for _, p := range pts {
			if _, ok := m.NearestEdge(p, 150); !ok {
				t.Fatalf("no edge near %v", p)
			}
		}
	}
	match() // warm the pool
	if allocs := testing.AllocsPerRun(20, match); allocs != 0 {
		t.Fatalf("NearestEdge allocates %v times per %d samples, want 0", allocs, len(pts))
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
