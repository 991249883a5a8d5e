package roadnet

import (
	"math"
	"math/rand"
	"testing"
)

// distances runs the bounded multi-target search into a fresh slice.
func distances(g *Graph, src NodeID, targets []NodeID, maxCost float64) []float64 {
	out := make([]float64, len(targets))
	g.distancesFrom(src, targets, maxCost, out)
	return out
}

// TestDistancesFromMatchesShortestPath is the multi-target search's core
// property: every unbounded result equals the point-to-point Dijkstra's
// cost exactly (bit-for-bit — the fast path's equivalence guarantee leans
// on this).
func TestDistancesFromMatchesShortestPath(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGrid(rng, 6, 250)
		for trial := 0; trial < 10; trial++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			targets := make([]NodeID, 0, 8)
			for i := 0; i < 8; i++ {
				targets = append(targets, NodeID(rng.Intn(g.NumNodes())))
			}
			targets = append(targets, src, targets[0]) // duplicates and self
			got := distances(g, src, targets, 0)
			for i, dst := range targets {
				path, err := g.ShortestPath(src, dst, ByDistance)
				if err != nil {
					if !math.IsInf(got[i], 1) {
						t.Fatalf("seed %d: %d->%d: got %v, want unreachable", seed, src, dst, got[i])
					}
					continue
				}
				if math.Float64bits(got[i]) != math.Float64bits(path.Cost) {
					t.Fatalf("seed %d: %d->%d: got %v, want %v", seed, src, dst, got[i], path.Cost)
				}
			}
		}
	}
}

// TestDistancesFromBounded checks the early-termination contract: finite
// results are exact and within the bound; +Inf results really are beyond
// it.
func TestDistancesFromBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGrid(rng, 8, 300)
	src := NodeID(0)
	targets := make([]NodeID, g.NumNodes())
	for i := range targets {
		targets[i] = NodeID(i)
	}
	const bound = 1200.0
	got := distances(g, src, targets, bound)
	sawFinite, sawInf := false, false
	for i, dst := range targets {
		path, err := g.ShortestPath(src, dst, ByDistance)
		if math.IsInf(got[i], 1) {
			sawInf = true
			if err == nil && path.Cost <= bound {
				t.Fatalf("%d->%d reported unreached but cost %v <= bound", src, dst, path.Cost)
			}
			continue
		}
		sawFinite = true
		if got[i] > bound {
			t.Fatalf("%d->%d: finite result %v beyond bound %v", src, dst, got[i], bound)
		}
		if err != nil || math.Float64bits(got[i]) != math.Float64bits(path.Cost) {
			t.Fatalf("%d->%d: bounded result %v, want exact %v (err %v)", src, dst, got[i], path, err)
		}
	}
	if !sawFinite || !sawInf {
		t.Fatalf("bound %v did not split the grid (finite=%v inf=%v)", bound, sawFinite, sawInf)
	}
}

func TestDistancesFromEdgeCases(t *testing.T) {
	g := buildGrid(t, 3, 400)

	// Empty targets.
	if got := distances(g, 0, nil, 0); len(got) != 0 {
		t.Fatalf("empty targets = %v", got)
	}
	// Out-of-range source: all +Inf.
	got := distances(g, -1, []NodeID{0, 1}, 0)
	for i, d := range got {
		if !math.IsInf(d, 1) {
			t.Fatalf("out-of-range src target %d = %v", i, d)
		}
	}
	// Out-of-range targets stay +Inf; valid ones resolve.
	got = distances(g, 0, []NodeID{-5, 1, NodeID(g.NumNodes() + 3)}, 0)
	if !math.IsInf(got[0], 1) || !math.IsInf(got[2], 1) {
		t.Fatalf("out-of-range targets = %v", got)
	}
	if math.IsInf(got[1], 1) {
		t.Fatalf("valid target unresolved: %v", got)
	}
	// Source as its own target: zero.
	if got := distances(g, 4, []NodeID{4}, 0); got[0] != 0 {
		t.Fatalf("self distance = %v", got)
	}
}

// TestShortestPathPooledStateReuse runs many searches back to back so
// pooled, epoch-stamped state is reused across different sources and
// graphs; any stale-slot bug would surface as a wrong cost.
func TestShortestPathPooledStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	small := buildGrid(t, 3, 400)
	big := randomGrid(rng, 7, 200)
	for i := 0; i < 200; i++ {
		// Alternate graph sizes so the pooled arrays shrink/grow their
		// valid region between calls.
		if i%2 == 0 {
			src := NodeID(rng.Intn(big.NumNodes()))
			dst := NodeID(rng.Intn(big.NumNodes()))
			p1, err1 := big.ShortestPath(src, dst, ByDistance)
			p2, err2 := big.ShortestPath(src, dst, ByDistance)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("iteration %d: inconsistent reachability", i)
			}
			if err1 == nil && math.Float64bits(p1.Cost) != math.Float64bits(p2.Cost) {
				t.Fatalf("iteration %d: costs diverge %v vs %v", i, p1.Cost, p2.Cost)
			}
		} else {
			if _, err := small.ShortestPath(0, 8, ByTravelTime); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
	}
}
