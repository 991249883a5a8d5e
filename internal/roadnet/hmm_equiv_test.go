package roadnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"stmaker/internal/geo"
)

// randomGrid builds an n×n grid graph with randomized grades, widths, and
// a sprinkle of one-way edges, for property testing the matcher against
// the reference decoder.
func randomGrid(rng *rand.Rand, n int, spacing float64) *Graph {
	g := &Graph{}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			p := geo.Destination(geo.Destination(testOrigin, 90, float64(c)*spacing), 0, float64(r)*spacing)
			g.AddNode(p, rng.Intn(4) == 0)
		}
	}
	grades := []Grade{GradeExpress, GradeNational, GradeProvincial, GradeCountry}
	addEdge := func(from, to NodeID, name string) {
		grade := grades[rng.Intn(len(grades))]
		dir := TwoWay
		// Keep one-way edges rare so detours stay short relative to the
		// fast path's search bound; the grid remains strongly connected
		// through the two-way majority.
		if rng.Intn(12) == 0 {
			dir = OneWay
		}
		if _, err := g.AddEdge(from, to, name, grade, 0, dir, nil); err != nil {
			panic(err)
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			id := NodeID(r*n + c)
			if c+1 < n {
				addEdge(id, id+1, fmt.Sprintf("h%d-%d", r, c))
			}
			if r+1 < n {
				addEdge(id, NodeID((r+1)*n+c), fmt.Sprintf("v%d-%d", r, c))
			}
		}
	}
	return g
}

// randomWalkPoints emits GPS points along a random drive over the graph,
// with up to 15m of noise and the occasional far-off outlier to exercise
// chain restarts.
func randomWalkPoints(rng *rand.Rand, g *Graph, numPoints int) []geo.Point {
	cur := NodeID(rng.Intn(g.NumNodes()))
	pts := make([]geo.Point, 0, numPoints)
	for len(pts) < numPoints {
		nbrs := g.Neighbors(cur)
		if len(nbrs) == 0 {
			cur = NodeID(rng.Intn(g.NumNodes()))
			continue
		}
		nb := nbrs[rng.Intn(len(nbrs))]
		geom := EdgeGeometry(nb.Edge, nb.Reverse)
		length := geom.Length()
		for d := 0.0; d < length && len(pts) < numPoints; d += 35 + rng.Float64()*30 {
			if rng.Intn(50) == 0 {
				// Outlier far off the network: both matchers must leave it
				// unmatched and restart the Viterbi chain after it.
				pts = append(pts, geo.Destination(testOrigin, 200, 50000))
				continue
			}
			p := geom.PointAt(d)
			pts = append(pts, geo.Destination(p, rng.Float64()*360, rng.Float64()*15))
		}
		cur = nb.To
	}
	return pts
}

// requireSameMatches fails unless the two match slices are byte-identical:
// same nil pattern, same edges, and bit-equal Distance/Along floats.
func requireSameMatches(t *testing.T, want, got []Match, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if (w.Edge == nil) != (g.Edge == nil) {
			t.Fatalf("%s: point %d unmatched mismatch (want unmatched=%v, got unmatched=%v)", label, i, w.Edge == nil, g.Edge == nil)
		}
		if w.Edge == nil {
			continue
		}
		if w.Edge.ID != g.Edge.ID {
			t.Fatalf("%s: point %d edge %d != %d", label, i, g.Edge.ID, w.Edge.ID)
		}
		if math.Float64bits(w.Distance) != math.Float64bits(g.Distance) {
			t.Fatalf("%s: point %d Distance %v != %v", label, i, g.Distance, w.Distance)
		}
		if math.Float64bits(w.Along) != math.Float64bits(g.Along) {
			t.Fatalf("%s: point %d Along %v != %v", label, i, g.Along, w.Along)
		}
	}
}

// TestHMMFastMatchesNaiveReference is the matcher's equivalence
// property: across randomized grid graphs and trajectories, the serving
// matcher (bounded multi-target searches, pooled state, shared distance
// cache) must produce byte-identical output to the reference decoder,
// both with a cold and a warm cache.
func TestHMMFastMatchesNaiveReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 6 + rng.Intn(4)
			spacing := 150 + rng.Float64()*100
			g := randomGrid(rng, n, spacing)
			cache := NewSPCache(SPCacheOptions{Capacity: 4096})
			fast := NewHMMMatcher(g, HMMOptions{Cache: cache})
			naive := newReferenceHMM(g)
			for trial := 0; trial < 3; trial++ {
				pts := randomWalkPoints(rng, g, 60)
				want := naive.MatchPoints(pts)
				cold := fast.MatchPoints(pts)
				requireSameMatches(t, want, cold, fmt.Sprintf("trial %d cold", trial))
				warm := fast.MatchPoints(pts)
				requireSameMatches(t, want, warm, fmt.Sprintf("trial %d warm", trial))
			}
			if s := cache.Stats(); s.Hits == 0 || s.Misses == 0 {
				t.Fatalf("cache never exercised: %+v", s)
			}
		})
	}
}

// TestHMMFastNoCacheMatchesNaive pins the cache-free matcher (a nil
// HMMOptions.Cache) to the same equivalence.
func TestHMMFastNoCacheMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGrid(rng, 7, 200)
	fast := NewHMMMatcher(g, HMMOptions{}) // nil cache
	naive := newReferenceHMM(g)
	pts := randomWalkPoints(rng, g, 80)
	requireSameMatches(t, naive.MatchPoints(pts), fast.MatchPoints(pts), "no-cache")
}

// TestHMMSharedCacheConcurrent hammers one matcher whose SPCache is shared
// by many goroutines: results must stay deterministic (equal to the serial
// decode) while hits, misses and evictions accumulate. Run under -race by
// make check.
func TestHMMSharedCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGrid(rng, 8, 180)
	// A deliberately tiny cache forces constant eviction churn alongside
	// concurrent hits — the worst case for the sharded LRU.
	cache := NewSPCache(SPCacheOptions{Capacity: 64})
	h := NewHMMMatcher(g, HMMOptions{Cache: cache})

	const goroutines = 8
	trajs := make([][]geo.Point, goroutines)
	golden := make([][]Match, goroutines)
	for i := range trajs {
		trajs[i] = randomWalkPoints(rng, g, 50)
		golden[i] = h.MatchPoints(trajs[i])
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				got := h.MatchPoints(trajs[i])
				for j := range got {
					w, g := golden[i][j], got[j]
					if (w.Edge == nil) != (g.Edge == nil) ||
						(w.Edge != nil && (w.Edge.ID != g.Edge.ID ||
							math.Float64bits(w.Along) != math.Float64bits(g.Along))) {
						errs <- fmt.Sprintf("goroutine %d round %d: point %d diverged", i, round, j)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	s := cache.Stats()
	if s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 {
		t.Fatalf("expected hits, misses and evictions on a tiny shared cache: %+v", s)
	}
	if s.Entries > 64 {
		t.Fatalf("cache exceeded its capacity: %+v", s)
	}
}

// TestHMMDisconnectedFallbackUsesMatchPoints pins the reference decoder's
// repaired disconnected-graph fallback: the distance must be measured
// between the actual matched positions, not the edges' first geometry
// vertices.
func TestHMMDisconnectedFallbackUsesMatchPoints(t *testing.T) {
	g := &Graph{}
	// Two disjoint east-west roads, the second starting 1km east and 80m
	// north of the first one's end.
	a0 := g.AddNode(testOrigin, false)
	a1 := g.AddNode(geo.Destination(testOrigin, 90, 1000), false)
	b0start := geo.Destination(geo.Destination(testOrigin, 90, 2000), 0, 80)
	b0 := g.AddNode(b0start, false)
	b1 := g.AddNode(geo.Destination(b0start, 90, 1000), false)
	ea, err := g.AddEdge(a0, a1, "a", GradeProvincial, 0, TwoWay, nil)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := g.AddEdge(b0, b1, "b", GradeProvincial, 0, TwoWay, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := newReferenceHMM(g)
	a := Match{Edge: g.Edge(ea), Along: 900}
	b := Match{Edge: g.Edge(eb), Along: 200}
	got := h.networkDistance(a, b)
	want := geo.Distance(a.Point(), b.Point())
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("fallback distance = %v, want match-point distance %v", got, want)
	}
	// The old (buggy) fallback measured first-geometry-vertex distance,
	// which is off by hundreds of metres here.
	buggy := geo.Distance(a.Edge.Geometry[0], b.Edge.Geometry[0])
	if math.Abs(got-buggy) < 100 {
		t.Fatalf("fallback still looks like the first-vertex bug: got %v, buggy %v", got, buggy)
	}
}

// TestCandidateEdgesDedupesWithoutMap guards the small-slice dedupe: a
// point near many samples of the same long edge must yield the edge once.
func TestCandidateEdgesDedupesWithoutMap(t *testing.T) {
	g := &Graph{}
	n0 := g.AddNode(testOrigin, false)
	n1 := g.AddNode(geo.Destination(testOrigin, 90, 3000), false)
	if _, err := g.AddEdge(n0, n1, "long", GradeProvincial, 0, TwoWay, nil); err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(g)
	p := geo.Destination(geo.Destination(testOrigin, 90, 1500), 0, 10)
	cands := m.appendCandidates(nil, new(matchScratch), p, 150, 10)
	if len(cands) != 1 {
		t.Fatalf("expected 1 deduped candidate, got %d", len(cands))
	}
}
