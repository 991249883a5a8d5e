package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"stmaker/internal/geo"
	"stmaker/internal/spatial"
)

// appendCandidates is the full candidate query that appendBandCandidates
// must reproduce: it appends up to max distinct edges within radius of p
// to dst, nearest first, querying the index through sc. Edges at equal
// distance keep the order in which their nearest samples were met. The
// tests and the reference decoder use it as the oracle.
func (m *Matcher) appendCandidates(dst []Match, sc *matchScratch, p geo.Point, radius float64, max int) []Match {
	n0 := len(dst)
	m.query(sc, p, radius+matchSampleSpacing)
	for _, h := range sc.hits {
		if !sc.firstSeen(h.ID) {
			continue
		}
		e := m.g.Edge(EdgeID(h.ID))
		d, seg, t := e.Geometry.NearestPoint(p)
		if d > radius {
			continue
		}
		dst = append(dst, Match{Edge: e, Distance: d, Along: distanceAlong(e.Geometry, seg, t)})
	}
	// Insertion sort by distance (candidate lists are tiny).
	out := dst[n0:]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Distance < out[j-1].Distance; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return dst[:n0+min(len(out), max)]
}

// requireSameCandidates fails unless the band query's candidates equal
// the full query's: the same length, and at each position the same
// edge with the same Distance and Along bits.
func requireSameCandidates(t *testing.T, got, want []Match, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: band query has %d candidates, full query %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Edge != want[i].Edge ||
			math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) ||
			math.Float64bits(got[i].Along) != math.Float64bits(want[i].Along) {
			t.Fatalf("%s: candidate %d is %s in the band query, %s in the full query",
				label, i, describeMatch(got[i], true), describeMatch(want[i], true))
		}
	}
}

// TestHMMCandidatesTieFallThrough pins the tie rule of the band query
// on the corner fixture of TestNearestEdgeHintTies. Every fix ties
// exactly between the two corner edges, and the full query has more
// than 12 hits, so pdqsort, not the walk, orders the tied samples. A
// band query that left the tie in walk order would put the east edge
// first on every fix, where the full query puts the north edge first
// on many.
func TestHMMCandidatesTieFallThrough(t *testing.T) {
	g := cornerTieGraph(t, 8)
	m := NewMatcher(g)
	rng := rand.New(rand.NewSource(5))
	var (
		sc        matchScratch
		hits      []spatial.Result
		got, want []Match
		northWins int
	)
	for i := 0; i < 2000; i++ {
		p := geo.Destination(testOrigin, 180+90*(0.001+0.998*rng.Float64()), 25*(0.001+0.999*rng.Float64()))
		if hits = m.ix.AppendWithin(hits[:0], p, hmmCandidateRadiusMeters+matchSampleSpacing); len(hits) <= 12 {
			t.Fatalf("full query from %v has %d hits, want more than 12", p, len(hits))
		}
		want = m.appendCandidates(want[:0], &sc, p, hmmCandidateRadiusMeters, hmmMaxCandidates)
		if len(want) < 2 || want[0].Edge.Name != "corner" || want[1].Edge.Name != "corner" ||
			math.Float64bits(want[0].Distance) != math.Float64bits(want[1].Distance) {
			t.Fatalf("fix %v: the two nearest candidates are not an exact corner tie: %+v", p, want)
		}
		if want[0].Edge.ID == 1 {
			northWins++
		}
		got = m.appendBandCandidates(got[:0], &sc, p, hmmCandidateRadiusMeters, hmmMaxCandidates)
		requireSameCandidates(t, got, want, "corner tie")
	}
	// The fixture must exercise the rule: the walk meets the east edge
	// first, so a tie decided by the walk differs from the full query
	// whenever the north edge comes first there.
	if northWins == 0 {
		t.Fatal("the full query put the east corner edge first on every fix; the fixture no longer tests the tie path")
	}
}

// FuzzHMMCandidates checks the band query against the full query on
// fuzzer-chosen grids: size, spacing, fix offset (a fix exactly on a
// node included), radius and candidate cap. The band query must return
// the same candidates in the same order, with the same Distance and
// Along bits, after the same dst prefix.
func FuzzHMMCandidates(f *testing.F) {
	f.Add(uint8(3), 100.0, -10.0, -12.0, 120.0, uint8(4))  // corner tie south-west of node 0
	f.Add(uint8(4), 400.0, 30.0, 200.0, 120.0, uint8(4))   // fix beside one edge
	f.Add(uint8(5), 250.0, 500.0, 250.0, 120.0, uint8(4))  // fix exactly on a node
	f.Add(uint8(6), 60.0, 95.0, 37.0, 300.0, uint8(9))     // dense grid, wide radius, many candidates
	f.Add(uint8(2), 1500.0, 700.0, -300.0, 50.0, uint8(1)) // no edge within the radius
	f.Fuzz(func(t *testing.T, size uint8, spacing, north, east, radius float64, max uint8) {
		n := 2 + int(size%9)
		if !(spacing >= 10 && spacing <= 2000) {
			spacing = 400
		}
		if !(radius >= 0 && radius <= 1000) {
			radius = hmmCandidateRadiusMeters
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
		prefix := []Match{{Distance: -1}}
		var sc matchScratch
		want := m.appendCandidates(append([]Match(nil), prefix...), &sc, p, radius, int(max%10))
		got := m.appendBandCandidates(append([]Match(nil), prefix...), &sc, p, radius, int(max%10))
		if got[0] != prefix[0] {
			t.Fatalf("band query changed dst's own element: %+v", got[0])
		}
		requireSameCandidates(t, got[1:], want[1:], "fuzzed fix")
	})
}
