package roadnet

import (
	"math/rand"
	"testing"

	"stmaker/internal/geo"
)

// benchGrid builds a grid graph without the testing.T plumbing.
func benchGrid(n int, spacing float64) *Graph {
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
					panic(err)
				}
			}
			if r+1 < n {
				if _, err := g.AddEdge(id, NodeID((r+1)*n+c), "v", GradeProvincial, 0, TwoWay, nil); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func BenchmarkShortestPath20x20(b *testing.B) {
	g := benchGrid(20, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ShortestPath(0, NodeID(g.NumNodes()-1), ByTravelTime); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainOverlay measures the one-time overlay precomputation Train
// performs: landmark selection plus two full Dijkstras per landmark.
func BenchmarkTrainOverlay(b *testing.B) {
	g := benchGrid(20, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o := BuildOverlay(g, OverlayOptions{}); o.NumLandmarks() == 0 {
			b.Fatal("empty overlay")
		}
	}
}

func BenchmarkNearestEdge(b *testing.B) {
	g := benchGrid(20, 400)
	m := NewMatcher(g)
	rng := rand.New(rand.NewSource(9))
	pts := make([]geo.Point, 256)
	for i := range pts {
		pts[i] = geo.Destination(testOrigin, rng.Float64()*90, rng.Float64()*7000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.NearestEdge(pts[i%len(pts)], 150)
	}
}

func benchTrajectory(n int) []geo.Point {
	rng := rand.New(rand.NewSource(11))
	pts := make([]geo.Point, n)
	for i := range pts {
		base := geo.Destination(testOrigin, 90, float64(i)*30)
		pts[i] = geo.Destination(base, rng.Float64()*360, rng.Float64()*15)
	}
	return pts
}

func BenchmarkHMMMatch100Points(b *testing.B) {
	g := benchGrid(10, 400)
	h := NewHMMMatcher(g, HMMOptions{})
	pts := benchTrajectory(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MatchPoints(pts)
	}
}

// BenchmarkHMMMatch100PointsALT is the cold-cache decode with the ALT
// overlay behind transition scoring — the serving configuration once a
// model with a precomputed overlay is published.
func BenchmarkHMMMatch100PointsALT(b *testing.B) {
	g := benchGrid(10, 400)
	h := NewHMMMatcher(g, HMMOptions{})
	h.SetRouter(NewALTRouter(g, BuildOverlay(g, OverlayOptions{})))
	pts := benchTrajectory(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MatchPoints(pts)
	}
}

// benchSparseTrajectory decimates the benchmark trajectory to every
// factor-th point: the low-sampling-rate regime where straight-line gaps
// stretch the transition bound and bounded searches degrade worst.
func benchSparseTrajectory(n, factor int) []geo.Point {
	pts := benchTrajectory(n)
	out := pts[:0]
	for i := 0; i < len(pts); i += factor {
		out = append(out, pts[i])
	}
	return out
}

// BenchmarkHMMMatchSparse decodes a 4x-decimated trajectory with plain
// bounded Dijkstra.
func BenchmarkHMMMatchSparse(b *testing.B) {
	g := benchGrid(10, 400)
	h := NewHMMMatcher(g, HMMOptions{})
	pts := benchSparseTrajectory(400, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MatchPoints(pts)
	}
}

// BenchmarkHMMMatchSparseALT decodes the same sparse trajectory with the
// ALT overlay installed; the serving gate decides whether it prunes the
// widened transition searches.
func BenchmarkHMMMatchSparseALT(b *testing.B) {
	g := benchGrid(10, 400)
	h := NewHMMMatcher(g, HMMOptions{})
	h.SetRouter(NewALTRouter(g, BuildOverlay(g, OverlayOptions{})))
	pts := benchSparseTrajectory(400, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MatchPoints(pts)
	}
}

// BenchmarkHMMMatch100PointsNaive measures the reference decoder
// (point-to-point Dijkstras per candidate pair) on the same input, for a
// like-for-like comparison with the serving matcher.
func BenchmarkHMMMatch100PointsNaive(b *testing.B) {
	g := benchGrid(10, 400)
	ref := newReferenceHMM(g)
	pts := benchTrajectory(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.MatchPoints(pts)
	}
}

// BenchmarkHMMMatch100PointsCached adds a warm shared SPCache, the
// serving-path configuration of the Summarizer.
func BenchmarkHMMMatch100PointsCached(b *testing.B) {
	g := benchGrid(10, 400)
	h := NewHMMMatcher(g, HMMOptions{Cache: NewSPCache(SPCacheOptions{})})
	pts := benchTrajectory(100)
	h.MatchPoints(pts) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.MatchPoints(pts)
	}
}

// benchStepCandidates yields two consecutive candidate sets the way a
// Viterbi step sees them, for the networkDistance benchmarks below.
func benchStepCandidates(h *HMMMatcher) (prev, next []candidate, straight float64) {
	pa := geo.Destination(geo.Destination(testOrigin, 90, 390), 0, 12)
	pb := geo.Destination(geo.Destination(testOrigin, 90, 455), 0, 9)
	sc := &stepScratch{}
	h.appendStep(sc, pa)
	n := len(sc.cands)
	h.appendStep(sc, pb)
	return sc.cands[:n], sc.cands[n:], geo.Distance(pa, pb)
}

// BenchmarkNetworkDistanceNaive scores one full Viterbi transition step
// (every prev×next candidate pair) with the reference decoder's
// point-to-point Dijkstras.
func BenchmarkNetworkDistanceNaive(b *testing.B) {
	g := benchGrid(10, 400)
	ref := newReferenceHMM(g)
	prev, next, _ := benchStepCandidates(ref.h)
	if len(prev) == 0 || len(next) == 0 {
		b.Fatal("no candidates")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range prev {
			for _, c := range next {
				ref.networkDistance(a.match, c.match)
			}
		}
	}
}

// BenchmarkNetworkDistanceFast scores the same transition step through the
// bounded multi-target table build plus table lookups.
func BenchmarkNetworkDistanceFast(b *testing.B) {
	g := benchGrid(10, 400)
	h := NewHMMMatcher(g, HMMOptions{})
	prev, next, straight := benchStepCandidates(h)
	if len(prev) == 0 || len(next) == 0 {
		b.Fatal("no candidates")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := acquireStepScratch()
		h.buildStepTable(h.rt.Load(), sc, prev, next, straight)
		for _, a := range prev {
			for _, c := range next {
				h.networkDistance(sc, a.match, c.match)
			}
		}
		releaseStepScratch(sc)
	}
}
