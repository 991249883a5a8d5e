package roadnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stmaker/internal/geo"
)

// requireSameDistances fails unless the two distance slices are bitwise
// identical (+Inf included).
func requireSameDistances(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: entry %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// zeroGateRouter returns a router over o with no engagement gate, so
// every bounded search and every certificate goes through the overlay
// instead of the small-search opt-out the serving gate applies.
func zeroGateRouter(g *Graph, o *Overlay) *Router { return &Router{g: g, o: o} }

// routerDistances runs r's bounded multi-target search into a fresh
// slice.
func routerDistances(r *Router, src NodeID, targets []NodeID, maxCost float64) []float64 {
	out := make([]float64, len(targets))
	r.distancesFromInto(src, targets, maxCost, out)
	return out
}

// requireNoFalseCertificate fails when r certifies a pair as beyond
// maxCost although the bounded search reached it (want holds the plain
// search's distances from src to targets).
func requireNoFalseCertificate(t *testing.T, r *Router, src NodeID, targets []NodeID, maxCost float64, want []float64, label string) {
	t.Helper()
	for i, tg := range targets {
		if !math.IsInf(want[i], 1) && r.provablyBeyond(src, tg, maxCost) {
			t.Fatalf("%s: provablyBeyond(%d, %d, %g) certified a target the search reaches at %v",
				label, src, tg, maxCost, want[i])
		}
	}
}

// TestALTMatchesDijkstraOnRandomGrids is the overlay's core exactness
// property: across randomized grids (random grades, one-way sprinkles),
// random sources, target sets and bounds, the pruned multi-target search
// must return distances bit-identical to plain bounded Dijkstra, and no
// target it reaches may be certified beyond the bound — the guarantee
// that lets the serving path swap routers without changing a single
// summary byte. Both the zero-gate router (always pruning) and the
// serving-gate router are checked.
func TestALTMatchesDijkstraOnRandomGrids(t *testing.T) {
	for seed := int64(100); seed < 108; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 5 + rng.Intn(5)
			spacing := 120 + rng.Float64()*180
			g := randomGrid(rng, n, spacing)
			o := BuildOverlay(g, OverlayOptions{Landmarks: 1 + rng.Intn(8)})
			routers := map[string]*Router{"zero-gate": zeroGateRouter(g, o), "serving": NewALTRouter(g, o)}
			if routers["serving"].o != o {
				t.Fatal("a matching overlay was not installed")
			}
			nodes := g.NumNodes()
			for trial := 0; trial < 40; trial++ {
				src := NodeID(rng.Intn(nodes))
				targets := make([]NodeID, 1+rng.Intn(8))
				for i := range targets {
					targets[i] = NodeID(rng.Intn(nodes))
				}
				// Sweep bound regimes: tight (prunes almost everything),
				// medium, loose, and unbounded.
				for _, maxCost := range []float64{spacing * 0.5, spacing * float64(n) * 0.7, spacing * float64(n) * 3, 0} {
					want := distances(g, src, targets, maxCost)
					for name, r := range routers {
						label := fmt.Sprintf("%s trial %d distancesFromInto(%d, %v, %g)", name, trial, src, targets, maxCost)
						requireSameDistances(t, want, routerDistances(r, src, targets, maxCost), label)
						requireNoFalseCertificate(t, r, src, targets, maxCost, want, label)
					}
				}
			}
		})
	}
}

// TestALTDisconnectedComponents pins the overlay on a graph with two
// disconnected components: cross-component distances must be +Inf, as
// in plain Dijkstra, and the overlay proves the unreachability outright.
func TestALTDisconnectedComponents(t *testing.T) {
	g := &Graph{}
	// Component A: a 3-node chain. Component B: a 2-node chain 5km away.
	a0 := g.AddNode(testOrigin, false)
	a1 := g.AddNode(geo.Destination(testOrigin, 90, 400), false)
	a2 := g.AddNode(geo.Destination(testOrigin, 90, 800), false)
	bBase := geo.Destination(testOrigin, 0, 5000)
	b0 := g.AddNode(bBase, false)
	b1 := g.AddNode(geo.Destination(bBase, 90, 400), false)
	for _, e := range [][2]NodeID{{a0, a1}, {a1, a2}, {b0, b1}} {
		if _, err := g.AddEdge(e[0], e[1], "r", GradeProvincial, 0, TwoWay, nil); err != nil {
			t.Fatal(err)
		}
	}
	alt := zeroGateRouter(g, BuildOverlay(g, OverlayOptions{Landmarks: 4}))
	targets := []NodeID{a2, b0, b1}
	want := distances(g, a0, targets, 10000)
	got := routerDistances(alt, a0, targets, 10000)
	requireSameDistances(t, want, got, "cross-component")
	if !math.IsInf(got[1], 1) || !math.IsInf(got[2], 1) {
		t.Fatalf("expected +Inf to the far component, got %v", got)
	}
	if !alt.provablyBeyond(a0, b1, 10000) {
		t.Fatal("the overlay did not certify the far component as unreachable")
	}
	requireNoFalseCertificate(t, alt, a0, targets, 10000, want, "cross-component")
}

// TestALTRouterDegradedOverlays pins the safety fallbacks of NewALTRouter:
// a nil, empty, or wrong-graph overlay must yield the plain router (no
// overlay, gate +Inf) rather than one that could answer wrongly.
func TestALTRouterDegradedOverlays(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGrid(rng, 5, 200)
	small := randomGrid(rng, 3, 200)
	for name, o := range map[string]*Overlay{
		"nil":      nil,
		"empty":    {},
		"mismatch": BuildOverlay(small, OverlayOptions{}),
	} {
		if r := NewALTRouter(g, o); r.o != nil || !math.IsInf(r.gate, 1) {
			t.Fatalf("%s overlay: expected the plain router, got overlay %p gate %v", name, r.o, r.gate)
		}
	}
	o := BuildOverlay(g, OverlayOptions{})
	if r := NewALTRouter(g, o); r.o != o || math.IsInf(r.gate, 1) || r.gate <= 0 {
		t.Fatalf("matching overlay: got overlay %p gate %v", r.o, r.gate)
	}
}

// TestOverlayLowerBoundAdmissible checks the certified-bound contract the
// HMM prefilter relies on: the triangle-inequality bound read from the
// overlay's tables never exceeds the true distance by more than the
// slack, and provablyBeyond never certifies a pair as beyond its exact
// distance. The router is built with a zero gate so every trial
// exercises the certification path rather than the small-search opt-out.
func TestOverlayLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGrid(rng, 7, 180)
	o := BuildOverlay(g, OverlayOptions{})
	fwd, bwd := o.Tables()
	alt := zeroGateRouter(g, o)
	for trial := 0; trial < 200; trial++ {
		u := NodeID(rng.Intn(g.NumNodes()))
		v := NodeID(rng.Intn(g.NumNodes()))
		p, err := g.ShortestPath(u, v, ByDistance)
		if err != nil {
			continue // unreachable: any bound (including +Inf) is admissible
		}
		for i := range fwd {
			for _, lb := range []float64{fwd[i][v] - fwd[i][u], bwd[i][u] - bwd[i][v]} {
				if lb-altSlackMeters > p.Cost {
					t.Fatalf("landmark %d bounds d(%d,%d) by %v, beyond the true distance %v", i, u, v, lb, p.Cost)
				}
			}
		}
		if alt.provablyBeyond(u, v, p.Cost) {
			t.Fatalf("provablyBeyond(%d,%d, %v) certified the exact distance as beyond budget", u, v, p.Cost)
		}
	}
}

// TestOverlayBuildDeterministic pins that two builds over the same graph
// select the same landmarks and compute bit-identical tables — the
// property that keeps model files deterministic.
func TestOverlayBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGrid(rng, 6, 220)
	a := BuildOverlay(g, OverlayOptions{Workers: 1})
	b := BuildOverlay(g, OverlayOptions{Workers: 8})
	if fmt.Sprint(a.LandmarkNodes()) != fmt.Sprint(b.LandmarkNodes()) {
		t.Fatalf("landmark selection differs: %v vs %v", a.LandmarkNodes(), b.LandmarkNodes())
	}
	af, ab := a.Tables()
	bf, bb := b.Tables()
	for i := range af {
		requireSameDistances(t, af[i], bf[i], fmt.Sprintf("fwd row %d", i))
		requireSameDistances(t, ab[i], bb[i], fmt.Sprintf("bwd row %d", i))
	}
}

// TestOverlayDirectedTables pins that the backward table really is the
// reverse-graph distance: on a one-way chain, d(ℓ, v) and d(v, ℓ) must
// disagree in exactly the way the arrows dictate.
func TestOverlayDirectedTables(t *testing.T) {
	g := &Graph{}
	n0 := g.AddNode(testOrigin, false)
	n1 := g.AddNode(geo.Destination(testOrigin, 90, 300), false)
	n2 := g.AddNode(geo.Destination(testOrigin, 90, 600), false)
	for _, e := range [][2]NodeID{{n0, n1}, {n1, n2}} {
		if _, err := g.AddEdge(e[0], e[1], "ow", GradeProvincial, 0, OneWay, nil); err != nil {
			t.Fatal(err)
		}
	}
	o := BuildOverlay(g, OverlayOptions{Landmarks: 3})
	fwd, bwd := o.Tables()
	for i, l := range o.LandmarkNodes() {
		for v := 0; v < g.NumNodes(); v++ {
			wantFwd := math.Inf(1)
			if p, err := g.ShortestPath(l, NodeID(v), ByDistance); err == nil {
				wantFwd = p.Cost
			}
			wantBwd := math.Inf(1)
			if p, err := g.ShortestPath(NodeID(v), l, ByDistance); err == nil {
				wantBwd = p.Cost
			}
			if math.Float64bits(fwd[i][v]) != math.Float64bits(wantFwd) {
				t.Fatalf("fwd[%d][%d] = %v, want %v", i, v, fwd[i][v], wantFwd)
			}
			if math.Float64bits(bwd[i][v]) != math.Float64bits(wantBwd) {
				t.Fatalf("bwd[%d][%d] = %v, want %v", i, v, bwd[i][v], wantBwd)
			}
		}
	}
}

// TestNewOverlayFromTablesValidation walks the structural failure modes a
// hostile or corrupted model file could present.
func TestNewOverlayFromTablesValidation(t *testing.T) {
	good := func() ([]NodeID, int, [][]float64, [][]float64) {
		return []NodeID{0, 2}, 3,
			[][]float64{{0, 1, 2}, {2, 1, 0}},
			[][]float64{{0, 1, 2}, {2, 1, 0}}
	}
	if _, err := NewOverlayFromTables(good()); err != nil {
		t.Fatalf("valid tables rejected: %v", err)
	}
	cases := map[string]func() ([]NodeID, int, [][]float64, [][]float64){
		"landmark out of range": func() ([]NodeID, int, [][]float64, [][]float64) {
			l, n, f, b := good()
			l[1] = 9
			return l, n, f, b
		},
		"duplicate landmark": func() ([]NodeID, int, [][]float64, [][]float64) {
			l, n, f, b := good()
			l[1] = 0
			b[1][0] = 0
			f[1][0] = 0
			return l, n, f, b
		},
		"row too short": func() ([]NodeID, int, [][]float64, [][]float64) {
			l, n, f, b := good()
			f[0] = f[0][:2]
			return l, n, f, b
		},
		"row count mismatch": func() ([]NodeID, int, [][]float64, [][]float64) {
			l, n, f, b := good()
			return l, n, f[:1], b
		},
		"NaN distance": func() ([]NodeID, int, [][]float64, [][]float64) {
			l, n, f, b := good()
			f[0][1] = math.NaN()
			return l, n, f, b
		},
		"negative distance": func() ([]NodeID, int, [][]float64, [][]float64) {
			l, n, f, b := good()
			b[1][0] = -1
			return l, n, f, b
		},
		"nonzero self-distance": func() ([]NodeID, int, [][]float64, [][]float64) {
			l, n, f, b := good()
			f[0][0] = 5
			return l, n, f, b
		},
	}
	for name, mk := range cases {
		if _, err := NewOverlayFromTables(mk()); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestHMMALTMatchesNaiveAcrossSamplingRates is the decimated-sampling
// equivalence matrix: at every sampling rate — including the sparse
// regimes where the transition bound stretches — the overlay-backed
// matcher must reproduce the reference decoder byte for byte, cold
// cache and warm. The router has a zero gate, so every cache miss is
// certified and searched through the overlay.
func TestHMMALTMatchesNaiveAcrossSamplingRates(t *testing.T) {
	for seed := int64(200); seed < 204; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 6 + rng.Intn(3)
			g := randomGrid(rng, n, 150+rng.Float64()*100)
			alt := zeroGateRouter(g, BuildOverlay(g, OverlayOptions{}))
			naive := newReferenceHMM(g)
			dense := randomWalkPoints(rng, g, 120)
			for _, factor := range []int{1, 2, 4, 8} {
				pts := make([]geo.Point, 0, len(dense)/factor+1)
				for i := 0; i < len(dense); i += factor {
					pts = append(pts, dense[i])
				}
				want := naive.MatchPoints(pts)

				fast := NewHMMMatcher(g, HMMOptions{Cache: NewSPCache(SPCacheOptions{Capacity: 4096})})
				fast.SetRouter(alt)
				cold := fast.MatchPoints(pts)
				requireSameMatches(t, want, cold, fmt.Sprintf("factor %d cold", factor))
				warm := fast.MatchPoints(pts)
				requireSameMatches(t, want, warm, fmt.Sprintf("factor %d warm", factor))
			}
		})
	}
}

// TestHMMRouterSwapMidStream swaps routers between decodes of the same
// matcher (what a model publish does to a serving summarizer) and pins
// that the output never changes. The matcher has no distance cache, so
// every decode asks the router it was given.
func TestHMMRouterSwapMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGrid(rng, 6, 200)
	h := NewHMMMatcher(g, HMMOptions{})
	pts := randomWalkPoints(rng, g, 60)
	want := h.MatchPoints(pts)
	h.SetRouter(zeroGateRouter(g, BuildOverlay(g, OverlayOptions{})))
	requireSameMatches(t, want, h.MatchPoints(pts), "after overlay swap")
	h.SetRouter(nil) // back to plain Dijkstra
	requireSameMatches(t, want, h.MatchPoints(pts), "after fallback swap")
}

// FuzzALTEquivalence fuzzes the exactness property over generated grids,
// endpoints and bounds: the zero-gate router's pruned search must match
// plain bounded Dijkstra bit for bit, and provablyBeyond must never
// certify a target that search reaches. Run by make fuzz-smoke.
func FuzzALTEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(17), 900.0)
	f.Add(int64(2), uint8(0), uint8(24), 120.0)
	f.Add(int64(3), uint8(24), uint8(0), 1e9)
	f.Fuzz(func(t *testing.T, seed int64, a, b uint8, maxCost float64) {
		rng := rand.New(rand.NewSource(seed))
		g := randomGrid(rng, 5, 150+rng.Float64()*150)
		alt := zeroGateRouter(g, BuildOverlay(g, OverlayOptions{Landmarks: 1 + int(a%8)}))
		src := NodeID(int(a) % g.NumNodes())
		if math.IsNaN(maxCost) {
			maxCost = 0
		}
		targets := []NodeID{NodeID(int(b) % g.NumNodes()), src, NodeID(int(a+b) % g.NumNodes())}
		want := distances(g, src, targets, maxCost)
		requireSameDistances(t, want, routerDistances(alt, src, targets, maxCost), "distancesFromInto")
		requireNoFalseCertificate(t, alt, src, targets, maxCost, want, "provablyBeyond")
	})
}
