package history

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"stmaker/internal/feature"
	"stmaker/internal/geo"
	"stmaker/internal/traj"
)

// sym builds a symbolic trajectory over the given landmark sequence with no
// raw backing (sufficient for route mining).
func sym(ids ...int) *traj.Symbolic {
	s := &traj.Symbolic{ID: "h"}
	t0 := time.Date(2013, 11, 2, 9, 0, 0, 0, time.UTC)
	for i, id := range ids {
		s.Visits = append(s.Visits, traj.Visit{Landmark: id, T: t0.Add(time.Duration(i) * time.Minute), RawIndex: i})
	}
	return s
}

// buildPopular builds the popular-route knowledge of a symbolic corpus
// from its landmark sequences, as training does.
func buildPopular(corpus []*traj.Symbolic) *Popular {
	seqs := make([][]int, 0, len(corpus))
	for _, s := range corpus {
		seqs = append(seqs, s.LandmarkIDs())
	}
	return BuildPopularFromSequences(seqs)
}

func TestPopularRoutePrefersFrequentPath(t *testing.T) {
	// 0→1→3 travelled 8 times, 0→2→3 travelled 2 times.
	var corpus []*traj.Symbolic
	for i := 0; i < 8; i++ {
		corpus = append(corpus, sym(0, 1, 3))
	}
	for i := 0; i < 2; i++ {
		corpus = append(corpus, sym(0, 2, 3))
	}
	p := buildPopular(corpus)
	route, ok := p.Route(0, 3)
	if !ok {
		t.Fatal("route not found")
	}
	want := []int{0, 1, 3}
	if len(route) != 3 || route[0] != want[0] || route[1] != want[1] || route[2] != want[2] {
		t.Fatalf("route = %v, want %v", route, want)
	}
	if p.TransitionCount(0, 1) != 8 || p.TransitionCount(0, 2) != 2 {
		t.Fatalf("counts: %d, %d", p.TransitionCount(0, 1), p.TransitionCount(0, 2))
	}
}

func TestPopularRouteMultiHop(t *testing.T) {
	corpus := []*traj.Symbolic{
		sym(0, 1), sym(1, 2), sym(2, 3),
	}
	p := buildPopular(corpus)
	route, ok := p.Route(0, 3)
	if !ok {
		t.Fatal("multi-hop route not found")
	}
	if len(route) != 4 {
		t.Fatalf("route = %v", route)
	}
}

func TestPopularRouteUnreachable(t *testing.T) {
	p := buildPopular([]*traj.Symbolic{sym(0, 1)})
	if _, ok := p.Route(1, 0); ok {
		t.Fatal("reverse route should be unreachable")
	}
	if _, ok := p.Route(5, 6); ok {
		t.Fatal("unknown landmarks should be unreachable")
	}
}

func TestPopularRouteSameLandmark(t *testing.T) {
	p := buildPopular(nil)
	route, ok := p.Route(4, 4)
	if !ok || len(route) != 1 || route[0] != 4 {
		t.Fatalf("self route = %v ok=%v", route, ok)
	}
}

func TestPopularIgnoresSelfLoops(t *testing.T) {
	p := buildPopular([]*traj.Symbolic{sym(0, 0, 1)})
	if p.TransitionCount(0, 0) != 0 {
		t.Fatal("self transition should be ignored")
	}
	if p.TransitionCount(0, 1) != 1 {
		t.Fatal("real transition lost")
	}
}

func TestPopularityBeatsHopCount(t *testing.T) {
	// Direct 0→3 exists but is rare (1 visit out of 11 leaving 0); the
	// detour 0→1→3 is near-certain at every hop. The max-likelihood route
	// takes the detour: -log(10/11)-log(1) < -log(1/11).
	var corpus []*traj.Symbolic
	corpus = append(corpus, sym(0, 3))
	for i := 0; i < 10; i++ {
		corpus = append(corpus, sym(0, 1, 3))
	}
	p := buildPopular(corpus)
	route, _ := p.Route(0, 3)
	if len(route) != 3 || route[1] != 1 {
		t.Fatalf("route = %v, want detour through 1", route)
	}
}

func TestFeatureMapRegular(t *testing.T) {
	m := NewFeatureMap(2)
	m.Add(0, 1, []float64{10, 1})
	m.Add(0, 1, []float64{20, 3})
	m.Add(1, 2, []float64{50, 0})
	if m.Dims() != 2 || m.NumEdges() != 2 {
		t.Fatalf("dims=%d edges=%d", m.Dims(), m.NumEdges())
	}
	r, ok := m.Regular(0, 1)
	if !ok || math.Abs(r[0]-15) > 1e-9 || math.Abs(r[1]-2) > 1e-9 {
		t.Fatalf("regular = %v ok=%v", r, ok)
	}
	if !m.HasEdge(1, 2) || m.HasEdge(2, 1) {
		t.Fatal("HasEdge wrong")
	}
	if _, ok := m.Regular(9, 9); ok {
		t.Fatal("unknown edge should have no regular value")
	}
	// Wrong dimensionality is ignored.
	m.Add(0, 1, []float64{1})
	r2, _ := m.Regular(0, 1)
	if math.Abs(r2[0]-15) > 1e-9 {
		t.Fatal("bad-dims Add should be ignored")
	}
}

// TestRegularAtMatchesVectorArithmetic pins RegularAt bit for bit to
// the whole-vector arithmetic it replaced on the selection path: the
// sum over the count for numeric dimensions, the most frequent value
// (the smallest on a tie) for categorical ones.
func TestRegularAtMatchesVectorArithmetic(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	m := NewFeatureMap(4)
	m.MarkCategorical(1)
	m.MarkCategorical(3)
	for i := 0; i < 500; i++ {
		a, b := rng.IntN(6), rng.IntN(6)
		m.Add(a, b, []float64{rng.Float64() * 90, float64(rng.IntN(4)), rng.NormFloat64(), float64(1 + rng.IntN(2))})
	}
	for a := 0; a < 7; a++ {
		for b := 0; b < 7; b++ {
			key := [2]int{a, b}
			for j := 0; j < m.Dims(); j++ {
				got, ok := m.RegularAt(a, b, j)
				if ok != (m.n[key] > 0) {
					t.Fatalf("RegularAt(%d, %d, %d) ok = %v with %d observations", a, b, j, ok, m.n[key])
				}
				if !ok {
					continue
				}
				want := m.sums[key][j] / float64(m.n[key])
				if m.categorical[j] {
					best, bestN := 0.0, 0
					for val, c := range m.catCounts[key][j] {
						if c > bestN || (c == bestN && val < best) {
							best, bestN = val, c
						}
					}
					want = best
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("RegularAt(%d, %d, %d) = %v, want %v", a, b, j, got, want)
				}
			}
		}
	}
}

func TestFeatureMapGlobalMean(t *testing.T) {
	m := NewFeatureMap(1)
	m.Add(0, 1, []float64{10})
	m.Add(0, 1, []float64{20})
	m.Add(1, 2, []float64{60})
	mean := m.GlobalMean()
	if math.Abs(mean[0]-30) > 1e-9 {
		t.Fatalf("global mean = %v, want 30", mean)
	}
	empty := NewFeatureMap(3)
	for _, x := range empty.GlobalMean() {
		if x != 0 {
			t.Fatal("empty global mean should be zero")
		}
	}
}

// TestGlobalMeanDeterministic pins the global mean to the bit: maps
// holding the same aggregates, added in different orders, agree exactly,
// as do repeated calls — sealed or not — so fallback lookups can never
// make two identical requests differ in their last bits.
func TestGlobalMeanDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	src := NewFeatureMap(3)
	src.MarkCategorical(2)
	for i := 0; i < 400; i++ {
		a, b := rng.IntN(40), rng.IntN(40)
		src.Add(a, b, []float64{rng.Float64() * 1e3, rng.NormFloat64() * 1e-3, float64(1 + rng.IntN(5))})
	}
	edges := src.EdgesSorted()
	rebuild := func(order []int) *FeatureMap {
		m := NewFeatureMap(3)
		m.MarkCategorical(2)
		for _, i := range order {
			n, sums, cats, _ := src.Aggregate(edges[i][0], edges[i][1])
			if err := m.AddAggregate(edges[i][0], edges[i][1], n, sums, cats); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: dim %d = %v, want %v bit for bit", what, j, got[j], want[j])
			}
		}
	}
	want := src.GlobalMean()
	for i := 0; i < 50; i++ {
		sameBits("repeated call", src.GlobalMean(), want)
	}
	for trial := 0; trial < 10; trial++ {
		m := rebuild(rng.Perm(len(edges)))
		sameBits("shuffled insertion", m.GlobalMean(), want)
		m.Seal()
		sameBits("sealed", m.GlobalMean(), want)
	}

	// A mutation after Seal discards the precomputed mean.
	m := rebuild(rng.Perm(len(edges)))
	m.Seal()
	m.Add(0, 1, []float64{1e6, 0, 1})
	if math.Float64bits(m.GlobalMean()[0]) == math.Float64bits(want[0]) {
		t.Error("Add after Seal left the stale mean in place")
	}
}

func TestBuildFeatureMapFromCorpus(t *testing.T) {
	// Registry with only the speed feature so no road network is needed.
	reg := feature.NewRegistry()
	if err := reg.Register(feature.NewSpeed()); err != nil {
		t.Fatal(err)
	}
	base := geo.Point{Lat: 39.9, Lng: 116.4}
	t0 := time.Date(2013, 11, 2, 9, 0, 0, 0, time.UTC)
	mk := func(speedKmh float64) *traj.Symbolic {
		r := &traj.Raw{ID: "x"}
		step := speedKmh / 3.6 * 10
		for i := 0; i < 5; i++ {
			r.Samples = append(r.Samples, traj.Sample{
				Pt: geo.Destination(base, 90, float64(i)*step),
				T:  t0.Add(time.Duration(i*10) * time.Second),
			})
		}
		return &traj.Symbolic{ID: "x", Raw: r, Visits: []traj.Visit{
			{Landmark: 0, T: r.Start(), RawIndex: 0},
			{Landmark: 1, T: r.End(), RawIndex: 4},
		}}
	}
	ctx := feature.NewContext(nil, nil, nil)
	m := NewFeatureMap(reg.Len())
	for j, d := range reg.Descriptors() {
		if !d.Numeric {
			m.MarkCategorical(j)
		}
	}
	for _, sym := range []*traj.Symbolic{mk(30), mk(60)} {
		for _, seg := range sym.Segments() {
			m.Add(seg.From.Landmark, seg.To.Landmark, reg.Extract(seg, ctx))
		}
	}
	r, ok := m.Regular(0, 1)
	if !ok {
		t.Fatal("edge 0→1 missing")
	}
	if math.Abs(r[0]-45) > 2 {
		t.Fatalf("regular speed = %v, want about 45", r[0])
	}
}

func TestCategoricalAggregation(t *testing.T) {
	m := NewFeatureMap(2)
	m.MarkCategorical(0)
	// Grades 2,2,3 on one edge: mode 2; mean of dim 1 = 20.
	m.Add(0, 1, []float64{2, 10})
	m.Add(0, 1, []float64{2, 20})
	m.Add(0, 1, []float64{3, 30})
	r, ok := m.Regular(0, 1)
	if !ok {
		t.Fatal("edge missing")
	}
	if r[0] != 2 {
		t.Fatalf("categorical regular = %v, want mode 2", r[0])
	}
	if math.Abs(r[1]-20) > 1e-9 {
		t.Fatalf("numeric regular = %v, want mean 20", r[1])
	}
	// Global regular: categorical dim is the corpus-wide mode.
	m.Add(1, 2, []float64{3, 0})
	m.Add(1, 2, []float64{3, 0})
	g := m.GlobalMean()
	if g[0] != 3 && g[0] != 2 {
		t.Fatalf("global categorical = %v, want a real category", g[0])
	}
	// With counts 2×grade-2, 3×grade-3, the mode is 3.
	if g[0] != 3 {
		t.Fatalf("global mode = %v, want 3", g[0])
	}
}

func TestFlattened(t *testing.T) {
	m := NewFeatureMap(2)
	m.MarkCategorical(0)
	m.Add(0, 1, []float64{2, 10})
	m.Add(1, 2, []float64{6, 50})
	flat := m.Flattened()
	if flat.NumEdges() != 2 {
		t.Fatalf("flattened edges = %d", flat.NumEdges())
	}
	r01, _ := flat.Regular(0, 1)
	r12, _ := flat.Regular(1, 2)
	for j := range r01 {
		if r01[j] != r12[j] {
			t.Fatalf("flattened regulars differ: %v vs %v", r01, r12)
		}
	}
	if math.Abs(r01[1]-30) > 1e-9 {
		t.Fatalf("flattened numeric = %v, want corpus mean 30", r01[1])
	}
	if r01[0] != 2 && r01[0] != 6 {
		t.Fatalf("flattened categorical = %v, want a real category", r01[0])
	}
	// The original map is untouched.
	orig, _ := m.Regular(0, 1)
	if orig[1] != 10 {
		t.Fatal("Flattened mutated the source map")
	}
}

func TestRouteCaching(t *testing.T) {
	p := buildPopular([]*traj.Symbolic{sym(0, 1, 2), sym(0, 1, 2)})
	r1, ok1 := p.Route(0, 2)
	r2, ok2 := p.Route(0, 2)
	if !ok1 || !ok2 || len(r1) != len(r2) {
		t.Fatalf("cached route differs: %v vs %v", r1, r2)
	}
	// Negative results are cached too.
	if _, ok := p.Route(2, 0); ok {
		t.Fatal("reverse should be unreachable")
	}
	if _, ok := p.Route(2, 0); ok {
		t.Fatal("cached reverse should stay unreachable")
	}
}

func TestFrequentSubroutePrefersShorterOnTies(t *testing.T) {
	// One observation each of 0→1→3 and 0→3: tie on frequency, the
	// shorter route wins.
	p := buildPopular([]*traj.Symbolic{sym(0, 1, 3), sym(5, 0, 3, 6)})
	route, ok := p.Route(0, 3)
	if !ok || len(route) != 2 {
		t.Fatalf("route = %v, want the direct pair", route)
	}
}

// TestPopularSequencesRoundTrip proves the sequences are the complete
// state of the popular-route knowledge: rebuilding from them answers
// every route identically — the contract model persistence relies on.
func TestPopularSequencesRoundTrip(t *testing.T) {
	p := buildPopular([]*traj.Symbolic{sym(0, 1, 2, 3), sym(0, 2, 3), sym(0, 2, 3), sym(4, 0)})
	seqs := p.Sequences()
	q := BuildPopularFromSequences(seqs)
	// Mutating the exported sequences must not touch either knowledge.
	seqs[0][0] = 99
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			pr, pok := p.Route(a, b)
			qr, qok := q.Route(a, b)
			if pok != qok {
				t.Fatalf("route %d->%d: ok %v vs %v", a, b, pok, qok)
			}
			if fmt.Sprint(pr) != fmt.Sprint(qr) {
				t.Fatalf("route %d->%d: %v vs %v", a, b, pr, qr)
			}
			if p.TransitionCount(a, b) != q.TransitionCount(a, b) {
				t.Fatalf("transition count %d->%d differs", a, b)
			}
		}
	}
}

// TestFeatureMapAggregateRoundTrip proves exporting every edge aggregate
// and re-adding it to an empty map reproduces Regular and GlobalMean
// bit-for-bit (sums are transported, not recomputed).
func TestFeatureMapAggregateRoundTrip(t *testing.T) {
	m := NewFeatureMap(2)
	m.MarkCategorical(0)
	m.Add(0, 1, []float64{2, 10.5})
	m.Add(0, 1, []float64{2, 11.25})
	m.Add(0, 1, []float64{6, 1.0 / 3.0})
	m.Add(1, 2, []float64{4, 7})

	out := NewFeatureMap(m.Dims())
	for j, c := range m.CategoricalDims() {
		if c {
			out.MarkCategorical(j)
		}
	}
	for _, e := range m.EdgesSorted() {
		n, sums, cats, ok := m.Aggregate(e[0], e[1])
		if !ok {
			t.Fatalf("edge %v vanished", e)
		}
		if err := out.AddAggregate(e[0], e[1], n, sums, cats); err != nil {
			t.Fatal(err)
		}
	}
	if out.NumEdges() != m.NumEdges() {
		t.Fatalf("edges = %d, want %d", out.NumEdges(), m.NumEdges())
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		want, _ := m.Regular(e[0], e[1])
		got, ok := out.Regular(e[0], e[1])
		if !ok {
			t.Fatalf("edge %v missing after round trip", e)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("edge %v dim %d: %v != %v", e, j, got[j], want[j])
			}
		}
	}
	gw, gg := m.GlobalMean(), out.GlobalMean()
	for j := range gw {
		if gw[j] != gg[j] {
			t.Fatalf("global mean dim %d: %v != %v", j, gg[j], gw[j])
		}
	}
}

// TestAddAggregateRejectsMismatch pins the strictness of the load path.
func TestAddAggregateRejectsMismatch(t *testing.T) {
	m := NewFeatureMap(2)
	if err := m.AddAggregate(0, 1, 1, []float64{1}, nil); err == nil {
		t.Error("wrong dims accepted")
	}
	if err := m.AddAggregate(0, 1, 0, []float64{1, 2}, nil); err == nil {
		t.Error("zero count accepted")
	}
	if err := m.AddAggregate(0, 1, 1, []float64{1, 2}, make([]map[float64]int, 3)); err == nil {
		t.Error("wrong cats dims accepted")
	}
	if m.NumEdges() != 0 {
		t.Error("failed AddAggregate mutated the map")
	}
}
