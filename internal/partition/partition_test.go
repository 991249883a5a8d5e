package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimilarityBasics(t *testing.T) {
	u := []float64{1, 0, 0}
	if got := Similarity(u, u, nil); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical vectors: %v", got)
	}
	v := []float64{0, 1, 0}
	if got := Similarity(u, v, nil); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("orthogonal vectors: %v", got)
	}
	zero := []float64{0, 0, 0}
	if got := Similarity(zero, zero, nil); got != 1 {
		t.Errorf("two zero vectors: %v", got)
	}
	if got := Similarity(u, zero, nil); got != 0.5 {
		t.Errorf("one zero vector: %v", got)
	}
}

func TestSimilarityWeighted(t *testing.T) {
	u := []float64{1, 0}
	v := []float64{1, 1}
	// With the second dimension weighted to zero, the vectors look
	// identical.
	if got := Similarity(u, v, []float64{1, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("weighted similarity = %v, want 1", got)
	}
	// Increasing a differing dimension's weight lowers similarity.
	low := Similarity(u, v, []float64{1, 0.5})
	high := Similarity(u, v, []float64{1, 4})
	if high >= low {
		t.Fatalf("higher weight on differing dim should lower similarity: %v vs %v", high, low)
	}
}

func TestSimilarityRangeProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		s := Similarity(a[:], b[:], nil)
		return s >= 0 && s <= 1 && !math.IsNaN(s) &&
			math.Abs(s-Similarity(b[:], a[:], nil)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths should panic")
		}
	}()
	Similarity([]float64{1}, []float64{1, 2}, nil)
}

// twoRegimes builds an input with n segments where the first half has
// feature pattern A, the second half pattern B, and only the middle
// landmark is significant.
func twoRegimes(n int) Input {
	in := Input{
		Features:     make([][]float64, n),
		Significance: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		if i < n/2 {
			in.Features[i] = []float64{1, 0, 0}
		} else {
			in.Features[i] = []float64{0, 0, 1}
		}
	}
	in.Significance[n/2] = 1.0
	return in
}

func TestOptimalCutsAtRegimeChange(t *testing.T) {
	// Orthogonal regimes give S=0.5 at the boundary; Ca=1.2 with a
	// max-significance landmark makes cutting there the cheaper choice,
	// while within-regime boundaries (S=1, significance 0) stay merged.
	in := twoRegimes(10)
	res, err := Optimal(in, Options{Ca: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 2 {
		t.Fatalf("parts = %d, want 2 (%+v)", len(res.Parts), res.Parts)
	}
	if res.Parts[0].FirstSeg != 0 || res.Parts[0].LastSeg != 4 ||
		res.Parts[1].FirstSeg != 5 || res.Parts[1].LastSeg != 9 {
		t.Fatalf("parts = %+v", res.Parts)
	}
	if !res.Cuts[5] {
		t.Fatal("cut mask missing regime boundary")
	}
}

func TestOptimalSinglePartWhenHomogeneous(t *testing.T) {
	in := Input{Features: make([][]float64, 6), Significance: make([]float64, 6)}
	for i := range in.Features {
		in.Features[i] = []float64{1, 1}
	}
	// Even significant landmarks don't beat perfect similarity at the
	// default Ca=0.5 (0.5·1 < 1).
	for i := range in.Significance {
		in.Significance[i] = 1
	}
	res, err := Optimal(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 1 {
		t.Fatalf("parts = %+v, want single part", res.Parts)
	}
}

func TestOptimalCaControlsCutting(t *testing.T) {
	in := Input{Features: make([][]float64, 4), Significance: make([]float64, 4)}
	for i := range in.Features {
		in.Features[i] = []float64{1, 1}
	}
	for i := range in.Significance {
		in.Significance[i] = 1
	}
	// With a huge Ca, cutting everywhere wins.
	res, err := Optimal(in, Options{Ca: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 4 {
		t.Fatalf("Ca=10 parts = %d, want 4", len(res.Parts))
	}
}

func TestPartsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(20)
		in := Input{Features: make([][]float64, n), Significance: make([]float64, n)}
		for i := 0; i < n; i++ {
			in.Features[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			in.Significance[i] = rng.Float64()
		}
		res, err := Optimal(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkCoverage(t, res, n)
		k := 1 + rng.Intn(n)
		kres, err := KPartition(in, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(kres.Parts) != k {
			t.Fatalf("KPartition returned %d parts, want %d", len(kres.Parts), k)
		}
		checkCoverage(t, kres, n)
	}
}

// checkCoverage asserts Def. 5: the parts cover all segments contiguously
// and disjointly.
func checkCoverage(t *testing.T, res Result, n int) {
	t.Helper()
	next := 0
	for _, p := range res.Parts {
		if p.FirstSeg != next {
			t.Fatalf("gap/overlap at segment %d: %+v", next, res.Parts)
		}
		if p.LastSeg < p.FirstSeg {
			t.Fatalf("inverted part %+v", p)
		}
		next = p.LastSeg + 1
	}
	if next != n {
		t.Fatalf("parts end at %d, want %d", next, n)
	}
}

func TestKPartitionMatchesEnergyOfBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(8) // small enough for brute force
		in := Input{Features: make([][]float64, n), Significance: make([]float64, n)}
		for i := 0; i < n; i++ {
			in.Features[i] = []float64{rng.Float64(), rng.Float64()}
			in.Significance[i] = rng.Float64()
		}
		for k := 1; k <= n; k++ {
			res, err := KPartition(in, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			best := bruteForceK(t, in, k)
			if math.Abs(res.Energy-best) > 1e-9 {
				t.Fatalf("n=%d k=%d: DP energy %v, brute force %v", n, k, res.Energy, best)
			}
		}
	}
}

// bruteForceK enumerates all cut masks with exactly k parts.
func bruteForceK(t *testing.T, in Input, k int) float64 {
	t.Helper()
	n := len(in.Features)
	best := math.Inf(1)
	for mask := 0; mask < 1<<(n-1); mask++ {
		cuts := make([]bool, n)
		parts := 1
		for i := 1; i < n; i++ {
			if mask&(1<<(i-1)) != 0 {
				cuts[i] = true
				parts++
			}
		}
		if parts != k {
			continue
		}
		e, err := Energy(in, cuts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if e < best {
			best = e
		}
	}
	return best
}

func TestGreedyKMatchesDPEnergy(t *testing.T) {
	// The potential is separable per boundary, so the greedy top-(k−1)
	// selection must reach the DP optimum exactly.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(15)
		in := Input{Features: make([][]float64, n), Significance: make([]float64, n)}
		for i := 0; i < n; i++ {
			in.Features[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			in.Significance[i] = rng.Float64()
		}
		k := 1 + rng.Intn(n)
		dp, err := KPartition(in, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := GreedyK(in, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dp.Energy-gr.Energy) > 1e-9 {
			t.Fatalf("n=%d k=%d: DP %v vs greedy %v", n, k, dp.Energy, gr.Energy)
		}
		if len(gr.Parts) != k {
			t.Fatalf("greedy parts = %d", len(gr.Parts))
		}
	}
}

func TestUniformKNeverBeatsDP(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(15)
		in := Input{Features: make([][]float64, n), Significance: make([]float64, n)}
		for i := 0; i < n; i++ {
			in.Features[i] = []float64{rng.Float64(), rng.Float64()}
			in.Significance[i] = rng.Float64()
		}
		k := 1 + rng.Intn(n)
		dp, err := KPartition(in, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		un, err := UniformK(in, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(un.Parts) != k {
			t.Fatalf("uniform parts = %d, want %d", len(un.Parts), k)
		}
		if un.Energy < dp.Energy-1e-9 {
			t.Fatalf("uniform beat DP: %v < %v", un.Energy, dp.Energy)
		}
	}
}

func TestKPartitionErrors(t *testing.T) {
	in := twoRegimes(5)
	if _, err := KPartition(in, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KPartition(in, 6, Options{}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := KPartition(Input{}, 1, Options{}); err == nil {
		t.Error("empty input accepted")
	}
	bad := Input{Features: [][]float64{{1}, {1, 2}}, Significance: []float64{0, 0}}
	if _, err := KPartition(bad, 1, Options{}); err == nil {
		t.Error("ragged features accepted")
	}
	short := Input{Features: [][]float64{{1}}, Significance: nil}
	if _, err := Optimal(short, Options{}); err == nil {
		t.Error("mismatched significance accepted")
	}
}

func TestKPartitionK1AndKn(t *testing.T) {
	in := twoRegimes(6)
	one, err := KPartition(in, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Parts) != 1 || one.Parts[0].FirstSeg != 0 || one.Parts[0].LastSeg != 5 {
		t.Fatalf("k=1 parts = %+v", one.Parts)
	}
	all, err := KPartition(in, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Parts) != 6 {
		t.Fatalf("k=n parts = %d", len(all.Parts))
	}
	for i, p := range all.Parts {
		if p.FirstSeg != i || p.LastSeg != i {
			t.Fatalf("k=n part %d = %+v", i, p)
		}
	}
}

func TestEnergyValidation(t *testing.T) {
	in := twoRegimes(4)
	if _, err := Energy(in, []bool{true}, Options{}); err == nil {
		t.Error("wrong cuts length accepted")
	}
	e, err := Energy(in, make([]bool, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All-merge energy is −sum of similarities.
	if e >= 0 {
		t.Errorf("all-merge energy = %v, want negative", e)
	}
}

func TestOptimalIsUnconstrainedMinimum(t *testing.T) {
	// Optimal's energy must equal the minimum over all k of KPartition.
	// With features and significance in [0, 1], the similarity is at
	// least 0.5, so a Ca of 0.5 or less never cuts and the minimum is
	// always k = 1. Ca is drawn from (0.5, 3] so the oracle also checks
	// real cuts, and enough trials must cut for that to mean something.
	rng := rand.New(rand.NewSource(31))
	const trials = 30
	cut := 0
	for trial := 0; trial < trials; trial++ {
		opts := Options{Ca: 3 - 2.5*rng.Float64()}
		n := 2 + rng.Intn(10)
		in := Input{Features: make([][]float64, n), Significance: make([]float64, n)}
		for i := 0; i < n; i++ {
			in.Features[i] = []float64{rng.Float64(), rng.Float64()}
			in.Significance[i] = rng.Float64()
		}
		opt, err := Optimal(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(opt.Parts) > 1 {
			cut++
		}
		best := math.Inf(1)
		for k := 1; k <= n; k++ {
			res, err := KPartition(in, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Energy < best {
				best = res.Energy
			}
		}
		if math.Abs(opt.Energy-best) > 1e-9 {
			t.Fatalf("trial %d (Ca %.3f): Optimal %v vs min-k %v", trial, opts.Ca, opt.Energy, best)
		}
	}
	if cut < 10 {
		t.Fatalf("Optimal cut in only %d of %d trials; the oracle needs inputs where cuts pay", cut, trials)
	}
}

func TestL1Similarity(t *testing.T) {
	u := []float64{1, 0, 0.5}
	if got := L1Similarity(u, u, nil); got != 1 {
		t.Errorf("identical L1 = %v", got)
	}
	if got := L1Similarity([]float64{1, 1}, []float64{0, 0}, nil); got != 0 {
		t.Errorf("opposite L1 = %v", got)
	}
	if got := L1Similarity(nil, nil, nil); got != 1 {
		t.Errorf("empty L1 = %v", got)
	}
	// Weighted: zeroing the differing dimension makes them identical.
	if got := L1Similarity([]float64{1, 0}, []float64{1, 1}, []float64{1, 0}); got != 1 {
		t.Errorf("weighted L1 = %v", got)
	}
	// All-zero weights degrade to similarity 1.
	if got := L1Similarity([]float64{1}, []float64{0}, []float64{0}); got != 1 {
		t.Errorf("zero-weight L1 = %v", got)
	}
	// Values beyond [0,1] are clamped per-dimension.
	if got := L1Similarity([]float64{5}, []float64{0}, nil); got != 0 {
		t.Errorf("clamped L1 = %v", got)
	}
}

func TestL1SimilarityMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths should panic")
		}
	}()
	L1Similarity([]float64{1}, []float64{1, 2}, nil)
}

// TestSimilarityFuncOverride swaps L1Similarity in for Eq. (3) under
// Optimal's per-boundary rule: both measures must find the regime
// boundary.
func TestSimilarityFuncOverride(t *testing.T) {
	in := twoRegimes(6)
	cos, err := Optimal(in, Options{Ca: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	l1 := l1Cuts(in, 1.2)
	if !cos.Cuts[3] || !l1[3] {
		t.Fatalf("regime cut missing: cos=%v l1=%v", cos.Cuts, l1)
	}
}

func TestSimilarityRangePropertyL1(t *testing.T) {
	f := func(a, b [4]float64) bool {
		for i := range a {
			a[i] = math.Mod(math.Abs(a[i]), 1)
			b[i] = math.Mod(math.Abs(b[i]), 1)
		}
		s := L1Similarity(a[:], b[:], nil)
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
