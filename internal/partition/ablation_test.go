package partition

import (
	"fmt"
	"testing"
)

// The ablations DESIGN.md and EXPERIMENTS.md report: alternative
// k-partitioners and an alternative similarity, measured against the
// paper's Eq. (3) and exact DP. Production code never runs them.

// L1Similarity is an ablation alternative to the paper's cosine measure:
// one minus the weighted mean absolute difference of the (normalized)
// feature vectors, clamped to [0, 1].
func L1Similarity(u, v, w []float64) float64 {
	if len(u) != len(v) {
		panic(fmt.Sprintf("partition: vector length mismatch %d vs %d", len(u), len(v)))
	}
	if len(u) == 0 {
		return 1
	}
	var sum, wsum float64
	for j := range u {
		wj := 1.0
		if w != nil {
			wj = w[j]
		}
		d := u[j] - v[j]
		if d < 0 {
			d = -d
		}
		if d > 1 {
			d = 1
		}
		sum += wj * d
		wsum += wj
	}
	if wsum == 0 {
		return 1
	}
	s := 1 - sum/wsum
	if s < 0 {
		return 0
	}
	return s
}

// l1Cuts applies Optimal's per-boundary rule with L1Similarity in place
// of Eq. (3): cut where Ca·li.s exceeds the neighbours' similarity.
func l1Cuts(in Input, ca float64) []bool {
	cuts := make([]bool, len(in.Features))
	for i := 1; i < len(cuts); i++ {
		cuts[i] = ca*in.Significance[i] > L1Similarity(in.Features[i-1], in.Features[i], nil)
	}
	return cuts
}

// Energy computes the total potential of an arbitrary cut mask, for
// comparing alternative partitioners.
func Energy(in Input, cuts []bool, opts Options) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if len(cuts) != len(in.Features) {
		return 0, fmt.Errorf("partition: cuts length %d, want %d", len(cuts), len(in.Features))
	}
	opts = opts.withDefaults()
	sims := similarities(in, opts)
	return cutsToResult(in, sims, opts.Ca, cuts).Energy, nil
}

// GreedyK is a baseline k-partitioner: it ranks interior boundaries by
// cut benefit (Ca·li.s − S) and greedily takes the top k−1. Because
// Eq. (2)'s potential is separable per boundary, GreedyK reaches the same
// energy as the DP; it serves as a cross-check and a speed comparison
// point.
func GreedyK(in Input, k int, opts Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	n := len(in.Features)
	if k < 1 || k > n {
		return Result{}, fmt.Errorf("partition: k = %d out of range [1, %d]", k, n)
	}
	opts = opts.withDefaults()
	sims := similarities(in, opts)
	type cand struct {
		i       int
		benefit float64
	}
	cands := make([]cand, 0, n-1)
	for i := 1; i < n; i++ {
		cands = append(cands, cand{i: i, benefit: opts.Ca*in.Significance[i] - sims[i]})
	}
	// Selection sort of the top k−1 by benefit keeps this deterministic
	// (ties broken by position).
	cuts := make([]bool, n)
	for c := 0; c < k-1; c++ {
		best := -1
		for j, cd := range cands {
			if cuts[cd.i] {
				continue
			}
			if best < 0 || cd.benefit > cands[best].benefit ||
				(cd.benefit == cands[best].benefit && cd.i < cands[best].i) {
				best = j
			}
		}
		cuts[cands[best].i] = true
	}
	return cutsToResult(in, sims, opts.Ca, cuts), nil
}

// UniformK is the naive baseline: it ignores features and significance
// entirely and cuts the segment chain into k runs of equal length. Its
// energy is generally worse than the optimum, quantifying the value of
// feature-aware partitioning.
func UniformK(in Input, k int, opts Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	n := len(in.Features)
	if k < 1 || k > n {
		return Result{}, fmt.Errorf("partition: k = %d out of range [1, %d]", k, n)
	}
	opts = opts.withDefaults()
	sims := similarities(in, opts)
	cuts := make([]bool, n)
	for c := 1; c < k; c++ {
		cuts[c*n/k] = true
	}
	return cutsToResult(in, sims, opts.Ca, cuts), nil
}

// BenchmarkAblationDPPartition times the exact-k DP partitioner on a
// 200-segment trajectory.
func BenchmarkAblationDPPartition(b *testing.B) {
	in := randomInput(200, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KPartition(in, 7, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGreedyPartition times the greedy equivalent; on this
// separable potential it reaches the same energy
// (TestGreedyKMatchesDPEnergy).
func BenchmarkAblationGreedyPartition(b *testing.B) {
	in := randomInput(200, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyK(in, 7, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUniformPartition times the naive equal-split baseline
// and reports its energy excess over the DP optimum.
func BenchmarkAblationUniformPartition(b *testing.B) {
	in := randomInput(200, 1)
	dp, err := KPartition(in, 7, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var excess float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		un, err := UniformK(in, 7, Options{})
		if err != nil {
			b.Fatal(err)
		}
		excess = un.Energy - dp.Energy
	}
	b.ReportMetric(excess, "energy-excess")
}

// BenchmarkAblationCosineSimilarity times the paper's Eq. (3) measure.
func BenchmarkAblationCosineSimilarity(b *testing.B) {
	in := randomInput(2, 3)
	u, v := in.Features[0], in.Features[1]
	w := []float64{1, 1, 1, 1, 1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Similarity(u, v, w)
	}
}

// BenchmarkAblationL1Similarity times the L1 alternative and, as a side
// metric, the cut disagreement it causes against the cosine partition.
func BenchmarkAblationL1Similarity(b *testing.B) {
	in := randomInput(2, 3)
	u, v := in.Features[0], in.Features[1]
	w := []float64{1, 1, 1, 1, 1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L1Similarity(u, v, w)
	}
	b.StopTimer()
	big := randomInput(400, 4)
	cos, err := Optimal(big, Options{})
	if err != nil {
		b.Fatal(err)
	}
	l1 := l1Cuts(big, DefaultCa)
	var disagree float64
	for i := range cos.Cuts {
		if cos.Cuts[i] != l1[i] {
			disagree++
		}
	}
	b.ReportMetric(disagree/float64(len(cos.Cuts))*100, "cut-disagree%")
}
