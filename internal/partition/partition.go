// Package partition implements STMaker's trajectory partitioning (§IV).
//
// The paper models partitioning as labelling the chain of trajectory
// segments with a conditional random field whose potential function
// (Eq. 2) rewards cutting at significant landmarks and merging similar
// neighbouring segments:
//
//	Φ(Xi, Xi+1) = −S(TSi, TSi+1)  if Xi = Xi+1   (merge)
//	Φ(Xi, Xi+1) = −Ca · li.s      if Xi ≠ Xi+1   (cut)
//
// Maximizing Pr(X|T) minimizes the summed potential, which dynamic
// programming solves exactly on the chain (Eq. 4), including under an
// exact-k partition-count constraint (Algorithm 1).
package partition

import (
	"fmt"
	"math"
)

// DefaultCa is the paper's experimental setting for the landmark
// significance weight Ca (§VII-B).
const DefaultCa = 0.5

// Options configures the partitioner.
type Options struct {
	// Ca is the positive constant weighting landmark significance in the
	// potential function (default DefaultCa).
	Ca float64
	// Weights are the per-feature weights w in registry order; nil means
	// all 1.
	Weights []float64
}

func (o Options) withDefaults() Options {
	if o.Ca <= 0 {
		o.Ca = DefaultCa
	}
	return o
}

// Similarity is Eq. (3): the weighted cosine similarity of two feature
// vectors mapped into [0, 1]. A nil weight vector means all-ones. Two zero
// vectors are considered identical (similarity 1); a zero vector against a
// non-zero one yields 0.5 (the image of cosine 0).
func Similarity(u, v, w []float64) float64 {
	if len(u) != len(v) {
		panic(fmt.Sprintf("partition: vector length mismatch %d vs %d", len(u), len(v)))
	}
	// Cosine is invariant to scaling each vector independently; dividing by
	// the max magnitude guards the squared terms against overflow.
	su, sv := maxAbs(u), maxAbs(v)
	if su == 0 { //lint:allow floateq -- division-by-zero guard: only exact zero is unsafe
		su = 1
	}
	if sv == 0 { //lint:allow floateq -- division-by-zero guard: only exact zero is unsafe
		sv = 1
	}
	var dot, nu, nv float64
	for j := range u {
		wj := 1.0
		if w != nil {
			wj = w[j]
		}
		uj, vj := u[j]/su, v[j]/sv
		dot += wj * uj * vj
		nu += wj * uj * uj
		nv += wj * vj * vj
	}
	switch {
	case nu == 0 && nv == 0: //lint:allow floateq -- zero-vector guard: only exact zero norms need the special case
		return 1
	case nu == 0 || nv == 0: //lint:allow floateq -- zero-vector guard: only exact zero norms need the special case
		return 0.5
	}
	cos := dot / (math.Sqrt(nu) * math.Sqrt(nv))
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return (cos + 1) / 2
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		if x > m {
			m = x
		}
	}
	return m
}

// Input is the partitioning problem: n segments with their normalized
// feature vectors, and the significance of each interior landmark.
type Input struct {
	// Features[i] is segment i's normalized feature vector.
	Features [][]float64
	// Significance[i], for i in 1..n-1, is li.s — the significance of the
	// landmark shared by segments i-1 and i (a potential cut point).
	// Significance[0] is unused.
	Significance []float64
}

// Validate checks the shape invariants of the input.
func (in Input) Validate() error {
	n := len(in.Features)
	if n == 0 {
		return fmt.Errorf("partition: no segments")
	}
	if len(in.Significance) != n {
		return fmt.Errorf("partition: significance length %d, want %d", len(in.Significance), n)
	}
	dims := len(in.Features[0])
	for i, f := range in.Features {
		if len(f) != dims {
			return fmt.Errorf("partition: feature vector %d has %d dims, want %d", i, len(f), dims)
		}
	}
	return nil
}

// Part is one trajectory partition: the inclusive range of segment indices
// it covers.
type Part struct {
	FirstSeg, LastSeg int
}

// Result is a computed partition.
type Result struct {
	// Parts covers all segments contiguously and disjointly (Def. 5).
	Parts []Part
	// Energy is the minimized total potential Σ Φ (lower is better).
	Energy float64
	// Cuts[i] is true when a boundary lies between segments i-1 and i.
	Cuts []bool
}

// similarities precomputes S(TS_{i-1}, TS_i) for i = 1..n-1.
func similarities(in Input, opts Options) []float64 {
	n := len(in.Features)
	sims := make([]float64, n)
	for i := 1; i < n; i++ {
		sims[i] = Similarity(in.Features[i-1], in.Features[i], opts.Weights)
	}
	return sims
}

// cutsToResult converts a cut mask into parts and computes the energy.
func cutsToResult(in Input, sims []float64, ca float64, cuts []bool) Result {
	n := len(in.Features)
	var parts []Part
	var energy float64
	first := 0
	for i := 1; i < n; i++ {
		if cuts[i] {
			energy -= ca * in.Significance[i]
			parts = append(parts, Part{FirstSeg: first, LastSeg: i - 1})
			first = i
		} else {
			energy -= sims[i]
		}
	}
	parts = append(parts, Part{FirstSeg: first, LastSeg: n - 1})
	return Result{Parts: parts, Energy: energy, Cuts: cuts}
}

// Optimal computes the globally optimal partition under Eq. (4): at every
// interior landmark the cheaper of cutting (−Ca·li.s) and merging
// (−S(TSi−1, TSi)) is chosen. This is the default partition in STMaker.
func Optimal(in Input, opts Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	sims := similarities(in, opts)
	n := len(in.Features)
	cuts := make([]bool, n)
	for i := 1; i < n; i++ {
		// On a chain the two alternatives at each boundary are
		// independent, so the DP reduces to a per-boundary choice.
		cuts[i] = opts.Ca*in.Significance[i] > sims[i]
	}
	return cutsToResult(in, sims, opts.Ca, cuts), nil
}

// KPartition computes the optimal partition into exactly k parts
// (Algorithm 1). The DP state E[i][j] is the best energy of the first i+1
// segments split into j parts:
//
//	E[i][j] = min( E[i-1][j-1] − Ca·li.s,  E[i-1][j] − S(TSi−1, TSi) )
//
// It returns an error when k is out of the feasible range [1, n].
func KPartition(in Input, k int, opts Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	n := len(in.Features)
	if k < 1 || k > n {
		return Result{}, fmt.Errorf("partition: k = %d out of range [1, %d]", k, n)
	}
	opts = opts.withDefaults()
	sims := similarities(in, opts)

	const inf = math.MaxFloat64
	// E[i][j]: best energy for segments 0..i in j parts (j in 1..k).
	E := make([][]float64, n)
	cutChoice := make([][]bool, n)
	for i := range E {
		E[i] = make([]float64, k+1)
		cutChoice[i] = make([]bool, k+1)
		for j := range E[i] {
			E[i][j] = inf
		}
	}
	E[0][1] = 0
	for i := 1; i < n; i++ {
		maxJ := i + 1
		if maxJ > k {
			maxJ = k
		}
		for j := 1; j <= maxJ; j++ {
			best, cut := inf, false
			if E[i-1][j] < inf {
				best = E[i-1][j] - sims[i]
			}
			if j > 1 && E[i-1][j-1] < inf {
				if c := E[i-1][j-1] - opts.Ca*in.Significance[i]; c < best {
					best, cut = c, true
				}
			}
			E[i][j] = best
			cutChoice[i][j] = cut
		}
	}
	if E[n-1][k] >= inf {
		return Result{}, fmt.Errorf("partition: no %d-partition of %d segments", k, n)
	}
	// Reconstruct cut positions.
	cuts := make([]bool, n)
	for i, j := n-1, k; i >= 1; i-- {
		if cutChoice[i][j] {
			cuts[i] = true
			j--
		}
	}
	res := cutsToResult(in, sims, opts.Ca, cuts)
	return res, nil
}
