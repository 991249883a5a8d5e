// Package hits implements a HITS-like algorithm (Kleinberg's hubs and
// authorities) over a bipartite visit graph, following the use in STMaker
// (§IV-B, citing Zheng et al., WWW 2009): travellers are modelled as
// authorities, landmarks as hubs, and check-ins/visits as hyperlinks. The
// converged hub score of a landmark is its significance.
package hits

import (
	"cmp"
	"math"
	"slices"
)

// Visit records that a traveller visited a landmark. Multiplicity matters:
// repeated visits strengthen the link.
type Visit struct {
	Traveller int
	Landmark  int
}

// Options configures the power iteration.
type Options struct {
	// MaxIterations bounds the number of power iterations (default 50).
	MaxIterations int
	// Tolerance stops iteration once the L1 change of the hub vector drops
	// below it (default 1e-9).
	Tolerance float64
}

func (o Options) withDefaults() Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 50
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-9
	}
	return o
}

// Scores holds the converged scores. Both vectors are L1-normalized
// (entries sum to 1) unless the corresponding side is empty.
type Scores struct {
	// LandmarkHub[l] is the significance of landmark l.
	LandmarkHub []float64
	// TravellerAuthority[t] is the authority of traveller t.
	TravellerAuthority []float64
	// Iterations is the number of power iterations performed.
	Iterations int
}

// Run computes hub scores for numLandmarks landmarks and authority scores
// for numTravellers travellers from the visit multiset. Visits referencing
// out-of-range ids are ignored.
func Run(numTravellers, numLandmarks int, visits []Visit, opts Options) Scores {
	opts = opts.withDefaults()
	hub := make([]float64, numLandmarks)
	auth := make([]float64, numTravellers)
	if numLandmarks == 0 || numTravellers == 0 {
		return Scores{LandmarkHub: hub, TravellerAuthority: auth}
	}

	// Adjacency with multiplicity: edge weight = visit count.
	type edge struct {
		t, l int
		w    float64
	}
	weights := make(map[[2]int]float64)
	for _, v := range visits {
		if v.Traveller < 0 || v.Traveller >= numTravellers ||
			v.Landmark < 0 || v.Landmark >= numLandmarks {
			continue
		}
		weights[[2]int{v.Traveller, v.Landmark}]++
	}
	edges := make([]edge, 0, len(weights))
	for k, w := range weights {
		edges = append(edges, edge{t: k[0], l: k[1], w: w})
	}
	// Map order is random; a fixed order makes the float sums below, and
	// so every significance score, bit-deterministic.
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.l, b.l))
	})

	for i := range hub {
		hub[i] = 1.0 / float64(numLandmarks)
	}
	for i := range auth {
		auth[i] = 1.0 / float64(numTravellers)
	}

	prev := make([]float64, numLandmarks)
	iters := 0
	for iter := 0; iter < opts.MaxIterations; iter++ {
		iters = iter + 1
		// Authority update: a(t) = sum over visited landmarks of h(l).
		for i := range auth {
			auth[i] = 0
		}
		for _, e := range edges {
			auth[e.t] += e.w * hub[e.l]
		}
		normalizeL1(auth)

		// Hub update: h(l) = sum over visiting travellers of a(t).
		copy(prev, hub)
		for i := range hub {
			hub[i] = 0
		}
		for _, e := range edges {
			hub[e.l] += e.w * auth[e.t]
		}
		normalizeL1(hub)

		var delta float64
		for i := range hub {
			delta += math.Abs(hub[i] - prev[i])
		}
		if delta < opts.Tolerance {
			break
		}
	}
	return Scores{LandmarkHub: hub, TravellerAuthority: auth, Iterations: iters}
}

// normalizeL1 scales v so its entries sum to 1; a zero vector is left as is.
func normalizeL1(v []float64) {
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum == 0 { //lint:allow floateq -- division-by-zero guard: only exact zero is unsafe
		return
	}
	for i := range v {
		v[i] /= sum
	}
}
