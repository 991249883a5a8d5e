package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"stmaker/internal/geo"
	"stmaker/internal/roadnet"
)

// MatcherAccuracyResult compares the two map-matching substrates — greedy
// nearest-edge and HMM (Viterbi) — against the simulator's ground-truth
// paths under additional GPS noise. It validates the substrate choice the
// routing features depend on.
type MatcherAccuracyResult struct {
	Trips       int
	NoiseMeters float64
	// GreedyAccuracy and HMMAccuracy are the fractions of samples matched
	// to an edge of the trip's true path.
	GreedyAccuracy float64
	HMMAccuracy    float64
}

// MatcherAccuracy re-noises the first n test trips' samples by
// noiseMeters and measures both matchers' accuracy against the trips'
// ground-truth edge sets.
func MatcherAccuracy(w *World, n int, noiseMeters float64) (*MatcherAccuracyResult, error) {
	trips := sampleTrips(w.Test, n)
	if len(trips) == 0 {
		return nil, fmt.Errorf("experiments: no trips to match")
	}
	if noiseMeters < 0 {
		noiseMeters = 0
	}
	g := w.City.Graph
	greedy := w.City.Matcher
	hmm := roadnet.NewHMMMatcher(g, roadnet.HMMOptions{})
	rng := rand.New(rand.NewSource(w.Opts.Seed + 99))

	var totalSamples, greedyHits, hmmHits int
	for _, trip := range trips {
		truth := pathEdgeSet(g, trip.Path)
		if len(truth) == 0 {
			continue
		}
		pts := make([]geo.Point, len(trip.Raw.Samples))
		for i, s := range trip.Raw.Samples {
			pts[i] = geo.Destination(s.Pt, rng.Float64()*360, rng.Float64()*noiseMeters)
		}
		totalSamples += len(pts)
		var prev *roadnet.Edge
		for _, p := range pts {
			m, ok := greedy.NearestEdge(p, 150, prev)
			if !ok {
				continue
			}
			prev = m.Edge
			if truth[m.Edge.ID] {
				greedyHits++
			}
		}
		for _, m := range hmm.MatchPoints(pts) {
			if m.Edge != nil && truth[m.Edge.ID] {
				hmmHits++
			}
		}
	}
	if totalSamples == 0 {
		return nil, fmt.Errorf("experiments: no samples matched")
	}
	return &MatcherAccuracyResult{
		Trips:          len(trips),
		NoiseMeters:    noiseMeters,
		GreedyAccuracy: float64(greedyHits) / float64(totalSamples),
		HMMAccuracy:    float64(hmmHits) / float64(totalSamples),
	}, nil
}

// pathEdgeSet collects the edge ids along a node path.
func pathEdgeSet(g *roadnet.Graph, path []roadnet.NodeID) map[roadnet.EdgeID]bool {
	out := make(map[roadnet.EdgeID]bool)
	for i := 1; i < len(path); i++ {
		if e := g.EdgeBetween(path[i-1], path[i]); e != nil {
			out[e.ID] = true
		}
	}
	return out
}

// Format writes the comparison rows.
func (r *MatcherAccuracyResult) Format(out io.Writer) {
	fmt.Fprintf(out, "Map-matching accuracy (substrate validation) — %d trips, +%.0f m noise\n", r.Trips, r.NoiseMeters)
	fmt.Fprintf(out, "  greedy nearest-edge: %5.1f%%\n", r.GreedyAccuracy*100)
	fmt.Fprintf(out, "  HMM (Viterbi):       %5.1f%%\n", r.HMMAccuracy*100)
}
