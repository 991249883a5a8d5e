package roadnet

import (
	"math"

	"stmaker/internal/geo"
)

// referenceHMM is the oracle the serving HMM matcher must reproduce byte
// for byte. It decodes over the same candidates and emissions (the
// matcher's own appendStep) but runs its own Viterbi, and it scores
// every transition from up to four point-to-point Graph.ShortestPath
// calls: no step table, no search bound, no distance cache and no
// router.
type referenceHMM struct{ h *HMMMatcher }

func newReferenceHMM(g *Graph) referenceHMM {
	return referenceHMM{h: NewHMMMatcher(g, HMMOptions{})}
}

// candidates returns the scored candidate edges of p.
func (r referenceHMM) candidates(p geo.Point) []candidate {
	var sc stepScratch
	r.h.appendStep(&sc, p)
	return sc.cands
}

// MatchPoints decodes each maximal run of points with candidates on its
// own, leaving the points without candidates unmatched.
func (r referenceHMM) MatchPoints(points []geo.Point) []Match {
	out := make([]Match, len(points))
	var (
		run   [][]candidate // the current run's candidates, step by step
		back  [][]int       // per step and candidate: best predecessor
		probs []float64     // best log-probability of each current candidate
	)
	finish := func(end int) {
		if len(run) == 0 {
			return
		}
		best := 0
		for j := range probs {
			if probs[j] > probs[best] {
				best = j
			}
		}
		for s := len(run) - 1; s >= 0; s-- {
			out[end-len(run)+s] = run[s][best].match
			best = back[s][best]
		}
		run, back = nil, nil
	}
	for i, p := range points {
		cands := r.candidates(p)
		if len(cands) == 0 {
			finish(i)
			continue
		}
		from := make([]int, len(cands))
		next := make([]float64, len(cands))
		if len(run) == 0 {
			for j, c := range cands {
				from[j], next[j] = -1, c.emission
			}
		} else {
			prev := run[len(run)-1]
			straight := geo.Distance(points[i-1], p)
			for j, nc := range cands {
				best, bestFrom := math.Inf(-1), -1
				for k, pc := range prev {
					if v := probs[k] + r.transition(pc.match, nc.match, straight); v > best {
						best, bestFrom = v, k
					}
				}
				from[j], next[j] = bestFrom, best+nc.emission
			}
		}
		run, back, probs = append(run, cands), append(back, from), next
	}
	finish(len(points))
	return out
}

// transition is the log transition probability of Newson & Krumm: an
// exponential penalty on |network distance − straight-line distance|.
func (r referenceHMM) transition(a, b Match, straight float64) float64 {
	diff := math.Abs(r.networkDistance(a, b) - straight)
	return -diff / hmmBetaMeters
}

// networkDistance approximates driving distance between two on-edge
// positions: along-edge when both lie on the same edge, otherwise the
// best combination of residual edge distance plus a node-level shortest
// path between the edges' endpoints, one point-to-point search per
// endpoint pair. When no endpoint pair connects, it falls back to the
// straight line between the matched positions, so the transition is
// merely very unlikely, not impossible.
func (r referenceHMM) networkDistance(a, b Match) float64 {
	if a.Edge.ID == b.Edge.ID {
		return math.Abs(a.Along - b.Along)
	}
	type end struct {
		node NodeID
		cost float64
	}
	best := math.Inf(1)
	for _, from := range [2]end{{a.Edge.From, a.Along}, {a.Edge.To, a.Edge.Length() - a.Along}} {
		for _, to := range [2]end{{b.Edge.From, b.Along}, {b.Edge.To, b.Edge.Length() - b.Along}} {
			var mid float64
			if from.node != to.node {
				path, err := r.h.g.ShortestPath(from.node, to.node, ByDistance)
				if err != nil {
					continue
				}
				mid = path.Cost
			}
			if total := from.cost + mid + to.cost; total < best {
				best = total
			}
		}
	}
	if math.IsInf(best, 1) {
		return geo.Distance(a.Point(), b.Point())
	}
	return best
}
