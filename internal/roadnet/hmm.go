package roadnet

import (
	"math"
	"sync"
	"sync/atomic"

	"stmaker/internal/geo"
)

// HMMOptions configures the hidden-Markov-model map matcher, which follows
// Newson & Krumm (SIGSPATIAL 2009) — the map-matching approach the paper's
// related-work section points to for trajectory annotation. States are
// candidate edges per GPS sample; emissions score perpendicular distance,
// transitions score the agreement between network distance and
// great-circle distance; Viterbi decodes the most likely edge sequence.
// The model's parameters are fixed (hmmSigmaMeters, hmmBetaMeters,
// hmmCandidateRadiusMeters, hmmMaxCandidates); the only option is where
// transition distances are cached.
type HMMOptions struct {
	// Cache, when non-nil, shares node-to-node shortest-path distances
	// across MatchPoints calls (and across goroutines — the cache is
	// concurrency-safe). Transition distances repeat heavily between
	// requests whose trajectories overlap, so serving paths should pass a
	// process-wide cache; see SPCache.
	Cache *SPCache
}

const (
	// hmmSigmaMeters is the GPS noise standard deviation of the emission
	// model.
	hmmSigmaMeters = 15
	// hmmBetaMeters scales the transition penalty for route/great-circle
	// disagreement.
	hmmBetaMeters = 50
	// hmmCandidateRadiusMeters bounds the per-sample candidate search.
	hmmCandidateRadiusMeters = 120
	// hmmMaxCandidates caps candidates per sample.
	hmmMaxCandidates = 4
)

// transitionBoundBetas bounds the per-step shortest-path searches of
// transition scoring: routes longer than straight + transitionBoundBetas
// × hmmBetaMeters are not searched for, since their transition
// log-probability is below -transitionBoundBetas (e⁻³⁰ relative
// likelihood) and cannot plausibly win the Viterbi maximisation. Pairs
// beyond the bound are floored at exactly that penalty.
const transitionBoundBetas = 30

// HMMMatcher decodes the most likely edge sequence of a GPS point series.
// It is safe for concurrent MatchPoints calls: per-call scratch is pooled
// and the optional distance cache is concurrency-safe.
type HMMMatcher struct {
	g     *Graph
	m     *Matcher
	cache *SPCache

	// rt holds the routing engine behind transition scoring, swappable at
	// runtime (SetRouter): a model publish installs a router over the
	// model's precomputed overlay, and a model without one gets plain
	// bounded Dijkstra. Every router returns bit-identical distances, so
	// a swap during an in-flight decode is harmless.
	rt atomic.Pointer[Router]
}

// NewHMMMatcher builds an HMM matcher over the graph, routing with plain
// bounded Dijkstra until SetRouter installs another router.
func NewHMMMatcher(g *Graph, opts HMMOptions) *HMMMatcher {
	h := &HMMMatcher{g: g, m: NewMatcher(g), cache: opts.Cache}
	h.SetRouter(nil)
	return h
}

// SetRouter atomically installs the routing engine behind transition
// scoring; nil restores plain bounded Dijkstra. Safe to call while
// MatchPoints traffic is in flight: each decode run snapshots the router
// once, and all routers are exact, so concurrent decodes produce the
// same matches whichever router they snapshotted.
func (h *HMMMatcher) SetRouter(r *Router) {
	if r == nil {
		r = NewALTRouter(h.g, nil)
	}
	h.rt.Store(r)
}

// Matcher returns the nearest-edge matcher whose index supplies the
// candidate edges, so a caller that also matches greedily can share the
// one edge index instead of building a second.
func (h *HMMMatcher) Matcher() *Matcher { return h.m }

// candidate is one per-sample state.
type candidate struct {
	match    Match
	emission float64 // log emission probability
}

// MatchPoints returns, for each input point, the matched edge under the
// maximum-likelihood joint assignment, or a zero Match (nil Edge) where
// no candidate was within range. A break in candidates restarts the
// chain, as Newson & Krumm prescribe for gaps. The returned slice is the
// call's only allocation once the scratch pool and the distance cache
// are warm.
func (h *HMMMatcher) MatchPoints(points []geo.Point) []Match {
	out := make([]Match, len(points))
	sc := acquireStepScratch()
	defer releaseStepScratch(sc)
	start := 0
	for start < len(points) {
		end := h.decodeRun(sc, points, start, out)
		if end == start {
			start++ // unmatchable point: leave it zero, move on
			continue
		}
		start = end
	}
	return out
}

// decodeRun Viterbi-decodes the maximal run of consecutive points with
// candidates beginning at start, fills the output, and returns the index
// one past the run. It returns start when the first point has no
// candidates. The lattice lives in sc: step s's candidates are
// sc.cands[sc.bounds[s]:sc.bounds[s+1]], and sc.back[k] is the index,
// within the previous step, of candidate k's best predecessor.
func (h *HMMMatcher) decodeRun(sc *stepScratch, points []geo.Point, start int, out []Match) int {
	sc.cands, sc.bounds, sc.back = sc.cands[:0], append(sc.bounds[:0], 0), sc.back[:0]
	if !h.appendStep(sc, points[start]) {
		return start
	}
	// Viterbi state: best log-prob to each current candidate.
	probs, next := sc.probs[:0], sc.next[:0]
	for _, c := range sc.cands {
		probs = append(probs, c.emission)
		sc.back = append(sc.back, -1)
	}

	// One router snapshot per decode run: a concurrent SetRouter never
	// mixes routers within a run (and would be harmless if it did —
	// routers are exact).
	rt := h.rt.Load()

	end := start + 1
	for ; end < len(points); end++ {
		if !h.appendStep(sc, points[end]) {
			break
		}
		s := len(sc.bounds) - 2
		prev := sc.cands[sc.bounds[s-1]:sc.bounds[s]]
		cur := sc.cands[sc.bounds[s]:sc.bounds[s+1]]
		straight := geo.Distance(points[end-1], points[end])
		// One bounded multi-target search per distinct candidate endpoint
		// node (≤ 2·hmmMaxCandidates, cache misses only) fills the
		// step's distance table.
		h.buildStepTable(rt, sc, prev, cur, straight)
		next = next[:0]
		for _, nc := range cur {
			best, bestFrom := math.Inf(-1), -1
			for i, pc := range prev {
				if p := probs[i] + h.transition(sc, pc.match, nc.match, straight); p > best {
					best, bestFrom = p, i
				}
			}
			next = append(next, best+nc.emission)
			sc.back = append(sc.back, bestFrom)
		}
		probs, next = next, probs
	}
	sc.probs, sc.next = probs, next

	// Backtrace from the best final state.
	bestJ := 0
	for j := range probs {
		if probs[j] > probs[bestJ] {
			bestJ = j
		}
	}
	for s := len(sc.bounds) - 2; s >= 0; s-- {
		k := sc.bounds[s] + bestJ
		out[start+s] = sc.cands[k].match
		bestJ = sc.back[k]
	}
	return end
}

// appendStep scores the candidate edges of p and appends them to the
// lattice in sc as its next step. It reports false, adding no step,
// when p has no candidate.
func (h *HMMMatcher) appendStep(sc *stepScratch, p geo.Point) bool {
	sc.matches = h.m.appendCandidates(sc.matches[:0], &sc.match, p, hmmCandidateRadiusMeters, hmmMaxCandidates)
	if len(sc.matches) == 0 {
		return false
	}
	for _, m := range sc.matches {
		// log of the Gaussian emission N(0, sigma) at distance d.
		z := m.Distance / hmmSigmaMeters
		sc.cands = append(sc.cands, candidate{match: m, emission: -0.5 * z * z})
	}
	sc.bounds = append(sc.bounds, len(sc.cands))
	return true
}

// stepScratch is the reusable memory of one MatchPoints call: the
// Viterbi lattice of the current run with the candidate queries that fill
// it, and the per-step transition distance table — the
// distinct candidate endpoint nodes of the previous and next Viterbi
// step, and one row of bounded shortest-path distances per source node.
// Pooled so steady-state decoding allocates nothing here.
type stepScratch struct {
	match   matchScratch
	matches []Match
	cands   []candidate // every step's candidates, step after step
	bounds  []int       // step s is cands[bounds[s]:bounds[s+1]]
	back    []int       // per candidate: best predecessor in the previous step
	probs   []float64   // best log-probability of each current candidate
	next    []float64   // the same for the step being scored

	maxCost float64
	srcs    []NodeID    // distinct endpoint nodes of the previous step's candidates
	tgts    []NodeID    // distinct endpoint nodes of the next step's candidates
	rows    [][]float64 // rows[si][ti] = dist(srcs[si], tgts[ti]); +Inf beyond bound
	rowBuf  []float64   // backing storage for rows

	// search scratch for cache misses
	missTgts []NodeID
	missIdx  []int
	missOut  []float64
}

var stepScratchPool = sync.Pool{New: func() any { return &stepScratch{} }}

func acquireStepScratch() *stepScratch { return stepScratchPool.Get().(*stepScratch) } //nolint:stmaker/poolput -- releaseStepScratch owns the Put; every caller defers it

func releaseStepScratch(sc *stepScratch) { stepScratchPool.Put(sc) }

// appendNodeDedup appends n unless already present (candidate endpoint
// lists hold at most 2·hmmMaxCandidates nodes, so a linear scan wins over
// any set structure).
func appendNodeDedup(list []NodeID, n NodeID) []NodeID {
	for _, x := range list {
		if x == n {
			return list
		}
	}
	return append(list, n)
}

// buildStepTable fills sc with the transition distances of one Viterbi
// step: for every distinct endpoint node of the previous candidates, the
// bounded shortest-path distance to every distinct endpoint node of the
// next candidates. Distances come from the shared cache when possible;
// the misses of each source node are resolved with a single bounded
// multi-target search.
func (h *HMMMatcher) buildStepTable(rt *Router, sc *stepScratch, prev, next []candidate, straight float64) {
	sc.maxCost = straight + transitionBoundBetas*hmmBetaMeters
	sc.srcs = sc.srcs[:0]
	sc.tgts = sc.tgts[:0]
	for _, c := range prev {
		sc.srcs = appendNodeDedup(sc.srcs, c.match.Edge.From)
		sc.srcs = appendNodeDedup(sc.srcs, c.match.Edge.To)
	}
	for _, c := range next {
		sc.tgts = appendNodeDedup(sc.tgts, c.match.Edge.From)
		sc.tgts = appendNodeDedup(sc.tgts, c.match.Edge.To)
	}
	nt := len(sc.tgts)
	need := len(sc.srcs) * nt
	if cap(sc.rowBuf) < need {
		sc.rowBuf = make([]float64, need)
	}
	sc.rowBuf = sc.rowBuf[:need]
	sc.rows = sc.rows[:0]
	for si, src := range sc.srcs {
		row := sc.rowBuf[si*nt : (si+1)*nt]
		sc.rows = append(sc.rows, row)
		h.fillRow(rt, sc, src, row)
	}
}

// fillRow resolves one source node's distances to every target: cache
// first, then the router's certified lower bound — a pair the overlay
// proves is beyond the step bound needs no search at all, which is where
// sparse (low-sampling-rate) trajectories win big, since their large
// straight-line gaps force exactly the long-range searches that degrade
// worst — and finally one bounded multi-target search over the remaining
// misses, whose results are written back to the cache.
func (h *HMMMatcher) fillRow(rt *Router, sc *stepScratch, src NodeID, row []float64) {
	sc.missTgts = sc.missTgts[:0]
	sc.missIdx = sc.missIdx[:0]
	for ti, t := range sc.tgts {
		if src == t {
			row[ti] = 0
			continue
		}
		if d, ok := h.cache.Lookup(src, t, sc.maxCost); ok {
			// A cached exact distance beyond the bound reads as unreached,
			// keeping warm- and cold-cache decodes identical.
			if d > sc.maxCost {
				d = math.Inf(1)
			}
			row[ti] = d
			continue
		}
		if rt.provablyBeyond(src, t, sc.maxCost) {
			// Provably unreached within the bound: exactly what the search
			// would conclude, recorded in the cache the same way.
			row[ti] = math.Inf(1)
			h.cache.Store(src, t, math.Inf(1), sc.maxCost)
			continue
		}
		sc.missTgts = append(sc.missTgts, t)
		sc.missIdx = append(sc.missIdx, ti)
	}
	if len(sc.missTgts) == 0 {
		return
	}
	if cap(sc.missOut) < len(sc.missTgts) {
		sc.missOut = make([]float64, len(sc.missTgts))
	}
	out := sc.missOut[:len(sc.missTgts)]
	rt.distancesFromInto(src, sc.missTgts, sc.maxCost, out)
	for i, ti := range sc.missIdx {
		h.cache.Store(src, sc.missTgts[i], out[i], sc.maxCost)
		row[ti] = out[i]
	}
}

// dist looks a pair up in the step table. Both nodes are guaranteed
// present by construction; +Inf is returned defensively otherwise.
func (sc *stepScratch) dist(src, dst NodeID) float64 {
	si := -1
	for i, s := range sc.srcs {
		if s == src {
			si = i
			break
		}
	}
	if si < 0 {
		return math.Inf(1)
	}
	for i, t := range sc.tgts {
		if t == dst {
			return sc.rows[si][i]
		}
	}
	return math.Inf(1)
}

// transition returns the log transition probability between consecutive
// candidates: an exponential penalty on |network distance − straight-line
// distance| (Newson & Krumm's key observation that correct matches make
// the two nearly equal).
func (h *HMMMatcher) transition(sc *stepScratch, a, b Match, straight float64) float64 {
	network := h.networkDistance(sc, a, b)
	diff := math.Abs(network - straight)
	return -diff / hmmBetaMeters
}

// networkDistance approximates driving distance between two on-edge
// positions: along-edge when both lie on the same edge, otherwise the
// best combination of residual edge distance plus a node-level shortest
// path between the edges' endpoints, read from the step table. Pairs
// whose best route exceeds the step bound (or that are disconnected) are
// floored at the bound, i.e. a log-probability of exactly
// -transitionBoundBetas.
func (h *HMMMatcher) networkDistance(sc *stepScratch, a, b Match) float64 {
	if a.Edge.ID == b.Edge.ID {
		return math.Abs(a.Along - b.Along)
	}
	best := math.Inf(1)
	for _, fromEnd := range [2]struct {
		node NodeID
		cost float64
	}{
		{a.Edge.From, a.Along},
		{a.Edge.To, a.Edge.Length() - a.Along},
	} {
		for _, toEnd := range [2]struct {
			node NodeID
			cost float64
		}{
			{b.Edge.From, b.Along},
			{b.Edge.To, b.Edge.Length() - b.Along},
		} {
			var mid float64
			if fromEnd.node != toEnd.node {
				mid = sc.dist(fromEnd.node, toEnd.node)
			}
			if total := fromEnd.cost + mid + toEnd.cost; total < best {
				best = total
			}
		}
	}
	if math.IsInf(best, 1) {
		return sc.maxCost
	}
	return best
}

// appendCandidates appends up to max distinct edges within radius of p
// to dst, nearest first, querying the index through sc. Edges at equal
// distance keep the order in which their nearest samples were met.
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
		dst = append(dst, Match{Edge: e, Distance: d, Along: e.Geometry.DistanceAlong(seg, t)})
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
