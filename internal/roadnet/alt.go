package roadnet

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"stmaker/internal/geo"
)

// This file implements the routing engine behind HMM transition scoring
// and its optional ALT overlay (A*, Landmarks, Triangle-inequality;
// Goldberg & Harrelson, SODA 2005): a small set of far-apart landmark
// nodes is chosen once per graph, the shortest-path distance between
// every landmark and every node is precomputed in both directions, and
// the triangle inequality turns those tables into an admissible lower
// bound on any node-to-node distance,
//
//	d(u, t) >= d(ℓ, t) − d(ℓ, u)   (forward table)
//	d(u, t) >= d(u, ℓ) − d(t, ℓ)   (backward table)
//
// maximized over all landmarks ℓ. The bound prunes the frontier of
// bounded multi-target searches — a node whose distance plus lower
// bound already exceeds the search budget cannot lie on any in-budget
// path and is not expanded — and certifies pairs beyond the budget
// without any search.
//
// Exactness under floating point. The serving guarantee is that the
// overlay never changes a distance (matches are compared byte for byte
// against the reference decoder), so the bound is never trusted to the
// last ulp: every comparison deflates it by altSlackMeters, a margin
// about a thousand times larger than the worst accumulated rounding
// error of city-scale distance sums, and about eight orders of
// magnitude below any physically meaningful distance. Pruning therefore
// only ever removes provably-out-of-budget nodes, so a pruned search
// computes exactly the minimum floating-point path cost — the same
// value plain Dijkstra computes. The tables hold ByDistance costs, the
// one metric HMM transitions use.

// DefaultOverlayLandmarks is the landmark count BuildOverlay uses when
// OverlayOptions.Landmarks is zero. Sixteen is the classic ALT sweet
// spot: enough geometric diversity for tight bounds, small enough that
// evaluating the bound stays a handful of nanoseconds.
const DefaultOverlayLandmarks = 16

// altSlackMeters deflates every lower-bound comparison so floating-point
// rounding in the precomputed tables can never turn "provably too far"
// into a wrong answer. Distance sums over city-scale graphs accumulate
// at most ~1e-8 m of error; one micrometre of slack gives three orders
// of magnitude of margin while being far below GPS noise.
const altSlackMeters = 1e-6

// Overlay is the precomputed ALT state of one graph: the landmark nodes
// and the dense landmark-to-node distance tables in both directions
// (both are needed on directed graphs — one-way streets make d(ℓ, v)
// and d(v, ℓ) differ). An Overlay is immutable once built; it hangs off
// the trained stmaker.Model, so the modelmut lint extends the Model
// immutability invariant to everything in here.
type Overlay struct {
	landmarks []NodeID
	numNodes  int
	fwd       [][]float64 // fwd[i][v] = shortest ByDistance cost landmark i → v
	bwd       [][]float64 // bwd[i][v] = shortest ByDistance cost v → landmark i
	// Node-major mirrors of the tables (fwdT[v*k+i] == fwd[i][v]):
	// evaluating the bound at a node reads all landmarks, so the query
	// path wants one contiguous k-run per node, not k scattered rows.
	// The landmark-major rows above stay the serialization layout.
	fwdT []float64
	bwdT []float64
}

// buildTransposed fills the node-major table mirrors; the last step of
// both constructors.
func (o *Overlay) buildTransposed() {
	k := len(o.landmarks)
	if k == 0 || o.numNodes == 0 {
		return
	}
	o.fwdT = make([]float64, k*o.numNodes)
	o.bwdT = make([]float64, k*o.numNodes)
	for i := 0; i < k; i++ {
		fr, br := o.fwd[i], o.bwd[i]
		for v := 0; v < o.numNodes; v++ {
			o.fwdT[v*k+i] = fr[v]
			o.bwdT[v*k+i] = br[v]
		}
	}
}

// OverlayOptions configures BuildOverlay.
type OverlayOptions struct {
	// Landmarks is the number of landmark nodes to select (0 uses
	// DefaultOverlayLandmarks; clamped to the node count).
	Landmarks int
	// Workers bounds the goroutines running the per-landmark Dijkstras
	// (0 uses GOMAXPROCS).
	Workers int
}

// BuildOverlay selects far-apart landmark nodes and precomputes their
// forward and backward distance tables, one full Dijkstra per landmark
// per direction, run in parallel across Workers goroutines. Selection
// and tables are deterministic for a given graph. An empty graph yields
// an overlay with no landmarks, which routes identically to plain
// Dijkstra.
func BuildOverlay(g *Graph, opts OverlayOptions) *Overlay {
	n := g.NumNodes()
	k := opts.Landmarks
	if k <= 0 {
		k = DefaultOverlayLandmarks
	}
	if k > n {
		k = n
	}
	o := &Overlay{numNodes: n, landmarks: selectLandmarks(g, k)}
	k = len(o.landmarks)
	o.fwd = make([][]float64, k)
	o.bwd = make([][]float64, k)
	if k == 0 {
		return o
	}
	rev := reverseAdjacency(g)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 2*k {
		workers = 2 * k
	}
	// 2k independent row tasks: rows 0..k-1 are forward tables, k..2k-1
	// backward.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= 2*k {
					return
				}
				if i < k {
					o.fwd[i] = landmarkRow(g, nil, o.landmarks[i])
				} else {
					o.bwd[i-k] = landmarkRow(g, rev, o.landmarks[i-k])
				}
			}
		}()
	}
	wg.Wait()
	o.buildTransposed()
	return o
}

// selectLandmarks picks k far-apart nodes by greedy farthest-point
// selection on great-circle distance: the first landmark is the node
// farthest from the node centroid (the graph's geometric rim), each
// subsequent one maximizes the distance to its nearest chosen landmark.
// Geometric selection is metric-cheap, deterministic (ties break to the
// lowest node id) and robust on disconnected graphs, where graph-distance
// selection would see +Inf everywhere.
func selectLandmarks(g *Graph, k int) []NodeID {
	n := g.NumNodes()
	if k <= 0 || n == 0 {
		return nil
	}
	var centroid geo.Point
	for _, nd := range g.nodes {
		centroid.Lat += nd.Pt.Lat
		centroid.Lng += nd.Pt.Lng
	}
	centroid.Lat /= float64(n)
	centroid.Lng /= float64(n)

	best, bestD := NodeID(0), -1.0
	for v, nd := range g.nodes {
		if d := geo.Distance(nd.Pt, centroid); d > bestD {
			best, bestD = NodeID(v), d
		}
	}
	chosen := []NodeID{best}
	minDist := make([]float64, n)
	for v := range minDist {
		minDist[v] = geo.Distance(g.nodes[v].Pt, g.nodes[best].Pt)
	}
	for len(chosen) < k {
		next, nextD := NodeID(-1), -1.0
		for v := 0; v < n; v++ {
			if minDist[v] > nextD {
				next, nextD = NodeID(v), minDist[v]
			}
		}
		if next < 0 || nextD <= 0 {
			break // every remaining node is co-located with a landmark
		}
		chosen = append(chosen, next)
		for v := 0; v < n; v++ {
			if d := geo.Distance(g.nodes[v].Pt, g.nodes[next].Pt); d < minDist[v] {
				minDist[v] = d
			}
		}
	}
	return chosen
}

// revArc is one arc of the reversed graph: traversing it from its
// (reversed) tail reaches node to at the stored edge's ByDistance cost.
type revArc struct {
	to      NodeID
	edge    EdgeID
	reverse bool
}

// reverseAdjacency builds the incoming-arc lists needed for backward
// Dijkstras (the graph itself stores only outgoing arcs).
func reverseAdjacency(g *Graph) [][]revArc {
	rev := make([][]revArc, len(g.nodes))
	for u, arcs := range g.out {
		for _, a := range arcs {
			e := &g.edges[a.edge]
			v := e.To
			if a.reverse {
				v = e.From
			}
			rev[v] = append(rev[v], revArc{to: NodeID(u), edge: a.edge, reverse: a.reverse})
		}
	}
	return rev
}

// landmarkRow runs one unbounded ByDistance Dijkstra from src and
// returns the full distance row (+Inf for unreachable nodes). A nil rev
// searches the forward graph; otherwise the reversed one, yielding
// node-to-landmark distances.
func landmarkRow(g *Graph, rev [][]revArc, src NodeID) []float64 {
	n := len(g.nodes)
	row := make([]float64, n)
	s := acquireSearch(n)
	defer releaseSearch(s)
	s.reach(src, 0, pred{})
	for len(s.heap) > 0 {
		cur := s.heap.pop()
		u := cur.node
		if s.settled[u] == s.gen {
			continue
		}
		s.settled[u] = s.gen
		du := s.dist[u]
		if rev == nil {
			for _, a := range g.out[u] {
				e := &g.edges[a.edge]
				v := e.To
				if a.reverse {
					v = e.From
				}
				if s.settled[v] == s.gen {
					continue
				}
				w := ByDistance(e, a.reverse)
				if w < 0 {
					w = 0
				}
				s.reach(v, du+w, pred{node: u, arc: a, ok: true})
			}
		} else {
			for _, a := range rev[u] {
				v := a.to
				if s.settled[v] == s.gen {
					continue
				}
				e := &g.edges[a.edge]
				w := ByDistance(e, a.reverse)
				if w < 0 {
					w = 0
				}
				s.reach(v, du+w, pred{node: u, ok: true})
			}
		}
	}
	for v := range row {
		row[v] = s.distTo(NodeID(v))
	}
	return row
}

// NumLandmarks returns the number of landmark nodes in the overlay.
func (o *Overlay) NumLandmarks() int { return len(o.landmarks) }

// NumNodes returns the node count of the graph the overlay was built
// for; an overlay only routes over a graph with exactly this many nodes.
func (o *Overlay) NumNodes() int { return o.numNodes }

// LandmarkNodes returns a copy of the landmark node ids, in selection
// order.
func (o *Overlay) LandmarkNodes() []NodeID { return append([]NodeID(nil), o.landmarks...) }

// Tables exposes the internal forward and backward distance tables for
// serialization. Callers must treat both as read-only: the overlay is
// immutable once built (the modelmut lint enforces this for everything
// reachable from a published Model).
func (o *Overlay) Tables() (fwd, bwd [][]float64) { return o.fwd, o.bwd }

// MemoryBytes estimates the resident size of the overlay: the dense
// distance tables dominate at 32 bytes per landmark per node — 16 for
// the landmark-major serialization rows, 16 for the node-major query
// mirrors.
func (o *Overlay) MemoryBytes() int64 {
	k := int64(len(o.landmarks))
	return 32*k*int64(o.numNodes) + // fwd + bwd rows and their transposed mirrors
		8*k + // landmark ids
		(2*24+8)*k + 96 // slice headers and struct overhead
}

// NewOverlayFromTables reconstructs an overlay from serialized tables
// (see Tables), validating every structural invariant so a model file is
// never trusted: row lengths must match numNodes, landmark ids must be
// unique and in range, distances must be non-negative and non-NaN
// (+Inf marks unreachable nodes), and each landmark must be at distance
// zero from itself in both tables. The slices are retained, not copied;
// the caller must not reuse them.
func NewOverlayFromTables(landmarks []NodeID, numNodes int, fwd, bwd [][]float64) (*Overlay, error) {
	if numNodes < 0 {
		return nil, fmt.Errorf("roadnet: overlay node count %d negative", numNodes)
	}
	if len(fwd) != len(landmarks) || len(bwd) != len(landmarks) {
		return nil, fmt.Errorf("roadnet: overlay has %d landmarks but %d forward / %d backward rows",
			len(landmarks), len(fwd), len(bwd))
	}
	seen := make(map[NodeID]bool, len(landmarks))
	for i, l := range landmarks {
		if int(l) < 0 || int(l) >= numNodes {
			return nil, fmt.Errorf("roadnet: overlay landmark %d is node %d, out of range [0,%d)", i, l, numNodes)
		}
		if seen[l] {
			return nil, fmt.Errorf("roadnet: overlay landmark node %d duplicated", l)
		}
		seen[l] = true
		for name, row := range map[string][]float64{"forward": fwd[i], "backward": bwd[i]} {
			if len(row) != numNodes {
				return nil, fmt.Errorf("roadnet: overlay %s row %d has %d entries, want %d", name, i, len(row), numNodes)
			}
			for v, d := range row {
				if math.IsNaN(d) || d < 0 {
					return nil, fmt.Errorf("roadnet: overlay %s row %d entry %d is %v", name, i, v, d)
				}
			}
			if row[l] != 0 { //lint:allow floateq -- structural invariant: a landmark is at exactly distance 0 from itself
				return nil, fmt.Errorf("roadnet: overlay %s row %d has self-distance %v, want 0", name, i, row[l])
			}
		}
	}
	o := &Overlay{
		landmarks: append([]NodeID(nil), landmarks...),
		numNodes:  numNodes,
		fwd:       fwd,
		bwd:       bwd,
	}
	o.buildTransposed()
	return o, nil
}

// Router is the routing engine behind the HMM matcher's transition
// scoring. On a distance-cache miss the matcher needs exactly two
// things from it: bounded ByDistance distances from one candidate
// endpoint to the next step's endpoints (distancesFromInto), and a
// certificate that a pair lies beyond the step budget (provablyBeyond).
// Without an overlay the searches are plain bounded Dijkstra and nothing
// is certified. With one, searches whose budget exceeds the gate prune
// their frontier by the landmark lower bound, and pairs the bound puts
// beyond the budget are certified without a search. Either way the
// distances are bit-identical, so swapping routers mid-request never
// changes a match.
type Router struct {
	g *Graph
	o *Overlay // nil: plain bounded Dijkstra
	// gate is the engagement threshold: a bounded search whose budget is
	// at most gate explores so few nodes that the per-search landmark
	// aggregates cost more than the pruning saves, so it runs plain.
	// Computed once from the graph's mean edge cost; +Inf without an
	// overlay.
	gate float64
}

// gateEdgeSpan is the search radius, in mean-edge-cost units, below
// which landmark pruning cannot pay for its per-search setup. A bounded
// region grows roughly quadratically with the radius, so densely
// sampled trajectories (budget of a few edges) stay on the plain
// engine while decimated ones (tens of edges) get pruned.
const gateEdgeSpan = 24

// NewALTRouter returns a Router over g that prunes with the precomputed
// overlay o. When o is nil, empty, or was built for a graph with a
// different node count, the router runs plain bounded Dijkstra instead:
// an overlay mismatch must never produce wrong routes, and pruning never
// changes a distance, so falling back is always safe.
func NewALTRouter(g *Graph, o *Overlay) *Router {
	if o == nil || len(o.landmarks) == 0 || o.numNodes != g.NumNodes() {
		return &Router{g: g, gate: math.Inf(1)}
	}
	var sum float64
	for i := range g.edges {
		sum += ByDistance(&g.edges[i], false)
	}
	var mean float64
	if len(g.edges) > 0 {
		mean = sum / float64(len(g.edges))
	}
	return &Router{g: g, o: o, gate: gateEdgeSpan * mean}
}

// provablyBeyond reports whether the overlay certifies that the
// ByDistance shortest-path distance from u to t exceeds budget. A
// certificate is never wrong — the true (and the computed) distance
// really is beyond the budget — so a caller may skip any search whose
// budget is certified exceeded; false only means "no certificate",
// never "reachable".
func (r *Router) provablyBeyond(u, t NodeID, budget float64) bool {
	if !(budget > r.gate) {
		// At or below the gate (always, without an overlay; NaN too) a
		// bounded search is tiny: evaluating the bound for every
		// candidate pair costs more than the searches it could skip.
		// Declining to certify is always safe.
		return false
	}
	n := r.o.numNodes
	if int(u) < 0 || int(u) >= n || int(t) < 0 || int(t) >= n {
		return false
	}
	k := len(r.o.landmarks)
	fu, ft := r.o.fwdT[int(u)*k:][:k], r.o.fwdT[int(t)*k:][:k]
	bu, bt := r.o.bwdT[int(u)*k:][:k], r.o.bwdT[int(t)*k:][:k]
	for i := 0; i < k; i++ {
		// First landmark certifying the distance beyond the (slack-
		// inflated) budget wins; NaN diffs from Inf−Inf fail the test.
		if d := ft[i] - fu[i]; d-altSlackMeters > budget {
			return true
		}
		if d := bu[i] - bt[i]; d-altSlackMeters > budget {
			return true
		}
	}
	return false
}

// maxActiveLandmarks bounds how many landmarks a multi-target search
// evaluates per settled node. Landmarks whose bound is strong at the
// source stay strong across the (bounded) search region, so a small
// source-selected subset keeps nearly all the pruning power at a
// quarter of the per-node cost — the classic active-landmark refinement
// of ALT.
const maxActiveLandmarks = 4

// altScratch holds the per-search landmark aggregates of a multi-target
// query; pooled so the hot path allocates nothing.
type altScratch struct {
	minFwd []float64 // minFwd[i] = min over targets t of fwd[i][t]
	maxBwd []float64 // maxBwd[i] = max over targets t of bwd[i][t]
	active []int     // landmark indices with the strongest bound at src
}

var altScratchPool = sync.Pool{New: func() any { return &altScratch{} }}

// distancesFromInto computes the bounded ByDistance distances from src
// to every target into out (len(out) == len(targets)), with the
// contract of Graph.distancesFrom: +Inf beyond maxCost, maxCost <= 0 or
// +Inf unbounded. Above the gate the search mirrors Graph.distancesFrom
// exactly — same frontier order, same early exits — plus one extra
// filter: a settled node whose distance plus the lower bound to the
// nearest target provably exceeds maxCost is not expanded. Aggregating
// the per-target bounds once per search (min over forward rows, max over
// backward rows) makes the per-node bound a single pass over the
// landmarks.
func (r *Router) distancesFromInto(src NodeID, targets []NodeID, maxCost float64, out []float64) {
	if !(maxCost > r.gate) || math.IsInf(maxCost, 1) {
		// Unbounded (maxCost <= 0 falls under the gate, which is never
		// negative; NaN fails the comparison), or a budget too small for
		// pruning to pay its setup (every budget, without an overlay):
		// the plain search. Pruning never changes a distance, so the gate
		// is invisible in the output.
		r.g.distancesFrom(src, targets, maxCost, out)
		return
	}
	for i := range out {
		out[i] = math.Inf(1)
	}
	g, o := r.g, r.o
	n := len(g.nodes)
	if int(src) < 0 || int(src) >= n || len(targets) == 0 {
		return
	}

	k := len(o.landmarks)
	sc := altScratchPool.Get().(*altScratch) //nolint:stmaker/poolput -- the deferred Put below owns the release
	defer altScratchPool.Put(sc)
	if cap(sc.minFwd) < k {
		sc.minFwd = make([]float64, k)
		sc.maxBwd = make([]float64, k)
	}
	sc.minFwd = sc.minFwd[:k]
	sc.maxBwd = sc.maxBwd[:k]
	for i := 0; i < k; i++ {
		sc.minFwd[i] = math.Inf(1)
		sc.maxBwd[i] = math.Inf(-1)
	}
	anyTarget := false
	for _, t := range targets {
		if int(t) < 0 || int(t) >= n {
			continue
		}
		anyTarget = true
		ft, bt := o.fwdT[int(t)*k:][:k], o.bwdT[int(t)*k:][:k]
		for i := 0; i < k; i++ {
			if ft[i] < sc.minFwd[i] {
				sc.minFwd[i] = ft[i]
			}
			if bt[i] > sc.maxBwd[i] {
				sc.maxBwd[i] = bt[i]
			}
		}
	}
	if !anyTarget {
		return
	}
	// The one-off source check uses every landmark — maximum power for a
	// single evaluation.
	fs, bs := o.fwdT[int(src)*k:][:k], o.bwdT[int(src)*k:][:k]
	srcLB := 0.0
	for i := 0; i < k; i++ {
		if d := sc.minFwd[i] - fs[i]; d > srcLB {
			srcLB = d
		}
		if d := bs[i] - sc.maxBwd[i]; d > srcLB {
			srcLB = d
		}
	}
	if srcLB-altSlackMeters > maxCost {
		return // every target is provably beyond the bound
	}
	// Per-node evaluations use only the landmarks that bound best at the
	// source (NaN scores from Inf−Inf sort last and are only picked when
	// nothing better exists; lbSet discards their diffs anyway).
	sc.active = sc.active[:0]
	for len(sc.active) < maxActiveLandmarks && len(sc.active) < k {
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < k; i++ {
			picked := false
			for _, a := range sc.active {
				if a == i {
					picked = true
					break
				}
			}
			if picked {
				continue
			}
			score := sc.minFwd[i] - fs[i]
			if d := bs[i] - sc.maxBwd[i]; d > score {
				score = d
			}
			if best < 0 || score > bestScore {
				best, bestScore = i, score
			}
		}
		sc.active = append(sc.active, best)
	}
	// lbSet lower-bounds the distance from v to the nearest target over
	// the active landmark subset (any subset stays admissible).
	lbSet := func(v NodeID) float64 {
		fv, bv := o.fwdT[int(v)*k:][:k], o.bwdT[int(v)*k:][:k]
		lb := 0.0
		for _, i := range sc.active {
			if d := sc.minFwd[i] - fv[i]; d > lb {
				lb = d
			}
			if d := bv[i] - sc.maxBwd[i]; d > lb {
				lb = d
			}
		}
		return lb
	}

	s := acquireSearch(n)
	defer releaseSearch(s)
	pending := 0
	for _, t := range targets {
		if int(t) < 0 || int(t) >= n {
			continue
		}
		if s.target[t] != s.gen {
			s.target[t] = s.gen
			pending++
		}
	}

	s.reach(src, 0, pred{})
	for len(s.heap) > 0 {
		cur := s.heap.pop()
		if cur.dist > maxCost {
			break
		}
		u := cur.node
		if s.settled[u] == s.gen {
			continue
		}
		s.settled[u] = s.gen
		if s.target[u] == s.gen {
			s.target[u] = s.gen - 1
			pending--
			if pending == 0 {
				break
			}
		}
		du := s.dist[u]
		if du+lbSet(u)-altSlackMeters > maxCost {
			// No path through u reaches any target within the budget, so
			// none of u's relaxations can matter: every target distance the
			// search records is a settled exact distance ≤ maxCost, and a
			// shortest path to one of those cannot pass through u. Pruning
			// at settle time instead of push time evaluates the bound once
			// per settled node rather than once per relaxation.
			continue
		}
		for _, a := range g.out[u] {
			e := &g.edges[a.edge]
			v := e.To
			if a.reverse {
				v = e.From
			}
			if s.settled[v] == s.gen {
				continue
			}
			w := ByDistance(e, a.reverse)
			if w < 0 {
				w = 0
			}
			s.reach(v, du+w, pred{node: u, arc: a, ok: true})
		}
	}

	for i, t := range targets {
		if int(t) < 0 || int(t) >= n {
			continue
		}
		out[i] = s.distTo(t)
	}
}
