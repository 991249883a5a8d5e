package roadnet

import (
	"math"
	"slices"
	"sync"

	"stmaker/internal/geo"
	"stmaker/internal/spatial"
)

// Matcher map-matches GPS points to the nearest road segment. It samples
// each edge's geometry into a spatial grid index once at construction.
type Matcher struct {
	g  *Graph
	ix *spatial.Index
}

// matchSampleSpacing is the spacing at which edge geometries are sampled
// into the index. Candidate edges are then verified with exact
// point-to-polyline distance, so the spacing only affects recall radius.
const matchSampleSpacing = 60.0

// NewMatcher builds a matcher for the graph.
func NewMatcher(g *Graph) *Matcher {
	var items []spatial.Item
	for i := range g.Edges() {
		for _, p := range g.Edge(EdgeID(i)).Geometry.Resample(matchSampleSpacing) {
			items = append(items, spatial.Item{ID: i, Point: p})
		}
	}
	return &Matcher{g: g, ix: spatial.NewIndex(matchSampleSpacing*2, items)}
}

// matchScratch is the working memory of one edge query: the index hits
// or the prefilter band's samples, and the edges already scored, or for
// the HMM's band query the edges the band's samples belong to. It is
// pooled (or held in the HMM's step scratch), so per-sample matching
// allocates nothing.
type matchScratch struct {
	hits  []spatial.Result
	seen  []int
	band  []spatial.Item
	edges []bandEdge
}

var matchScratchPool = sync.Pool{New: func() any { return new(matchScratch) }}

// query fills sc.hits with the indexed edge samples within radius of p,
// nearest first, and forgets the edges seen by the previous query.
func (m *Matcher) query(sc *matchScratch, p geo.Point, radius float64) {
	sc.hits = m.ix.AppendWithin(sc.hits[:0], p, radius)
	sc.seen = sc.seen[:0]
}

// firstSeen reports whether this query meets edge id for the first time.
// An edge has a handful of samples near any point, so a linear scan
// beats a set.
func (sc *matchScratch) firstSeen(id int) bool {
	if slices.Contains(sc.seen, id) {
		return false
	}
	sc.seen = append(sc.seen, id)
	return true
}

// Match describes a GPS point matched onto an edge.
type Match struct {
	Edge *Edge
	// Distance is the point-to-edge distance in metres.
	Distance float64
	// Along is the distance in metres from the edge's From endpoint to the
	// projection of the point onto the edge geometry.
	Along float64
}

// NearestEdge returns the edge closest to p within maxDist metres. The
// boolean is false when no edge qualifies.
//
// prev is a hint, nil for none: the edge the previous fix of the same
// trace matched. It changes how far the index is searched, never the
// result. When prev lies d ≤ maxDist from p, every edge within d of p
// has an index sample within d + matchSampleSpacing, so the index's
// prefilter band for that radius holds it. NearestEdge measures each
// edge of the band once, in walk order, without measuring or sorting
// the samples: an edge with no sample within that radius lies farther
// than prev and can neither win nor tie, and without a tie the nearest
// edge does not depend on the order edges are met in. Only when another
// edge ties the nearest exactly does NearestEdge search the full radius,
// because the winner of a tie is the edge met first, and the full query
// meets its hits in the order of its sort. A hint that is not an edge of
// the matcher's graph is ignored.
func (m *Matcher) NearestEdge(p geo.Point, maxDist float64, prev *Edge) (Match, bool) {
	sc := matchScratchPool.Get().(*matchScratch)
	defer matchScratchPool.Put(sc)
	if prev != nil && m.g.owns(prev) {
		c := nearest{e: prev}
		c.d, c.seg, c.t = prev.Geometry.NearestPoint(p)
		if c.d <= maxDist {
			sc.band = m.ix.AppendBand(sc.band[:0], p, c.d+matchSampleSpacing)
			sc.seen = append(sc.seen[:0], int(prev.ID))
			for _, it := range sc.band {
				if sc.firstSeen(it.ID) {
					c.consider(m.g.Edge(EdgeID(it.ID)), p)
				}
			}
			if !c.tied {
				return c.match(), true
			}
		}
	}
	m.query(sc, p, maxDist+matchSampleSpacing)
	c := nearest{d: math.Inf(1)}
	for _, h := range sc.hits {
		if sc.firstSeen(h.ID) {
			c.consider(m.g.Edge(EdgeID(h.ID)), p)
		}
	}
	if c.e == nil || c.d > maxDist {
		return Match{}, false
	}
	return c.match(), true
}

// nearest is the nearest edge a scan has met: its distance from the fix,
// the projection NearestPoint found, and whether another edge lies at
// exactly that distance.
type nearest struct {
	e    *Edge
	d    float64
	seg  int
	t    float64
	tied bool
}

// consider measures e against p. Only a strictly nearer edge replaces
// c's, so of two edges at exactly the same distance the one met first
// stays, and the other marks the tie.
func (c *nearest) consider(e *Edge, p geo.Point) {
	switch d, seg, t := e.Geometry.NearestPoint(p); {
	case d < c.d:
		*c = nearest{e: e, d: d, seg: seg, t: t}
	case d == c.d: //lint:allow floateq -- an exact tie is what the hint must not decide
		c.tied = true
	}
}

func (c nearest) match() Match {
	return Match{Edge: c.e, Distance: c.d, Along: c.e.along(c.seg, c.t)}
}

// NearestNode returns the graph node closest to p, or false when the graph
// is empty. It is a linear scan intended for path endpoints, not per-sample
// matching.
func (g *Graph) NearestNode(p geo.Point) (NodeID, bool) {
	best := NodeID(-1)
	bestD := math.Inf(1)
	for _, n := range g.nodes {
		if d := geo.Distance(p, n.Pt); d < bestD {
			best, bestD = n.ID, d
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
