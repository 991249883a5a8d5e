package roadnet

import (
	"math"
)

// distancesFrom computes ByDistance shortest-path distances from src to
// every node in targets with a single bounded Dijkstra search, instead
// of one point-to-point search per target, writing them into out
// (len(out) must equal len(targets)). Entry i is +Inf when targets[i]
// was not settled within the bound.
//
// maxCost bounds the search: the frontier is abandoned as soon as its
// minimum tentative distance exceeds maxCost, so a finite result d always
// satisfies d <= maxCost and is the exact shortest distance (a bounded
// search that settles a node has found its true minimum). maxCost <= 0 or
// +Inf disables the bound. The search also stops early once every distinct
// in-range target is settled, whichever comes first.
//
// Out-of-range src or targets yield +Inf entries. Duplicate targets are
// fine. The O(nodes) search state is pooled (see searchstate.go), so it
// is safe and cheap to call from many goroutines.
func (g *Graph) distancesFrom(src NodeID, targets []NodeID, maxCost float64, out []float64) {
	for i := range out {
		out[i] = math.Inf(1)
	}
	n := len(g.nodes)
	if int(src) < 0 || int(src) >= n || len(targets) == 0 {
		return
	}
	if maxCost <= 0 {
		maxCost = math.Inf(1)
	}

	s := acquireSearch(n)
	defer releaseSearch(s)

	// Mark the distinct in-range targets so the search can stop as soon as
	// the last one settles.
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
	if pending == 0 {
		return
	}

	s.reach(src, 0, pred{})
	for len(s.heap) > 0 {
		cur := s.heap.pop()
		if cur.dist > maxCost {
			break // frontier minimum beyond the bound: nothing left to settle
		}
		u := cur.node
		if s.settled[u] == s.gen {
			continue // stale duplicate from lazy insertion
		}
		s.settled[u] = s.gen
		if s.target[u] == s.gen {
			s.target[u] = s.gen - 1 // consume the mark
			pending--
			if pending == 0 {
				break
			}
		}
		du := s.dist[u]
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
