package roadnet

import (
	"math"
	"sync"
)

// This file holds the pooled, epoch-stamped scratch state behind every
// Dijkstra search in the package (ShortestPath and distancesFrom). The
// serving path runs thousands of searches per request, so the per-search
// O(nodes) allocations of the naive implementation — dist/prev/done arrays
// plus a heap-item map — dominated both time and garbage. Instead:
//
//   - Arrays are pooled in a sync.Pool and grown to the largest graph they
//     have served; they are never cleared between searches.
//   - Validity is tracked with generation counters ("epochs"): a slot is
//     meaningful only when its stamp equals the state's current generation,
//     so resetting the whole state is a single counter increment.
//   - The priority queue is a lazy-insertion binary heap of plain values:
//     improving a node pushes a duplicate entry instead of doing
//     decrease-key bookkeeping, and stale entries are skipped on pop (the
//     node is already settled by the time they surface).

// heapEntry is one frontier entry: a node and the tentative distance it was
// pushed with. Duplicates for the same node are allowed; all but the one
// matching the node's final distance are stale by pop time.
type heapEntry struct {
	node NodeID
	dist float64
}

// distHeap is a binary min-heap of heapEntry ordered by dist. It is a
// value-slice heap with inlined sift routines, avoiding the interface
// boxing of container/heap.
type distHeap []heapEntry

func (h *distHeap) push(e heapEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].dist <= q[i].dist {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *distHeap) pop() heapEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && q[r].dist < q[l].dist {
			least = r
		}
		if q[i].dist <= q[least].dist {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// pred records how a node was reached, for path reconstruction.
type pred struct {
	node NodeID
	arc  arc
	ok   bool
}

// searchState is the reusable scratch of one Dijkstra search. All slices
// are indexed by NodeID and sized to the largest graph the state has
// served; slots are valid only when their stamp equals gen.
type searchState struct {
	dist    []float64
	prev    []pred
	stamp   []uint32 // dist/prev valid iff stamp[v] == gen
	settled []uint32 // v settled (final dist) iff settled[v] == gen
	target  []uint32 // v is a pending search target iff target[v] == gen
	gen     uint32
	heap    distHeap
}

// searchPool recycles searchState values across searches and goroutines.
var searchPool = sync.Pool{New: func() any { return &searchState{} }}

// acquireSearch returns a state ready for a fresh search over a graph of n
// nodes: arrays at least n long and a new generation with an empty heap.
func acquireSearch(n int) *searchState {
	s := searchPool.Get().(*searchState) //nolint:stmaker/poolput -- releaseSearch owns the Put; every caller defers it
	if len(s.dist) < n {
		s.dist = make([]float64, n)
		s.prev = make([]pred, n)
		s.stamp = make([]uint32, n)
		s.settled = make([]uint32, n)
		s.target = make([]uint32, n)
		s.gen = 0
	}
	s.gen++
	if s.gen == 0 {
		// Generation counter wrapped: stale stamps from 4 billion searches
		// ago would read as current, so clear them once and restart at 1.
		for i := range s.stamp {
			s.stamp[i], s.settled[i], s.target[i] = 0, 0, 0
		}
		s.gen = 1
	}
	s.heap = s.heap[:0]
	return s
}

// releaseSearch returns the state to the pool.
func releaseSearch(s *searchState) { searchPool.Put(s) }

// reach records tentative distance d to v via p and pushes a frontier
// entry. It reports whether the relaxation improved v.
func (s *searchState) reach(v NodeID, d float64, p pred) bool {
	if s.stamp[v] == s.gen && d >= s.dist[v] {
		return false
	}
	s.dist[v] = d
	s.prev[v] = p
	s.stamp[v] = s.gen
	s.heap.push(heapEntry{node: v, dist: d})
	return true
}

// distTo returns the final distance of a settled node, or +Inf when the
// search never settled it.
func (s *searchState) distTo(v NodeID) float64 {
	if s.settled[v] == s.gen {
		return s.dist[v]
	}
	return math.Inf(1)
}
