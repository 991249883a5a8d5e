// Package history distils a corpus of historical symbolic trajectories
// into the two knowledge structures STMaker's feature selection needs
// (§V): the most popular route between two landmarks (mined in the spirit
// of Chen, Shen and Zhou, ICDE 2011), and the historical feature map — a
// directed landmark graph whose edges carry the regular (average) value of
// each moving feature.
package history

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Popular mines popular routes from the training corpus, in the spirit of
// Chen, Shen and Zhou (ICDE 2011). The most popular route from a to b is
// the most frequently observed contiguous landmark subroute from a to b
// across the corpus; when a→b was never observed contiguously, it falls
// back to the maximum-likelihood landmark path under first-order
// transition probabilities (Dijkstra over −log-probability costs).
type Popular struct {
	counts    map[[2]int]int // transitions a→b observed
	outCounts map[int]int    // transitions leaving a
	adj       map[int][]int  // successors of a

	seqs [][]int          // landmark sequences of the corpus
	occ  map[int][]occRef // positions of each landmark

	mu    sync.Mutex
	cache map[[2]int][]int
}

type occRef struct {
	seq, pos int
}

// BuildPopularFromSequences builds the popular-route knowledge from the
// corpus landmark sequences (traj.Symbolic.LandmarkIDs): transition
// statistics and the subroute index. Every derived structure (transition
// counts, adjacency, the occurrence index) is a deterministic function of
// the sequences, so a Popular round-trips through Sequences and back with
// identical routes. The sequences are copied; the caller keeps ownership
// of seqs.
func BuildPopularFromSequences(seqs [][]int) *Popular {
	p := &Popular{
		counts:    make(map[[2]int]int),
		outCounts: make(map[int]int),
		adj:       make(map[int][]int),
		occ:       make(map[int][]occRef),
		cache:     make(map[[2]int][]int),
	}
	for _, ids := range seqs {
		ids = append([]int(nil), ids...)
		si := len(p.seqs)
		p.seqs = append(p.seqs, ids)
		for i, id := range ids {
			p.occ[id] = append(p.occ[id], occRef{seq: si, pos: i})
		}
		for i := 1; i < len(ids); i++ {
			a, b := ids[i-1], ids[i]
			if a == b {
				continue
			}
			key := [2]int{a, b}
			if p.counts[key] == 0 {
				p.adj[a] = append(p.adj[a], b)
			}
			p.counts[key]++
			p.outCounts[a]++
		}
	}
	return p
}

// Sequences returns a deep copy of the corpus landmark sequences the
// knowledge was built from — the minimal state needed to reconstruct the
// Popular via BuildPopularFromSequences (model persistence).
func (p *Popular) Sequences() [][]int {
	out := make([][]int, len(p.seqs))
	for i, s := range p.seqs {
		out[i] = append([]int(nil), s...)
	}
	return out
}

// routeItem is a priority-queue element for the max-likelihood search.
type routeItem struct {
	node int
	cost float64
	idx  int
}

type routePQ []*routeItem

func (q routePQ) Len() int            { return len(q) }
func (q routePQ) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q routePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].idx = i; q[j].idx = j }
func (q *routePQ) Push(x interface{}) { it := x.(*routeItem); it.idx = len(*q); *q = append(*q, it) }
func (q *routePQ) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return it
}

// Route returns the most popular landmark path from a to b (inclusive of
// both endpoints), or false when b is not reachable from a in the corpus.
// Results are cached; the method is safe for concurrent use.
func (p *Popular) Route(a, b int) ([]int, bool) {
	if a == b {
		return []int{a}, true
	}
	key := [2]int{a, b}
	p.mu.Lock()
	if cached, ok := p.cache[key]; ok {
		p.mu.Unlock()
		return cached, cached != nil
	}
	p.mu.Unlock()

	route, ok := p.computeRoute(a, b)
	p.mu.Lock()
	if ok {
		p.cache[key] = route
	} else {
		p.cache[key] = nil
	}
	p.mu.Unlock()
	return route, ok
}

// computeRoute first mines the most frequent observed subroute, then falls
// back to the max-likelihood transition path.
func (p *Popular) computeRoute(a, b int) ([]int, bool) {
	if route := p.frequentSubroute(a, b); route != nil {
		return route, true
	}
	return p.likelihoodRoute(a, b)
}

// frequentSubroute scans every corpus occurrence of a, extracts the
// shortest contiguous continuation reaching b within that trajectory, and
// returns the most frequent such subroute (ties: shorter first, then
// lexicographically smaller, for determinism). Nil when never observed.
func (p *Popular) frequentSubroute(a, b int) []int {
	counts := make(map[string]int)
	routes := make(map[string][]int)
	for _, ref := range p.occ[a] {
		seq := p.seqs[ref.seq]
		for j := ref.pos + 1; j < len(seq); j++ {
			if seq[j] != b {
				continue
			}
			sub := seq[ref.pos : j+1]
			k := routeKey(sub)
			counts[k]++
			if _, seen := routes[k]; !seen {
				routes[k] = append([]int(nil), sub...)
			}
			break // take the first (shortest-span) reach of b per occurrence
		}
	}
	var bestKey string
	best := -1
	for k, n := range counts {
		switch {
		case n > best,
			n == best && len(routes[k]) < len(routes[bestKey]),
			n == best && len(routes[k]) == len(routes[bestKey]) && k < bestKey:
			best, bestKey = n, k
		}
	}
	if best < 0 {
		return nil
	}
	return routes[bestKey]
}

func routeKey(ids []int) string {
	var sb strings.Builder
	for _, id := range ids {
		sb.WriteString(strconv.Itoa(id))
		sb.WriteByte(',')
	}
	return sb.String()
}

// likelihoodRoute is the fallback Dijkstra over −log transition
// probabilities.
func (p *Popular) likelihoodRoute(a, b int) ([]int, bool) {
	dist := map[int]float64{a: 0}
	prev := map[int]int{}
	done := map[int]bool{}
	q := &routePQ{}
	heap.Init(q)
	heap.Push(q, &routeItem{node: a, cost: 0})
	for q.Len() > 0 {
		cur := heap.Pop(q).(*routeItem)
		u := cur.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == b {
			break
		}
		total := p.outCounts[u]
		if total == 0 {
			continue
		}
		for _, v := range p.adj[u] {
			if done[v] {
				continue
			}
			prob := float64(p.counts[[2]int{u, v}]) / float64(total)
			// prob ≤ 1 so the edge cost is non-negative; Dijkstra applies.
			cost := dist[u] - math.Log(prob)
			if old, seen := dist[v]; !seen || cost < old {
				dist[v] = cost
				prev[v] = u
				heap.Push(q, &routeItem{node: v, cost: cost})
			}
		}
	}
	if !done[b] {
		return nil, false
	}
	var rev []int
	for at := b; at != a; at = prev[at] {
		rev = append(rev, at)
	}
	rev = append(rev, a)
	out := make([]int, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out, true
}

// FeatureMap is the historical feature map of §V-B: a directed graph over
// landmarks where each edge (li, lj) — present when some training
// trajectory travelled li→lj directly — is annotated with the average
// value r of every feature on that transition.
type FeatureMap struct {
	dims        int
	categorical []bool
	sums        map[[2]int][]float64
	// catCounts[key][j] is the per-value histogram of categorical
	// dimension j on the transition; nil for numeric dimensions.
	catCounts map[[2]int][]map[float64]int
	n         map[[2]int]int
	// mean is the global mean precomputed by Seal; nil before Seal and
	// after any later Add or AddAggregate.
	mean []float64
}

// NewFeatureMap returns an empty map for dims features (all numeric), for
// incremental construction.
func NewFeatureMap(dims int) *FeatureMap {
	return &FeatureMap{
		dims:        dims,
		categorical: make([]bool, dims),
		sums:        make(map[[2]int][]float64),
		catCounts:   make(map[[2]int][]map[float64]int),
		n:           make(map[[2]int]int),
	}
}

// MarkCategorical declares dimension j categorical: its regular value is
// the modal observed value rather than the mean. Must be called before
// any Add.
func (m *FeatureMap) MarkCategorical(j int) { m.categorical[j] = true }

// Add records one observed feature vector for the transition a→b.
func (m *FeatureMap) Add(a, b int, v []float64) {
	if len(v) != m.dims {
		return
	}
	m.mean = nil
	key := [2]int{a, b}
	s := m.sums[key]
	if s == nil {
		s = make([]float64, m.dims)
		m.sums[key] = s
	}
	for j, x := range v {
		s[j] += x
	}
	var counts []map[float64]int
	for j, x := range v {
		if !m.categorical[j] {
			continue
		}
		if counts == nil {
			counts = m.catCounts[key]
			if counts == nil {
				counts = make([]map[float64]int, m.dims)
				m.catCounts[key] = counts
			}
		}
		if counts[j] == nil {
			counts[j] = make(map[float64]int)
		}
		counts[j][x]++
	}
	m.n[key]++
}

// RegularAt returns dimension j of the regular feature vector r of the
// transition a→b — the mean (numeric) or mode (categorical) of the
// values observed on it — or false when the corpus never travelled it.
// It allocates nothing.
func (m *FeatureMap) RegularAt(a, b, j int) (float64, bool) {
	key := [2]int{a, b}
	n := m.n[key]
	if n == 0 {
		return 0, false
	}
	if m.categorical[j] {
		if counts := m.catCounts[key]; counts != nil && counts[j] != nil {
			best, bestN := 0.0, 0
			for val, c := range counts[j] {
				if c > bestN || (c == bestN && val < best) {
					best, bestN = val, c
				}
			}
			return best, true
		}
	}
	return m.sums[key][j] / float64(n), true
}

// Flattened returns a copy of the map covering the same transitions but
// carrying the global regular vector on every one — the crude baseline the
// ablation benches compare the per-edge map against.
func (m *FeatureMap) Flattened() *FeatureMap {
	g := m.GlobalMean()
	out := NewFeatureMap(m.dims)
	copy(out.categorical, m.categorical)
	for key := range m.n {
		out.Add(key[0], key[1], g)
	}
	out.Seal()
	return out
}

// HasEdge reports whether the corpus ever travelled a→b directly.
func (m *FeatureMap) HasEdge(a, b int) bool { return m.n[[2]int{a, b}] > 0 }

// NumEdges returns the number of annotated transitions.
func (m *FeatureMap) NumEdges() int { return len(m.n) }

// CategoricalDims returns a copy of the per-dimension categorical flags.
func (m *FeatureMap) CategoricalDims() []bool {
	return append([]bool(nil), m.categorical...)
}

// EdgesSorted returns every annotated transition ordered by (from, to) —
// a deterministic iteration order for serialization, so saving the same
// map twice yields identical bytes.
func (m *FeatureMap) EdgesSorted() [][2]int {
	out := make([][2]int, 0, len(m.n))
	for key := range m.n {
		out = append(out, key)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Aggregate exposes the raw accumulated state of the transition a→b —
// observation count, per-dimension sums and per-categorical-dimension
// value histograms — for serialization. Everything returned is a copy;
// ok is false when the corpus never travelled the transition. Feeding the
// same values to AddAggregate on an empty map with the same categorical
// flags reproduces Regular bit-for-bit, because sums are transported
// rather than recomputed.
func (m *FeatureMap) Aggregate(a, b int) (n int, sums []float64, cats []map[float64]int, ok bool) {
	key := [2]int{a, b}
	n = m.n[key]
	if n == 0 {
		return 0, nil, nil, false
	}
	sums = append([]float64(nil), m.sums[key]...)
	if src := m.catCounts[key]; src != nil {
		cats = make([]map[float64]int, m.dims)
		for j, counts := range src {
			if counts == nil {
				continue
			}
			cats[j] = make(map[float64]int, len(counts))
			for v, c := range counts {
				cats[j][v] = c
			}
		}
	}
	return n, sums, cats, true
}

// AddAggregate merges a previously exported aggregate back into the map
// (model deserialization): n observations whose per-dimension sums are
// sums and whose categorical histograms are cats (nil when no dimension
// is categorical; entries for numeric dimensions are ignored). Inputs are
// copied. It returns an error instead of silently dropping mismatched
// dimensionality, since a load path must not half-apply a model.
func (m *FeatureMap) AddAggregate(a, b int, n int, sums []float64, cats []map[float64]int) error {
	if len(sums) != m.dims {
		return fmt.Errorf("history: aggregate has %d dims, map has %d", len(sums), m.dims)
	}
	if n <= 0 {
		return fmt.Errorf("history: aggregate for %d->%d has non-positive count %d", a, b, n)
	}
	if cats != nil && len(cats) != m.dims {
		return fmt.Errorf("history: aggregate categorical histograms have %d dims, map has %d", len(cats), m.dims)
	}
	m.mean = nil
	key := [2]int{a, b}
	s := m.sums[key]
	if s == nil {
		s = make([]float64, m.dims)
		m.sums[key] = s
	}
	for j, x := range sums {
		s[j] += x
	}
	for j := range m.categorical {
		if !m.categorical[j] || cats == nil || cats[j] == nil {
			continue
		}
		counts := m.catCounts[key]
		if counts == nil {
			counts = make([]map[float64]int, m.dims)
			m.catCounts[key] = counts
		}
		if counts[j] == nil {
			counts[j] = make(map[float64]int, len(cats[j]))
		}
		for v, c := range cats[j] {
			counts[j][v] += c
		}
	}
	m.n[key] += n
	return nil
}

// Clone returns a deep copy of the map: mutating either copy afterwards
// (Add, AddAggregate) never disturbs the other. It is the freeze step of
// incremental ingestion — the live cumulative map keeps absorbing trips
// while a clone of it is built into an immutable published Model.
func (m *FeatureMap) Clone() *FeatureMap {
	out := NewFeatureMap(m.dims)
	copy(out.categorical, m.categorical)
	for key, s := range m.sums {
		out.sums[key] = append([]float64(nil), s...)
	}
	for key, cats := range m.catCounts {
		cc := make([]map[float64]int, m.dims)
		for j, counts := range cats {
			if counts == nil {
				continue
			}
			c2 := make(map[float64]int, len(counts))
			for v, c := range counts {
				c2[v] = c
			}
			cc[j] = c2
		}
		out.catCounts[key] = cc
	}
	for key, n := range m.n {
		out.n[key] = n
	}
	return out
}

// Seal precomputes the global mean, so fallback lookups against a
// published model never recompute it. Model builders call it once, after
// the last Add or AddAggregate and before the map is shared; a later Add
// or AddAggregate discards the precomputed value.
func (m *FeatureMap) Seal() { m.mean = m.globalMean() }

// GlobalMean returns the corpus-wide regular value of every feature — the
// mean for numeric dimensions and the mode for categorical ones. It is
// the substitution value for transitions the corpus never travelled, and
// the crude baseline the ablation benches compare the per-edge map
// against. A sealed map returns its precomputed slice, shared by every
// caller, so treat the result as read-only.
func (m *FeatureMap) GlobalMean() []float64 {
	if m.mean != nil {
		return m.mean
	}
	return m.globalMean()
}

// globalMean sums the transitions in (from, to) order, so maps holding
// the same aggregates give bit-identical means whatever order those were
// added in.
func (m *FeatureMap) globalMean() []float64 {
	out := make([]float64, m.dims)
	var total int
	catTotals := make([]map[float64]int, m.dims)
	for _, key := range m.EdgesSorted() {
		for j, x := range m.sums[key] {
			out[j] += x
		}
		total += m.n[key]
		for j, counts := range m.catCounts[key] {
			if counts == nil {
				continue
			}
			if catTotals[j] == nil {
				catTotals[j] = make(map[float64]int)
			}
			for val, c := range counts {
				catTotals[j][val] += c
			}
		}
	}
	if total > 0 {
		for j := range out {
			out[j] /= float64(total)
		}
	}
	for j := range out {
		if !m.categorical[j] || catTotals[j] == nil {
			continue
		}
		best, bestN := 0.0, 0
		for val, c := range catTotals[j] {
			if c > bestN || (c == bestN && val < best) {
				best, bestN = val, c
			}
		}
		out[j] = best
	}
	return out
}
