// Package feature implements STMaker's feature extraction (§III): routing
// features describing where the moving object travels (grade of road, road
// width, traffic direction) and moving features describing how it travels
// (speed, number of stay points, number of U-turns, plus the sharp
// speed-change extension). New features can be registered at runtime, as
// §VI-B describes.
package feature

import (
	"fmt"
	"sync"

	"stmaker/internal/geo"
	"stmaker/internal/landmark"
	"stmaker/internal/roadnet"
	"stmaker/internal/traj"
)

// Class is the paper's two-way feature taxonomy.
type Class int

const (
	// Routing features describe where the object travels (§III-A).
	Routing Class = iota
	// Moving features describe how the object travels (§III-B).
	Moving
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Moving {
		return "moving"
	}
	return "routing"
}

// Canonical feature keys used across the library and in the experiments
// (matching the abbreviations in §VII-B: GR, RW, TD, Spe, Stay, U-turn,
// and the SpeC extension of Fig. 10(b)).
const (
	KeyGradeOfRoad = "GR"
	KeyRoadWidth   = "RW"
	KeyDirection   = "TD"
	KeySpeed       = "Spe"
	KeyStayPoints  = "Stay"
	KeyUTurns      = "U-turn"
	KeySpeedChange = "SpeC"
)

// Descriptor is feature metadata.
type Descriptor struct {
	// Key is the short unique identifier (e.g. "GR").
	Key string
	// Name is the human-readable name (e.g. "grade of road").
	Name string
	// Class says whether the feature is routing or moving.
	Class Class
	// Numeric is true for numeric features; false for categorical features
	// whose values are category codes (Table III/IV's Numeric column).
	Numeric bool
}

// Extractor computes one feature's value on a trajectory segment. Moving
// features read the raw samples behind the segment; routing features read
// the road network through the Context.
type Extractor interface {
	Descriptor() Descriptor
	// Extract returns the feature value of the segment. Categorical
	// features return their category code as a float64.
	Extract(seg traj.Segment, ctx *Context) float64
}

// matchRadiusMeters bounds the sample-to-edge distance of greedy
// nearest-edge matching.
const matchRadiusMeters = 150

// Context carries the external semantic resources extractors may consult,
// plus a per-segment map-matching cache shared by the routing extractors.
// The cache is synchronized, so one Context may serve concurrent
// extraction.
type Context struct {
	Graph     *roadnet.Graph
	Matcher   *roadnet.Matcher
	Landmarks *landmark.Set

	// HMM, when set, replaces greedy per-sample nearest-edge matching with
	// joint Viterbi decoding over each segment's samples — slower but
	// robust to GPS noise near parallel roads.
	HMM *roadnet.HMMMatcher

	mu        sync.Mutex
	edgeCache map[*traj.Symbolic][]segEdges
}

// segEdges is one segment's cached match result. done distinguishes
// "matched, nothing found" from "never matched".
type segEdges struct {
	edges []*roadnet.Edge
	done  bool
}

// NewContext builds a context over the given map resources.
func NewContext(g *roadnet.Graph, m *roadnet.Matcher, lms *landmark.Set) *Context {
	return &Context{
		Graph:     g,
		Matcher:   m,
		Landmarks: lms,
		edgeCache: make(map[*traj.Symbolic][]segEdges),
	}
}

// SegmentEdges map-matches each raw sample of the segment to its nearest
// road edge and returns the per-sample edges (skipping unmatched samples).
// Results are cached per (trajectory, segment); the trajectory's whole
// entry is dropped by ReleaseEdges when its request finishes, so a
// long-lived serving Context does not accumulate one entry per
// trajectory it ever saw.
func (ctx *Context) SegmentEdges(seg traj.Segment) []*roadnet.Edge {
	if ctx.Matcher == nil {
		return nil
	}
	ctx.mu.Lock()
	row := ctx.edgeCache[seg.Traj]
	if seg.Index < len(row) && row[seg.Index].done {
		edges := row[seg.Index].edges
		ctx.mu.Unlock()
		return edges
	}
	// Segments share their boundary sample, so the previous segment's
	// last edge is the likely match of this one's first sample: greedy
	// matching starts from it.
	var prev *roadnet.Edge
	if i := seg.Index - 1; i >= 0 && i < len(row) {
		if e := row[i].edges; len(e) > 0 {
			prev = e[len(e)-1]
		}
	}
	ctx.mu.Unlock()
	samples := seg.RawSamples()
	// At most one edge per sample: one allocation, not one per doubling.
	edges := make([]*roadnet.Edge, 0, len(samples))
	if ctx.HMM != nil {
		pts := make([]geo.Point, len(samples))
		for i, s := range samples {
			pts[i] = s.Pt
		}
		for _, m := range ctx.HMM.MatchPoints(pts) {
			if m.Edge != nil {
				edges = append(edges, m.Edge)
			}
		}
	} else {
		for _, s := range samples {
			if m, ok := ctx.Matcher.NearestEdge(s.Pt, matchRadiusMeters, prev); ok {
				edges = append(edges, m.Edge)
				prev = m.Edge
			}
		}
	}
	ctx.mu.Lock()
	if ctx.edgeCache == nil {
		ctx.edgeCache = make(map[*traj.Symbolic][]segEdges)
	}
	row = ctx.edgeCache[seg.Traj]
	if len(row) <= seg.Index {
		grown := make([]segEdges, seg.Traj.NumSegments())
		copy(grown, row)
		row = grown
	}
	row[seg.Index] = segEdges{edges: edges, done: true}
	ctx.edgeCache[seg.Traj] = row
	ctx.mu.Unlock()
	return edges
}

// ReleaseEdges drops the trajectory's cached match results. Callers
// that are done with a trajectory (a finished summarize request, a
// trained-on corpus trajectory) release it so the shared Context's
// cache stays bounded by the number of trajectories in flight; a
// release is never unsafe, because a later lookup just re-matches.
func (ctx *Context) ReleaseEdges(s *traj.Symbolic) {
	ctx.mu.Lock()
	delete(ctx.edgeCache, s)
	ctx.mu.Unlock()
}

// Registry is an ordered collection of extractors. Order is significant:
// feature vectors are laid out in registration order.
type Registry struct {
	extractors []Extractor
	byKey      map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]int)}
}

// NewDefaultRegistry returns a registry holding the paper's six features
// in the order GR, RW, TD, Spe, Stay, U-turn.
func NewDefaultRegistry() *Registry {
	r := NewRegistry()
	for _, e := range []Extractor{
		GradeOfRoad{}, RoadWidth{}, TrafficDirection{},
		NewSpeed(), NewStayPoints(), NewUTurns(),
	} {
		if err := r.Register(e); err != nil {
			panic(err) // unreachable: fixed distinct keys
		}
	}
	return r
}

// Register appends an extractor (§VI-B: extension with new features). It
// fails if the key is already registered.
func (r *Registry) Register(e Extractor) error {
	key := e.Descriptor().Key
	if key == "" {
		return fmt.Errorf("feature: extractor has empty key")
	}
	if _, dup := r.byKey[key]; dup {
		return fmt.Errorf("feature: duplicate feature key %q", key)
	}
	r.byKey[key] = len(r.extractors)
	r.extractors = append(r.extractors, e)
	return nil
}

// Len returns the number of registered features, |F|.
func (r *Registry) Len() int { return len(r.extractors) }

// Descriptors returns feature metadata in vector order.
func (r *Registry) Descriptors() []Descriptor {
	out := make([]Descriptor, len(r.extractors))
	for i, e := range r.extractors {
		out[i] = e.Descriptor()
	}
	return out
}

// ExtractorAt returns the extractor at vector position i. It panics when i
// is out of range, as with slice indexing.
func (r *Registry) ExtractorAt(i int) Extractor { return r.extractors[i] }

// IndexOf returns the vector position of the feature with the given key,
// or -1 when unknown.
func (r *Registry) IndexOf(key string) int {
	if i, ok := r.byKey[key]; ok {
		return i
	}
	return -1
}

// Vector is a segment's feature values in registry order.
type Vector []float64

// Extract computes the full feature vector of a segment.
func (r *Registry) Extract(seg traj.Segment, ctx *Context) Vector {
	v := make(Vector, len(r.extractors))
	for i, e := range r.extractors {
		v[i] = e.Extract(seg, ctx)
	}
	return v
}

// ExtractAll computes the feature matrix of a symbolic trajectory: one
// vector per segment.
func (r *Registry) ExtractAll(s *traj.Symbolic, ctx *Context) []Vector {
	out := make([]Vector, s.NumSegments())
	for i := range out {
		out[i] = r.Extract(s.Segment(i), ctx)
	}
	return out
}

// MatrixBuf is reusable backing storage for a feature matrix: the rows
// are windows over one flat value slice, so an n-segment extraction
// costs zero allocations once the buffer has grown to the workload's
// trajectory size. A MatrixBuf serves one matrix at a time — reusing it
// invalidates the previously returned rows — and is not safe for
// concurrent use; the pipeline pools one per in-flight request, so
// nothing backed by the buffer may outlive the request (`make lint`
// poolescape tracks the aliases).
type MatrixBuf struct {
	rows []Vector
	flat []float64
}

// Matrix returns an n×dims matrix backed by the buffer.
func (b *MatrixBuf) Matrix(n, dims int) []Vector {
	if cap(b.flat) < n*dims {
		b.flat = make([]float64, n*dims)
	}
	flat := b.flat[: n*dims : n*dims]
	if cap(b.rows) < n {
		b.rows = make([]Vector, n)
	}
	rows := b.rows[:n]
	for i := range rows {
		rows[i] = flat[i*dims : (i+1)*dims : (i+1)*dims]
	}
	b.flat, b.rows = flat, rows
	return rows
}

// ExtractAllInto is ExtractAll against pooled backing storage: the
// returned matrix is valid until the buffer's next use.
func (r *Registry) ExtractAllInto(buf *MatrixBuf, s *traj.Symbolic, ctx *Context) []Vector {
	out := buf.Matrix(s.NumSegments(), len(r.extractors))
	for i := range out {
		seg := s.Segment(i)
		for j, e := range r.extractors {
			out[i][j] = e.Extract(seg, ctx)
		}
	}
	return out
}

// NormalizeByMax returns a copy of the matrix with each feature dimension
// divided by its maximum absolute value across the matrix (§IV-B: "the
// normalizing constant of f is the biggest feature value among all the
// trajectory segments of T"). All-zero dimensions stay zero.
func NormalizeByMax(matrix []Vector) []Vector {
	if len(matrix) == 0 {
		return nil
	}
	dims := len(matrix[0])
	maxAbs := make([]float64, dims)
	for _, v := range matrix {
		for j, x := range v {
			if a := abs(x); a > maxAbs[j] {
				maxAbs[j] = a
			}
		}
	}
	out := make([]Vector, len(matrix))
	for i, v := range matrix {
		nv := make(Vector, dims)
		for j, x := range v {
			if maxAbs[j] > 0 {
				nv[j] = x / maxAbs[j]
			}
		}
		out[i] = nv
	}
	return out
}

// NormalizeByMaxInto is NormalizeByMax against pooled backing storage:
// the returned matrix is valid until the buffer's next use. maxAbs
// scratch rides in the same buffer's spare row header slot, so the
// call allocates nothing once the buffer has grown.
func NormalizeByMaxInto(buf *MatrixBuf, matrix []Vector) []Vector {
	if len(matrix) == 0 {
		return nil
	}
	dims := len(matrix[0])
	// One extra row holds the per-dimension maxima.
	rows := buf.Matrix(len(matrix)+1, dims)
	out, maxAbs := rows[:len(matrix)], rows[len(matrix)]
	for j := range maxAbs {
		maxAbs[j] = 0
	}
	for _, v := range matrix {
		for j, x := range v {
			if a := abs(x); a > maxAbs[j] {
				maxAbs[j] = a
			}
		}
	}
	for i, v := range matrix {
		for j, x := range v {
			if maxAbs[j] > 0 {
				out[i][j] = x / maxAbs[j]
			} else {
				out[i][j] = 0
			}
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Weights maps feature keys to user-specified weights w_f (§IV-B). Missing
// keys default to 1.
type Weights map[string]float64

// VectorFor lays the weights out in the registry's vector order.
func (w Weights) VectorFor(r *Registry) []float64 {
	out := make([]float64, r.Len())
	for i, d := range r.Descriptors() {
		out[i] = 1
		if w != nil {
			if v, ok := w[d.Key]; ok && v >= 0 {
				out[i] = v
			}
		}
	}
	return out
}
