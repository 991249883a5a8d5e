package roadnet

import (
	"errors"
	"fmt"

	"stmaker/internal/geo"
)

// ErrNoPath is returned by ShortestPath when the destination is unreachable.
var ErrNoPath = errors.New("roadnet: no path between nodes")

// Graph is a road network. The zero value is an empty, usable graph.
type Graph struct {
	nodes []Node
	edges []Edge
	// out[n] lists traversable arcs leaving node n: the edge and whether it
	// is traversed in reverse (possible only on two-way edges).
	out [][]arc
}

type arc struct {
	edge    EdgeID
	reverse bool
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of stored edges (a two-way edge counts once).
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode appends a node at point p and returns its id.
func (g *Graph) AddNode(p geo.Point, turningPoint bool) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Pt: p, TurningPoint: turningPoint})
	g.out = append(g.out, nil)
	return id
}

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Nodes returns the node slice. Callers must not mutate it.
func (g *Graph) Nodes() []Node { return g.nodes }

// Edge returns a pointer to the edge with the given id. Callers must not
// mutate it.
func (g *Graph) Edge(id EdgeID) *Edge { return &g.edges[id] }

// owns reports whether e is one of the graph's own edges.
func (g *Graph) owns(e *Edge) bool {
	return int(e.ID) >= 0 && int(e.ID) < len(g.edges) && &g.edges[e.ID] == e
}

// Edges returns the edge slice. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// AddEdge adds a road segment between existing nodes. If geometry is empty
// it defaults to the straight line between the endpoints; otherwise it must
// start and end at the endpoints' locations. Returns the new edge's id.
func (g *Graph) AddEdge(from, to NodeID, name string, grade Grade, width float64, dir Direction, geometry geo.Polyline) (EdgeID, error) {
	if int(from) < 0 || int(from) >= len(g.nodes) || int(to) < 0 || int(to) >= len(g.nodes) {
		return 0, fmt.Errorf("roadnet: AddEdge: node out of range (from=%d, to=%d, n=%d)", from, to, len(g.nodes))
	}
	if !grade.Valid() {
		return 0, fmt.Errorf("roadnet: AddEdge: invalid grade %d", grade)
	}
	if !dir.Valid() {
		return 0, fmt.Errorf("roadnet: AddEdge: invalid direction %d", dir)
	}
	if width <= 0 {
		width = grade.TypicalWidthMeters()
	}
	if len(geometry) == 0 {
		geometry = geo.Polyline{g.nodes[from].Pt, g.nodes[to].Pt}
	}
	id := EdgeID(len(g.edges))
	e := Edge{
		ID: id, From: from, To: to, Name: name,
		Grade: grade, Width: width, Direction: dir,
		Geometry: geometry,
	}
	e.segLens = make([]float64, max(len(geometry)-1, 0))
	for i := range e.segLens {
		e.segLens[i] = geo.Distance(geometry[i], geometry[i+1])
		e.length += e.segLens[i]
	}
	g.edges = append(g.edges, e)
	g.out[from] = append(g.out[from], arc{edge: id})
	if dir == TwoWay {
		g.out[to] = append(g.out[to], arc{edge: id, reverse: true})
	}
	return id, nil
}

// Neighbor describes one traversable arc out of a node.
type Neighbor struct {
	Edge *Edge
	// To is the node reached by traversing the arc.
	To NodeID
	// Reverse is true when a two-way edge is traversed To→From.
	Reverse bool
}

// EdgeBetween returns the first edge traversable from a to b directly, or
// nil if none exists.
func (g *Graph) EdgeBetween(a, b NodeID) *Edge {
	for _, arc := range g.out[a] {
		e := &g.edges[arc.edge]
		to := e.To
		if arc.reverse {
			to = e.From
		}
		if to == b {
			return e
		}
	}
	return nil
}

// EdgeGeometry returns the edge geometry oriented in the direction of
// travel (From→To normally, To→From when reverse is set).
func EdgeGeometry(e *Edge, reverse bool) geo.Polyline {
	if !reverse {
		out := make(geo.Polyline, len(e.Geometry))
		copy(out, e.Geometry)
		return out
	}
	out := make(geo.Polyline, len(e.Geometry))
	for i, p := range e.Geometry {
		out[len(out)-1-i] = p
	}
	return out
}
