// Package roadnet models the digital road map STMaker consumes: a directed
// multigraph of intersections and road segments annotated with the paper's
// three routing attributes (grade of road, road width, traffic direction),
// plus shortest-path search and GPS-point map-matching.
package roadnet

import (
	"fmt"

	"stmaker/internal/geo"
)

// Grade is the paper's seven-level road classification (§III-A). Smaller
// values mean higher transportation capacity.
type Grade int

// The seven grades of road from Table III's description.
const (
	GradeHighway    Grade = 1
	GradeExpress    Grade = 2
	GradeNational   Grade = 3
	GradeProvincial Grade = 4
	GradeCountry    Grade = 5
	GradeVillage    Grade = 6
	GradeFeeder     Grade = 7
)

var gradeNames = map[Grade]string{
	GradeHighway:    "highway",
	GradeExpress:    "express road",
	GradeNational:   "national road",
	GradeProvincial: "provincial road",
	GradeCountry:    "country road",
	GradeVillage:    "village road",
	GradeFeeder:     "feeder road",
}

// String returns the human-readable grade name used in summaries.
func (g Grade) String() string {
	if s, ok := gradeNames[g]; ok {
		return s
	}
	return fmt.Sprintf("grade-%d road", int(g))
}

// Valid reports whether g is one of the seven defined grades.
func (g Grade) Valid() bool { return g >= GradeHighway && g <= GradeFeeder }

// TypicalSpeedKmh returns a free-flow design speed for the grade, used by
// the traffic simulator and as a fallback speed limit.
func (g Grade) TypicalSpeedKmh() float64 {
	switch g {
	case GradeHighway:
		return 100
	case GradeExpress:
		return 80
	case GradeNational:
		return 70
	case GradeProvincial:
		return 60
	case GradeCountry:
		return 50
	case GradeVillage:
		return 40
	default:
		return 30
	}
}

// TypicalWidthMeters returns a representative carriageway width for the
// grade, used when generating synthetic maps.
func (g Grade) TypicalWidthMeters() float64 {
	switch g {
	case GradeHighway:
		return 28
	case GradeExpress:
		return 22
	case GradeNational:
		return 16
	case GradeProvincial:
		return 13
	case GradeCountry:
		return 10
	case GradeVillage:
		return 7
	default:
		return 5
	}
}

// Direction is the paper's traffic-direction attribute: 1 (two-way road) or
// 2 (one-way road).
type Direction int

const (
	// TwoWay allows travel in both directions.
	TwoWay Direction = 1
	// OneWay allows travel only from the edge's From node to its To node.
	OneWay Direction = 2
)

// String returns the phrase used in summary templates.
func (d Direction) String() string {
	if d == OneWay {
		return "a one-way road"
	}
	return "a two-way road"
}

// Valid reports whether d is a defined direction value.
func (d Direction) Valid() bool { return d == TwoWay || d == OneWay }

// NodeID identifies a node within one Graph.
type NodeID int

// EdgeID identifies an edge within one Graph.
type EdgeID int

// Node is a road-network vertex: an intersection or a shape point.
type Node struct {
	ID NodeID
	Pt geo.Point
	// TurningPoint marks nodes where the road geometry turns sharply;
	// these become landmarks (Def. 2).
	TurningPoint bool
}

// Edge is a directed road segment with the paper's routing attributes.
// A TwoWay edge is traversable in both directions but stored once.
type Edge struct {
	ID        EdgeID
	From, To  NodeID
	Name      string
	Grade     Grade
	Width     float64 // metres
	Direction Direction
	// Geometry is the shape of the segment from From to To. It always
	// starts at From's point and ends at To's point.
	Geometry geo.Polyline
	// SpeedLimitKmh is the legal speed; zero means use the grade default.
	SpeedLimitKmh float64

	// segLens[i] is the haversine length of Geometry's segment i, and
	// length is their sum in order, which is Geometry.Length(). A match's
	// Along sums them, so matching takes no haversine along the edge.
	segLens []float64
	length  float64
}

// Length returns the segment length in metres.
func (e *Edge) Length() float64 { return e.length }

// along returns the distance in metres from the start of the geometry to
// the point at fraction t of segment seg, as NearestPoint reports them:
// the lengths of the segments before seg in order, then t of seg's. The
// sum is the one taking each segment's haversine in turn would give, to
// the bit (the tests' distanceAlong).
func (e *Edge) along(seg int, t float64) float64 {
	var d float64
	for _, l := range e.segLens[:min(seg, len(e.segLens))] {
		d += l
	}
	if seg < len(e.segLens) {
		d += e.segLens[seg] * t
	}
	return d
}

// SpeedLimit returns the effective speed limit in km/h.
func (e *Edge) SpeedLimit() float64 {
	if e.SpeedLimitKmh > 0 {
		return e.SpeedLimitKmh
	}
	return e.Grade.TypicalSpeedKmh()
}

// TravelTimeSeconds returns the free-flow traversal time of the edge.
func (e *Edge) TravelTimeSeconds() float64 {
	v := e.SpeedLimit() / 3.6 // m/s
	if v <= 0 {
		v = 1
	}
	return e.length / v
}
