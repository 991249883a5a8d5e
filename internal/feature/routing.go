package feature

import (
	"stmaker/internal/roadnet"
	"stmaker/internal/traj"
)

// GradeOfRoad extracts the dominant road grade of a segment (Table III).
// The value is the categorical grade code 1–7; 0 when the segment cannot
// be matched to the road network.
type GradeOfRoad struct{}

// Descriptor implements Extractor.
func (GradeOfRoad) Descriptor() Descriptor {
	return Descriptor{Key: KeyGradeOfRoad, Name: "grade of road", Class: Routing, Numeric: false}
}

// Extract implements Extractor: the modal grade of the matched edges.
// Grades are the closed code set 1–7 (roadnet.Grade.Valid), so the
// count fits a fixed array — this runs once per segment per request
// and must not allocate.
func (GradeOfRoad) Extract(seg traj.Segment, ctx *Context) float64 {
	edges := ctx.SegmentEdges(seg)
	if len(edges) == 0 {
		return 0
	}
	var counts [8]int
	for _, e := range edges {
		g := e.Grade
		if g < 0 || g > 7 {
			g = 0 // out-of-range grades cannot enter a valid graph
		}
		counts[g]++
	}
	best, bestN := 0, 0
	for g, n := range counts {
		// Ascending iteration: strict > keeps the smallest modal grade.
		if n > bestN {
			best, bestN = g, n
		}
	}
	return float64(best)
}

// RoadWidth extracts the mean width in metres of the roads the segment
// travels on (Table III). Zero when unmatched.
type RoadWidth struct{}

// Descriptor implements Extractor.
func (RoadWidth) Descriptor() Descriptor {
	return Descriptor{Key: KeyRoadWidth, Name: "road width", Class: Routing, Numeric: true}
}

// Extract implements Extractor.
func (RoadWidth) Extract(seg traj.Segment, ctx *Context) float64 {
	edges := ctx.SegmentEdges(seg)
	if len(edges) == 0 {
		return 0
	}
	var sum float64
	for _, e := range edges {
		sum += e.Width
	}
	return sum / float64(len(edges))
}

// TrafficDirection extracts the dominant traffic direction of the segment
// (Table III): 1 (two-way) or 2 (one-way); 0 when unmatched.
type TrafficDirection struct{}

// Descriptor implements Extractor.
func (TrafficDirection) Descriptor() Descriptor {
	return Descriptor{Key: KeyDirection, Name: "traffic direction", Class: Routing, Numeric: false}
}

// Extract implements Extractor.
func (TrafficDirection) Extract(seg traj.Segment, ctx *Context) float64 {
	edges := ctx.SegmentEdges(seg)
	if len(edges) == 0 {
		return 0
	}
	oneWay, twoWay := 0, 0
	for _, e := range edges {
		if e.Direction == roadnet.OneWay {
			oneWay++
		} else {
			twoWay++
		}
	}
	if oneWay > twoWay {
		return float64(roadnet.OneWay)
	}
	return float64(roadnet.TwoWay)
}
