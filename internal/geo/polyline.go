package geo

import "math"

// Polyline is an ordered sequence of points describing a path.
type Polyline []Point

// Length returns the total great-circle length of the polyline in metres.
func (pl Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(pl); i++ {
		total += Distance(pl[i-1], pl[i])
	}
	return total
}

// PointAt returns the point located dist metres from the start of the
// polyline, measured along the line. Distances beyond the ends clamp to the
// endpoints. An empty polyline returns the zero Point.
func (pl Polyline) PointAt(dist float64) Point {
	if len(pl) == 0 {
		return Point{}
	}
	if dist <= 0 {
		return pl[0]
	}
	var walked float64
	for i := 1; i < len(pl); i++ {
		seg := Distance(pl[i-1], pl[i])
		if walked+seg >= dist {
			if seg == 0 { //lint:allow floateq -- degenerate zero-length segment guard
				return pl[i]
			}
			t := (dist - walked) / seg
			return Interpolate(pl[i-1], pl[i], t)
		}
		walked += seg
	}
	return pl[len(pl)-1]
}

// NearestPoint returns the minimum distance in metres from p to the
// polyline, the index i of the segment (pl[i], pl[i+1]) realising that
// minimum, and the fraction along that segment. A polyline with fewer than
// two points is treated as the single point pl[0] (segment index 0, t 0);
// an empty polyline returns +Inf.
func (pl Polyline) NearestPoint(p Point) (dist float64, segIdx int, t float64) {
	switch len(pl) {
	case 0:
		return math.Inf(1), 0, 0
	case 1:
		return Distance(p, pl[0]), 0, 0
	}
	dist = math.Inf(1)
	for i := 0; i < len(pl)-1; i++ {
		d, tt := PointSegmentDistance(p, pl[i], pl[i+1])
		if d < dist {
			dist, segIdx, t = d, i, tt
		}
	}
	return dist, segIdx, t
}

// Resample returns a copy of the polyline resampled at a fixed spacing in
// metres, always retaining the original endpoints. A spacing <= 0 returns a
// copy of the input.
func (pl Polyline) Resample(spacing float64) Polyline {
	if len(pl) < 2 || spacing <= 0 {
		out := make(Polyline, len(pl))
		copy(out, pl)
		return out
	}
	total := pl.Length()
	if total == 0 { //lint:allow floateq -- degenerate zero-length polyline guard
		return Polyline{pl[0], pl[len(pl)-1]}
	}
	out := Polyline{pl[0]}
	// The epsilon keeps accumulated floating-point error in total from
	// emitting a sample coincident with the final endpoint.
	for d := spacing; d < total-1e-6; d += spacing {
		out = append(out, pl.PointAt(d))
	}
	out = append(out, pl[len(pl)-1])
	return out
}
