// Package geo provides geodesic primitives used throughout the STMaker
// library: points, great-circle distances, bearings, interpolation and
// distances between points and segments. They underpin the trajectory
// model's sample geometry (Def. 1), the calibration radius test (§II-A)
// and the moving-feature computations — speed, stay points, U-turn
// bearing changes (§III-B).
//
// Latitudes and longitudes are in decimal degrees; distances are in metres;
// bearings are in degrees clockwise from north in [0, 360).
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by all great-circle
// computations in this package.
const EarthRadiusMeters = 6371000.0

// Point is a geographic location in decimal degrees.
type Point struct {
	Lat float64
	Lng float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lng)
}

// Valid reports whether the point lies within the legal latitude/longitude
// ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lng >= -180 && p.Lng <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lng)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// Distance returns the haversine great-circle distance between a and b in
// metres.
func Distance(a, b Point) float64 {
	if a == b {
		return 0
	}
	lat1, lat2 := deg2rad(a.Lat), deg2rad(b.Lat)
	dLat := lat2 - lat1
	dLng := deg2rad(b.Lng - a.Lng)
	sinLat := math.Sin(dLat / 2)
	sinLng := math.Sin(dLng / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLng*sinLng
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// Bearing returns the initial great-circle bearing from a to b in degrees
// clockwise from north, in [0, 360). The bearing from a point to itself is 0.
func Bearing(a, b Point) float64 {
	if a == b {
		return 0
	}
	lat1, lat2 := deg2rad(a.Lat), deg2rad(b.Lat)
	dLng := deg2rad(b.Lng - a.Lng)
	y := math.Sin(dLng) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLng)
	brg := rad2deg(math.Atan2(y, x))
	return math.Mod(brg+360, 360)
}

// AngleDiff returns the absolute angular difference between two bearings in
// degrees, always in [0, 180].
func AngleDiff(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 360)
	if d > 180 {
		d = 360 - d
	}
	return d
}

// Destination returns the point reached by travelling dist metres from p on
// the given initial bearing (degrees clockwise from north).
func Destination(p Point, bearingDeg, dist float64) Point {
	if dist == 0 { //lint:allow floateq -- exact zero is a fast path, not a tolerance check
		return p
	}
	ang := dist / EarthRadiusMeters
	brg := deg2rad(bearingDeg)
	lat1 := deg2rad(p.Lat)
	lng1 := deg2rad(p.Lng)
	sinLat2 := math.Sin(lat1)*math.Cos(ang) + math.Cos(lat1)*math.Sin(ang)*math.Cos(brg)
	lat2 := math.Asin(sinLat2)
	y := math.Sin(brg) * math.Sin(ang) * math.Cos(lat1)
	x := math.Cos(ang) - math.Sin(lat1)*sinLat2
	lng2 := lng1 + math.Atan2(y, x)
	return Point{Lat: rad2deg(lat2), Lng: normalizeLng(rad2deg(lng2))}
}

// normalizeLng wraps a longitude into [-180, 180]. math.Mod keeps it O(1)
// for arbitrarily large inputs (the loop it replaces ran one iteration per
// 360° of excess — effectively forever for inputs like 1e18). Values that
// are already in range, including the -180 boundary, pass through
// unchanged; NaN and ±Inf are returned as-is since no wrap is meaningful.
func normalizeLng(lng float64) float64 {
	if math.IsNaN(lng) || math.IsInf(lng, 0) {
		return lng
	}
	lng = math.Mod(lng, 360)
	switch {
	case lng > 180:
		lng -= 360
	case lng < -180:
		lng += 360
	}
	return lng
}

// Interpolate returns the point a fraction t of the way from a to b, with
// t=0 yielding a and t=1 yielding b. Interpolation is linear in lat/lng,
// which is accurate at the city scales STMaker works with.
func Interpolate(a, b Point, t float64) Point {
	return Point{
		Lat: a.Lat + (b.Lat-a.Lat)*t,
		Lng: a.Lng + (b.Lng-a.Lng)*t,
	}
}

// Midpoint returns the midpoint between a and b.
func Midpoint(a, b Point) Point { return Interpolate(a, b, 0.5) }

// PointSegmentDistance returns the minimum distance in metres from p to the
// segment ab, together with the fraction t in [0,1] of the projection of p
// onto ab (0 at a, 1 at b).
//
// The computation projects to a local planar approximation around the
// segment, which is accurate for city-scale segments.
func PointSegmentDistance(p, a, b Point) (dist, t float64) {
	// Convert to local planar coordinates (metres) centred at a.
	cosLat := math.Cos(deg2rad(a.Lat))
	toXY := func(q Point) (x, y float64) {
		x = deg2rad(q.Lng-a.Lng) * cosLat * EarthRadiusMeters
		y = deg2rad(q.Lat-a.Lat) * EarthRadiusMeters
		return
	}
	px, py := toXY(p)
	bx, by := toXY(b)
	segLen2 := bx*bx + by*by
	if segLen2 == 0 { //lint:allow floateq -- degenerate zero-length segment guard
		return Distance(p, a), 0
	}
	t = (px*bx + py*by) / segLen2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	cx, cy := bx*t, by*t
	dx, dy := px-cx, py-cy
	return math.Sqrt(dx*dx + dy*dy), t
}
