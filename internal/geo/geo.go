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
	lat1 := deg2rad(a.Lat)
	lat2, dLat, dLng := deltas(lat1, a.Lng, b)
	h := haversine(math.Cos(lat1), lat2, dLat, dLng)
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// deltas returns b's latitude in radians and the latitude and longitude
// differences, in radians, from a point at latitude lat1 (radians) and
// longitude lng1 (degrees). Distance, the radius tests and the bounds
// below all start from them, so they see the same radians for the same
// two points.
func deltas(lat1, lng1 float64, b Point) (lat2, dLat, dLng float64) {
	lat2 = deg2rad(b.Lat)
	return lat2, lat2 - lat1, deg2rad(b.Lng - lng1)
}

// haversine returns the haversine term
// h = sin²(Δφ/2) + cos φ₁·cos φ₂·sin²(Δλ/2) from deltas' radians, with
// cosLat1 = cos φ₁. Distance and the radius tests share it, so they see
// the same h for the same two points.
func haversine(cosLat1, lat2, dLat, dLng float64) float64 {
	sinLat := math.Sin(dLat / 2)
	sinLng := math.Sin(dLng / 2)
	return sinLat*sinLat + cosLat1*math.Cos(lat2)*sinLng*sinLng
}

// Radius is a distance in metres prepared for exact radius tests
// (Centre.Within and Centre.AtLeast). It holds sin²(r/2R), the haversine
// term of a great circle r metres long, with a bracket around it: a
// point whose term lies below the bracket is nearer than r, one whose
// term lies above it is farther, and within it only Distance can tell.
// Preparing a radius costs a sine, so prepare each constant radius once.
// Use NewRadius; the zero Radius is not prepared.
type Radius struct {
	m      float64
	lo, hi float64
}

// radiusSlack is the relative half-width of a Radius's bracket. The
// rounding of Distance and of sin²(r/2R) moves a comparison by a few
// ulps, about 1e-15 relative; the bracket is a million times wider.
const radiusSlack = 1e-9

// Radii outside [minTestRadius, maxTestRadius] metres leave every test to
// Distance. Below, sin²(r/2R) nears the subnormal floats, where a
// relative bracket means nothing; above, asin's slope, which maps h to
// a distance, grows, and the bracket would have to widen with it.
const (
	minTestRadius = 1e-6
	maxTestRadius = 1e6
)

// NewRadius prepares a radius of r metres. A radius that is not positive,
// is below a micrometre or above 1,000 km, or is NaN leaves every test to
// Distance.
func NewRadius(r float64) Radius {
	if !(r >= minTestRadius && r <= maxTestRadius) {
		return Radius{m: r, lo: 0, hi: math.Inf(1)}
	}
	s := math.Sin(r / (2 * EarthRadiusMeters))
	h := s * s
	return Radius{m: r, lo: h * (1 - radiusSlack), hi: h * (1 + radiusSlack)}
}

// Centre is a point prepared as the centre of radius tests: it keeps the
// latitude in radians and its cosine, which the haversine term of every
// test against it reuses, and whether hBounds may bracket that term.
type Centre struct {
	p           Point
	lat, cosLat float64
	bracket     bool
}

// minBracketCos is the smallest centre cosine (a latitude within about
// 88.85° of the equator) for which hBounds brackets h. Above it, an
// absolute error of 1e-15 in a cosine bound is at most 5e-14 of the
// centre's cosine, far inside bracketSlack.
const minBracketCos = 0.02

// NewCentre prepares c as the centre of radius tests.
func NewCentre(c Point) Centre {
	lat := deg2rad(c.Lat)
	cos := math.Cos(lat)
	return Centre{p: c, lat: lat, cosLat: cos, bracket: math.Abs(c.Lat) <= 90 && cos >= minBracketCos}
}

// Within reports whether Distance(c, p) <= r, with the same answer for
// every input.
func (c Centre) Within(p Point, r Radius) bool {
	switch c.side(p, r) {
	case -1:
		return true
	case 1:
		return false
	}
	return Distance(c.p, p) <= r.m
}

// AtLeast reports whether Distance(c, p) >= r, with the same answer for
// every input.
func (c Centre) AtLeast(p Point, r Radius) bool {
	switch c.side(p, r) {
	case -1:
		return false
	case 1:
		return true
	}
	return Distance(c.p, p) >= r.m
}

// side returns -1 when p certainly lies nearer to c than r, +1 when it
// certainly lies farther, and 0 when only Distance can tell: for an h
// within r's bracket, a NaN h (an input is NaN or infinite) and a
// negative one, which rounding gives only for a latitude beyond ±90°.
// Distance maps the same h to 2R·asin(√h), which grows with h, and the
// bracket is far wider than the rounding on either side. A p equal to c
// has h exactly 0, below every prepared bracket, and Distance exactly 0.
//
// Before it computes h, side tries hBounds' trig-free bracket around it:
// when the bracket lies wholly below r.lo or wholly above r.hi, so does
// h, and side returns what the h test would.
func (c Centre) side(p Point, r Radius) int {
	lat2, dLat, dLng := deltas(c.lat, c.p.Lng, p)
	if lo, hi, ok := c.hBounds(p.Lat, dLat, dLng); ok {
		switch {
		case hi < r.lo:
			return -1
		case lo > r.hi:
			return 1
		}
	}
	switch h := haversine(c.cosLat, lat2, dLat, dLng); {
	case h >= 0 && h < r.lo:
		return -1
	case h > r.hi:
		return 1
	}
	return 0
}

// Margins of hBounds: a relative one on the bracket and an absolute one
// on the bounds of cos φ₂. See hBounds for what they cover.
const (
	bracketSlack = 1e-12
	cosSlack     = 1e-15
)

// hBounds returns lo ≤ h ≤ hi for the h that haversine computes from c to
// a point at latitude lat2deg degrees, dLat and dLng radians away, with
// no trigonometry. ok is false, and the bounds meaningless, unless the
// centre's cosine is at least minBracketCos, |lat2deg| ≤ 90° and
// |dLng| ≤ 90° (which also rule out NaN and infinite inputs). With
// a = dLat/2, b = dLng/2 and c₁ the centre's cosine:
//
//	a²(1−a²/3) + c₁·max(0, c₁−|Δφ|)·b²(1−b²/3) ≤ h ≤ a² + c₁·min(1, c₁+|Δφ|)·b²
//
// Why it holds:
//
//   - x²(1−x²/3) ≤ sin²x ≤ x² for every x: sin x ≥ x − x³/6 ≥ 0 for
//     0 ≤ x ≤ √6, and the left side is negative beyond √3. Under the
//     guards |a| ≤ π/2 and |b| ≤ π/4, so both left sides are positive.
//   - cos is 1-Lipschitz, so cos φ₂ lies within |Δφ| of cos φ₁, and
//     within [0, 1] for |φ₂| ≤ 90°.
//   - Rounding: math.Sin and math.Cos are within an ulp or two of the
//     exact values for their arguments, and h takes four products and a
//     sum, so the computed h lies within about 20 ulps (2e-15) of the
//     exact term of the same float radians; the bounds' own arithmetic
//     adds as much. bracketSlack, 1e-12 relative, covers both a
//     thousand times over. The two cosines' absolute errors and the
//     rounding of Δφ and of c₁ ± |Δφ| sum to about 1e-15, which
//     cosSlack covers; what it might miss, a few 1e-17, is under 1e-14
//     of the bound because c₁ ≥ minBracketCos, and bracketSlack absorbs
//     it.
//
// Its relative width is about 2|Δφ|/c₁ on the b² term plus a²/3 and
// b²/3, so at city latitudes it decides every point farther from the
// radius than about 0.004% at 180 m and 0.04% at 2 km.
func (c Centre) hBounds(lat2deg, dLat, dLng float64) (lo, hi float64, ok bool) {
	if !c.bracket || !(math.Abs(lat2deg) <= 90) || !(math.Abs(dLng) <= math.Pi/2) {
		return 0, 0, false
	}
	a, b := dLat/2, dLng/2
	a2, b2 := a*a, b*b
	da := math.Abs(dLat)
	cLo := max(0, c.cosLat-da-cosSlack)
	cHi := min(1, c.cosLat+da+cosSlack)
	lo = (a2*(1-a2/3) + c.cosLat*cLo*b2*(1-b2/3)) * (1 - bracketSlack)
	hi = (a2 + c.cosLat*cHi*b2) * (1 + bracketSlack)
	return lo, hi, true
}

// nearerScale is 4R² with a relative margin of 3e-9; CertainlyNearer
// compares y/(1−y)·nearerScale, the square of its bound, with d².
const nearerScale = 4 * EarthRadiusMeters * EarthRadiusMeters * (1 + 3e-9)

// CertainlyNearer reports whether Distance(a, b) < d, from a bound that
// takes no sine, cosine, square root, arcsine or division: true means
// Distance(a, b) lies below d by more than a relative 1e-9, so a caller
// that divides or scales it may round a few more times and still find
// it below its threshold; false means only that the bound cannot tell,
// and the caller must measure. It returns false unless both latitudes
// lie within ±90° and 0 < d with d² finite.
//
// The bound is 2R·√(y/(1−y)) with y = (Δφ² + Δλ²)/4, from the radians
// haversine uses. The haversine term is h ≤ y, as sin²x ≤ x² and both
// cosines lie in [0, 1]; Distance is 2R·asin(√h), and asin z ≤
// z/√(1−z²). Squared and multiplied out, the bound lies below d when
// y·(4R² + d²) ≤ d². The test uses 4R²·(1 + 3e-9) instead: that keeps
// the bound more than 1.4e-9 below d, which leaves the rounding of y, of
// the test and of Distance itself (a few 1e-15 relative) far inside the
// promised 1e-9. A y of 1 or more passes only for a d above 10¹⁵ m,
// where 4R² vanishes beside d²; Distance, at most πR, lies far below it.
func CertainlyNearer(a, b Point, d float64) bool {
	dd := d * d
	if !(math.Abs(a.Lat) <= 90 && math.Abs(b.Lat) <= 90 && d > 0 && dd <= math.MaxFloat64) {
		return false
	}
	_, dLat, dLng := deltas(deg2rad(a.Lat), a.Lng, b)
	y := (dLat*dLat + dLng*dLng) / 4
	return y*(nearerScale+dd) <= dd
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
