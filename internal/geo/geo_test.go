package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// near reports whether a and b differ by at most tol.
func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDistanceZero(t *testing.T) {
	p := Point{Lat: 39.9, Lng: 116.4}
	if d := Distance(p, p); d != 0 {
		t.Fatalf("Distance(p,p) = %v, want 0", d)
	}
}

func TestDistanceKnown(t *testing.T) {
	// One degree of latitude is about 111.19 km on the sphere we use.
	a := Point{Lat: 39.0, Lng: 116.0}
	b := Point{Lat: 40.0, Lng: 116.0}
	d := Distance(a, b)
	want := 2 * math.Pi * EarthRadiusMeters / 360
	if !near(d, want, 1) {
		t.Fatalf("Distance one degree lat = %v, want about %v", d, want)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	a := Point{Lat: 39.9042, Lng: 116.4074}
	b := Point{Lat: 39.9139, Lng: 116.3917}
	if d1, d2 := Distance(a, b), Distance(b, a); !near(d1, d2, 1e-9) {
		t.Fatalf("Distance not symmetric: %v vs %v", d1, d2)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(aLat, aLng, bLat, bLng, cLat, cLng float64) bool {
		a := Point{Lat: clampLat(aLat), Lng: clampLng(aLng)}
		b := Point{Lat: clampLat(bLat), Lng: clampLng(bLng)}
		c := Point{Lat: clampLat(cLat), Lng: clampLng(cLng)}
		ab, bc, ac := Distance(a, b), Distance(b, c), Distance(a, c)
		return ac <= ab+bc+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clampLat(v float64) float64 { return math.Mod(math.Abs(v), 80) } // keep away from poles
func clampLng(v float64) float64 { return math.Mod(math.Abs(v), 170) }

func TestBearingCardinal(t *testing.T) {
	origin := Point{Lat: 39.9, Lng: 116.4}
	cases := []struct {
		name string
		to   Point
		want float64
	}{
		{"north", Point{Lat: 40.0, Lng: 116.4}, 0},
		{"south", Point{Lat: 39.8, Lng: 116.4}, 180},
		{"east", Point{Lat: 39.9, Lng: 116.5}, 90},
		{"west", Point{Lat: 39.9, Lng: 116.3}, 270},
	}
	for _, c := range cases {
		got := Bearing(origin, c.to)
		if AngleDiff(got, c.want) > 0.2 {
			t.Errorf("Bearing %s = %v, want about %v", c.name, got, c.want)
		}
	}
}

func TestBearingSelf(t *testing.T) {
	p := Point{Lat: 1, Lng: 2}
	if b := Bearing(p, p); b != 0 {
		t.Fatalf("Bearing(p,p) = %v, want 0", b)
	}
}

func TestAngleDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{0, 180, 180},
		{10, 350, 20},
		{350, 10, 20},
		{90, 270, 180},
		{45, 46, 1},
	}
	for _, c := range cases {
		if got := AngleDiff(c.a, c.b); !near(got, c.want, 1e-9) {
			t.Errorf("AngleDiff(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAngleDiffProperties(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 360), math.Mod(b, 360)
		d := AngleDiff(a, b)
		return d >= 0 && d <= 180 && near(d, AngleDiff(b, a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	p := Point{Lat: 39.9, Lng: 116.4}
	for _, brg := range []float64{0, 45, 90, 135, 180, 225, 270, 315} {
		for _, dist := range []float64{10, 100, 1000, 10000} {
			q := Destination(p, brg, dist)
			got := Distance(p, q)
			if !near(got, dist, dist*1e-6+0.01) {
				t.Errorf("Destination(%v, %v): distance = %v, want %v", brg, dist, got, dist)
			}
			gotBrg := Bearing(p, q)
			if AngleDiff(gotBrg, brg) > 0.01 {
				t.Errorf("Destination(%v, %v): bearing = %v", brg, dist, gotBrg)
			}
		}
	}
}

func TestDestinationZeroDistance(t *testing.T) {
	p := Point{Lat: 39.9, Lng: 116.4}
	if q := Destination(p, 123, 0); q != p {
		t.Fatalf("Destination with 0 dist = %v, want %v", q, p)
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	a := Point{Lat: 10, Lng: 20}
	b := Point{Lat: 30, Lng: 40}
	if got := Interpolate(a, b, 0); got != a {
		t.Errorf("Interpolate t=0 = %v, want %v", got, a)
	}
	if got := Interpolate(a, b, 1); got != b {
		t.Errorf("Interpolate t=1 = %v, want %v", got, b)
	}
	mid := Interpolate(a, b, 0.5)
	if !near(mid.Lat, 20, 1e-9) || !near(mid.Lng, 30, 1e-9) {
		t.Errorf("Interpolate t=0.5 = %v", mid)
	}
	if m := Midpoint(a, b); m != mid {
		t.Errorf("Midpoint = %v, want %v", m, mid)
	}
}

func TestPointSegmentDistance(t *testing.T) {
	a := Point{Lat: 39.9, Lng: 116.4}
	b := Destination(a, 90, 1000) // 1 km east

	// Point on the segment midway: zero distance, t = 0.5.
	mid := Destination(a, 90, 500)
	d, tt := PointSegmentDistance(mid, a, b)
	if d > 0.5 || !near(tt, 0.5, 0.01) {
		t.Errorf("midpoint: d=%v t=%v", d, tt)
	}

	// Point 100 m north of the midpoint: distance about 100, t about 0.5.
	off := Destination(mid, 0, 100)
	d, tt = PointSegmentDistance(off, a, b)
	if !near(d, 100, 1) || !near(tt, 0.5, 0.01) {
		t.Errorf("offset: d=%v t=%v", d, tt)
	}

	// Point before the start clamps to t=0.
	before := Destination(a, 270, 200)
	d, tt = PointSegmentDistance(before, a, b)
	if !near(d, 200, 1) || tt != 0 {
		t.Errorf("before: d=%v t=%v", d, tt)
	}

	// Point past the end clamps to t=1.
	after := Destination(b, 90, 300)
	d, tt = PointSegmentDistance(after, a, b)
	if !near(d, 300, 1) || tt != 1 {
		t.Errorf("after: d=%v t=%v", d, tt)
	}
}

func TestPointSegmentDistanceDegenerate(t *testing.T) {
	a := Point{Lat: 39.9, Lng: 116.4}
	p := Destination(a, 0, 50)
	d, tt := PointSegmentDistance(p, a, a)
	if !near(d, 50, 1) || tt != 0 {
		t.Fatalf("degenerate segment: d=%v t=%v", d, tt)
	}
}

func TestPointValid(t *testing.T) {
	if !(Point{Lat: 0, Lng: 0}).Valid() {
		t.Error("origin should be valid")
	}
	if (Point{Lat: 91, Lng: 0}).Valid() {
		t.Error("lat 91 should be invalid")
	}
	if (Point{Lat: 0, Lng: -181}).Valid() {
		t.Error("lng -181 should be invalid")
	}
	if (Point{Lat: math.NaN(), Lng: 0}).Valid() {
		t.Error("NaN lat should be invalid")
	}
}

func TestPointString(t *testing.T) {
	s := Point{Lat: 39.9042, Lng: 116.4074}.String()
	if s != "(39.904200, 116.407400)" {
		t.Fatalf("String = %q", s)
	}
}

func TestDestinationCrossesAntimeridian(t *testing.T) {
	p := Point{Lat: 10, Lng: 179.9}
	q := Destination(p, 90, 50000) // 50 km east crosses the antimeridian
	if q.Lng > 180 || q.Lng < -180 {
		t.Fatalf("longitude not normalized: %v", q)
	}
	if q.Lng > 0 {
		t.Fatalf("expected a negative (wrapped) longitude, got %v", q.Lng)
	}
	if d := Distance(p, q); math.Abs(d-50000) > 100 {
		t.Fatalf("wrapped distance = %v", d)
	}
}

func TestNormalizeLng(t *testing.T) {
	cases := []struct {
		name string
		in   float64
		want float64
	}{
		{"in range", 116.4, 116.4},
		{"zero", 0, 0},
		{"boundary +180", 180, 180},
		{"boundary -180", -180, -180},
		{"wrap east", 190, -170},
		{"wrap west", -190, 170},
		{"full turn", 360, 0},
		{"full turn negative", -360, 0},
		{"many turns", 360*3 + 45, 45},
		{"many negative turns", -360*5 - 45, -45},
		{"extreme positive", 1e18, math.Mod(1e18, 360)},
		{"extreme negative", -1e18, math.Mod(-1e18, 360)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := normalizeLng(tc.in)
			if got < -180 || got > 180 {
				t.Fatalf("normalizeLng(%v) = %v, outside [-180, 180]", tc.in, got)
			}
			// Allow an extra wrap for the extreme cases where math.Mod of the
			// expected value itself may sit outside (-180, 180].
			want := tc.want
			if want > 180 {
				want -= 360
			} else if want < -180 {
				want += 360
			}
			if !near(got, want, 1e-9) {
				t.Fatalf("normalizeLng(%v) = %v, want %v", tc.in, got, want)
			}
		})
	}
}

func TestNormalizeLngNonFinite(t *testing.T) {
	if got := normalizeLng(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("normalizeLng(NaN) = %v, want NaN", got)
	}
	if got := normalizeLng(math.Inf(1)); !math.IsInf(got, 1) {
		t.Fatalf("normalizeLng(+Inf) = %v, want +Inf", got)
	}
	if got := normalizeLng(math.Inf(-1)); !math.IsInf(got, -1) {
		t.Fatalf("normalizeLng(-Inf) = %v, want -Inf", got)
	}
}

func TestNormalizeLngQuick(t *testing.T) {
	inRange := func(lng float64) bool {
		if math.IsNaN(lng) || math.IsInf(lng, 0) {
			return true
		}
		got := normalizeLng(lng)
		return got >= -180 && got <= 180
	}
	if err := quick.Check(inRange, nil); err != nil {
		t.Fatal(err)
	}
}
