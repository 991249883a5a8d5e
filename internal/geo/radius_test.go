package geo

import (
	"math"
	"testing"
)

// requireRadiusTest fails unless c's radius tests against p answer as
// the Distance comparisons they replace.
func requireRadiusTest(t *testing.T, c Point, p Point, r float64) {
	t.Helper()
	d := Distance(c, p)
	cc, rr := NewCentre(c), NewRadius(r)
	if got, want := cc.Within(p, rr), d <= r; got != want {
		t.Fatalf("Within(%v, %v, %v) = %v, but Distance is %v", c, p, r, got, d)
	}
	if got, want := cc.AtLeast(p, rr), d >= r; got != want {
		t.Fatalf("AtLeast(%v, %v, %v) = %v, but Distance is %v", c, p, r, got, d)
	}
}

// nudge returns x moved by k ulps, up for k > 0 and down for k < 0.
func nudge(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestRadiusBoundary places points on the circle at the radii the
// pipeline tests (2, 20, 50 and 180 m), on bearings every 5° around five
// centres: Destination puts a point q about r from the centre, and the
// radius is then q's own Distance, exactly, and that distance moved by
// up to four ulps either way. Points moved by up to two ulps in latitude
// and longitude are tested against the same radii. Every answer must be
// the Distance comparison's. A point exactly at the radius must leave
// the decision to Distance, or the test would prove nothing about the
// bracket; points 1% inside and outside the circle must not.
func TestRadiusBoundary(t *testing.T) {
	centres := []Point{
		{Lat: 39.9, Lng: 116.4},
		{Lat: 0, Lng: 0},
		{Lat: -33.87, Lng: 151.21},
		{Lat: 64.1, Lng: -21.9},
		{Lat: 51.48, Lng: -0.0001},
	}
	fallbacks := 0
	for _, r := range []float64{2, 20, 50, 180} {
		for _, c := range centres {
			cc := NewCentre(c)
			for brg := 0.0; brg < 360; brg += 5 {
				q := Destination(c, brg, r)
				d := Distance(c, q)
				for k := -4; k <= 4; k++ {
					requireRadiusTest(t, c, q, nudge(d, k))
					for i := -2; i <= 2; i++ {
						for j := -2; j <= 2; j++ {
							requireRadiusTest(t, c, Point{Lat: nudge(q.Lat, i), Lng: nudge(q.Lng, j)}, nudge(d, k))
						}
					}
				}
				if cc.side(q, NewRadius(d)) != 0 {
					t.Fatalf("a point %v m from %v, on bearing %v, was decided without Distance at radius %v", d, c, brg, d)
				}
				fallbacks++
				for _, f := range []float64{0.99, 1.01} {
					p := Destination(c, brg, r*f)
					requireRadiusTest(t, c, p, r)
					if cc.side(p, NewRadius(r)) == 0 {
						t.Fatalf("a point %v m from %v left radius %v to Distance", Distance(c, p), c, r)
					}
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no point at the radius reached the Distance fallback")
	}
}

// TestRadiusUnprepared pins the radii that leave every test to Distance:
// not positive, NaN, below a micrometre and above 1,000 km.
func TestRadiusUnprepared(t *testing.T) {
	c := NewCentre(Point{Lat: 39.9, Lng: 116.4})
	p := Point{Lat: 39.9001, Lng: 116.4}
	for _, r := range []float64{0, math.Copysign(0, -1), -5, math.NaN(), math.Inf(1), math.Inf(-1), 1e-7, 2e6, 1e300} {
		if side := c.side(p, NewRadius(r)); side != 0 {
			t.Errorf("radius %v: side = %d, want 0 (Distance decides)", r, side)
		}
		requireRadiusTest(t, c.p, p, r)
	}
}

// FuzzRadiusTest compares Within and AtLeast with the Distance
// comparisons they replace, on a fuzzer-chosen centre, offset and
// radius, including ±0, negative, NaN, ±Inf and huge values. Each run
// tests the offset point, the point Destination puts at the radius on
// the fuzzer's bearing, the centre itself, and the first two again at
// their own distance as the radius.
func FuzzRadiusTest(f *testing.F) {
	f.Add(39.9, 116.4, 0.0001, -0.0002, 45.0, 20.0)
	f.Add(39.9, 116.4, 0.0, 0.0, 90.0, 2.0)
	f.Add(0.0, 0.0, 1e-5, 1e-5, 180.0, 50.0)
	f.Add(64.1, -21.9, -0.001, 0.003, 270.0, 180.0)
	f.Add(89.9999, 0.0, 0.0, 179.0, 10.0, 180.0)
	f.Add(39.9, 179.9999, 0.0, 0.0002, 90.0, 20.0)
	f.Add(39.9, 116.4, 0.0001, 0.0, 0.0, math.Copysign(0, -1))
	f.Add(39.9, 116.4, 0.0001, 0.0, 0.0, -20.0)
	f.Add(39.9, 116.4, 0.0001, 0.0, 0.0, math.NaN())
	f.Add(39.9, 116.4, 0.0001, 0.0, 0.0, math.Inf(1))
	f.Add(39.9, 116.4, 0.0001, 0.0, 0.0, math.Inf(-1))
	f.Add(39.9, 116.4, 80.0, 60.0, 0.0, 1e300)
	f.Add(math.NaN(), 116.4, 0.0, 0.0, 0.0, 20.0)
	f.Add(math.Inf(1), 116.4, 0.0, 0.0, 0.0, 20.0)
	f.Add(120.0, 116.4, -40.0, 10.0, 0.0, 50.0)
	f.Add(39.9, 116.4, 1e-300, 0.0, 0.0, 1e-6)
	f.Fuzz(func(t *testing.T, lat, lng, dLat, dLng, bearing, r float64) {
		c := Point{Lat: lat, Lng: lng}
		offset := Point{Lat: lat + dLat, Lng: lng + dLng}
		onCircle := Destination(c, bearing, r)
		for _, p := range []Point{offset, onCircle, c} {
			requireRadiusTest(t, c, p, r)
		}
		requireRadiusTest(t, c, offset, Distance(c, offset))
		requireRadiusTest(t, c, onCircle, Distance(c, onCircle))
	})
}
