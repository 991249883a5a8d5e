package geo

import (
	"math"
	"math/rand"
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

// bracketCase returns, for the centre c and a point p, hBounds' bracket
// and the h that haversine computes from the same radians.
func bracketCase(c Centre, p Point) (lo, h, hi float64, ok bool) {
	lat2, dLat, dLng := deltas(c.lat, c.p.Lng, p)
	lo, hi, ok = c.hBounds(p.Lat, dLat, dLng)
	return lo, haversine(c.cosLat, lat2, dLat, dLng), hi, ok
}

// TestHaversineBracket requires hBounds to hold the h that haversine
// computes, to the bit, for points from a millimetre to 100 km away on
// random bearings and on the four where one term of h vanishes, around
// centres from the equator to 88°, and for points moved only in
// longitude, where the lower bound is tightest: there the bounds and h
// differ by less than their rounding, so a bracket without its margins
// fails here.
func TestHaversineBracket(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	checked := 0
	check := func(cc Centre, p Point) {
		t.Helper()
		lo, h, hi, ok := bracketCase(cc, p)
		if !ok {
			return
		}
		checked++
		if !(lo <= h && h <= hi) {
			t.Fatalf("centre %v, point %v: h = %v outside the bracket [%v, %v]", cc.p, p, h, lo, hi)
		}
	}
	for _, lat := range []float64{0, 0.5, -12.3, 39.9, -33.87, 51.48, 64.1, -80, 88} {
		c := Point{Lat: lat, Lng: 116.4}
		cc := NewCentre(c)
		for i := 0; i < 2000; i++ {
			d := math.Pow(10, -3+8*rng.Float64())
			brg := rng.Float64() * 360
			if i%5 == 0 {
				brg = float64(90 * (i / 5 % 4))
			}
			check(cc, Destination(c, brg, d))
			check(cc, Point{Lat: lat, Lng: c.Lng + (2*rng.Float64()-1)*d/1e5})
		}
	}
	if checked < 30000 {
		t.Fatalf("only %d points were bracketed", checked)
	}
}

// TestRadiusBracketDecides shows the bracket doing the work: at city
// latitudes, every point 0.1% inside or outside the radii the pipeline
// tests must be decided by hBounds alone, with no sine, cosine or
// arcsine, and side must agree.
func TestRadiusBracketDecides(t *testing.T) {
	for _, c := range []Point{{Lat: 39.9, Lng: 116.4}, {Lat: 0, Lng: 0}, {Lat: -33.87, Lng: 151.21}, {Lat: 51.48, Lng: -0.0001}, {Lat: 60.17, Lng: 24.94}} {
		cc := NewCentre(c)
		for _, r := range []float64{2, 20, 50, 180} {
			rr := NewRadius(r)
			for brg := 0.0; brg < 360; brg += 5 {
				for _, f := range []float64{0.999, 1.001} {
					p := Destination(c, brg, r*f)
					lo, _, hi, ok := bracketCase(cc, p)
					inside := f < 1
					if !ok || (inside && !(hi < rr.lo)) || (!inside && !(lo > rr.hi)) {
						t.Fatalf("a point %v m from %v (radius %v) was not decided by the bracket [%v, %v], radius bracket [%v, %v]", Distance(c, p), c, r, lo, hi, rr.lo, rr.hi)
					}
					want := 1
					if inside {
						want = -1
					}
					if got := cc.side(p, rr); got != want {
						t.Fatalf("side = %d, want %d", got, want)
					}
				}
			}
		}
	}
}

// TestBracketGuards pins the inputs hBounds leaves to the h test: a
// centre within about 1.15° of a pole, points beyond ±90° or more than
// 90° of longitude away, and NaN or infinite coordinates.
func TestBracketGuards(t *testing.T) {
	city := NewCentre(Point{Lat: 39.9, Lng: 116.4})
	for _, tc := range []struct {
		c Centre
		p Point
	}{
		{NewCentre(Point{Lat: 89, Lng: 0}), Point{Lat: 89.0001, Lng: 0}},
		{NewCentre(Point{Lat: 450, Lng: 0}), Point{Lat: 450, Lng: 0}},
		{NewCentre(Point{Lat: math.NaN(), Lng: 0}), Point{Lat: 0, Lng: 0}},
		{city, Point{Lat: 90.5, Lng: 116.4}},
		{city, Point{Lat: 39.9, Lng: -150}},
		{city, Point{Lat: math.NaN(), Lng: 116.4}},
		{city, Point{Lat: 39.9, Lng: math.Inf(1)}},
	} {
		if _, _, _, ok := bracketCase(tc.c, tc.p); ok {
			t.Errorf("centre %v, point %v: bracketed, want the h test", tc.c.p, tc.p)
		}
		requireRadiusTest(t, tc.c.p, tc.p, 50)
	}
	if _, _, _, ok := bracketCase(city, Point{Lat: 39.9001, Lng: 116.4}); !ok {
		t.Error("a city point was not bracketed")
	}
}

// TestCertainlyNearer requires a true answer to hold with its margin,
// Distance below (1 − 1e-9)·d, for steps from a millimetre to 100 km on
// random bearings, from the equator to the poles and across the
// antimeridian, at thresholds from half the distance to twice it, with
// the steps due north and south, where the bound is tightest, at
// thresholds within ulps of the margin. It also requires the bound to
// decide every step at city latitudes when the threshold is four times
// the distance, as for a vehicle at a quarter of the teleport speed.
func TestCertainlyNearer(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 20000; i++ {
		a := Point{Lat: (2*rng.Float64() - 1) * 90, Lng: (2*rng.Float64() - 1) * 180}
		brg := rng.Float64() * 360
		if i%4 == 0 {
			brg = float64(180 * (i / 4 % 2))
		}
		b := Destination(a, brg, math.Pow(10, -3+8*rng.Float64()))
		if !b.Valid() {
			continue
		}
		dist := Distance(a, b)
		for _, f := range []float64{0.5, 1 - 1e-9, 1, 1 + 1e-9, 1 + 2e-9, 1 + 3e-9, 1.001, 2} {
			for k := -2; k <= 2; k++ {
				d := nudge(dist*f, k)
				if CertainlyNearer(a, b, d) && !(dist < (1-1e-9)*d) {
					t.Fatalf("CertainlyNearer(%v, %v, %v) is true, but Distance is %v", a, b, d, dist)
				}
			}
		}
		if math.Abs(a.Lat) <= 60 && math.Abs(b.Lat) <= 60 && math.Abs(b.Lng-a.Lng) < 180 && !CertainlyNearer(a, b, 4*dist) {
			t.Fatalf("CertainlyNearer(%v, %v, 4·%v) could not tell", a, b, dist)
		}
	}
	p := Point{Lat: 39.9, Lng: 116.4}
	q := Point{Lat: 39.9001, Lng: 116.4}
	if !CertainlyNearer(p, p, 1e-9) || CertainlyNearer(p, p, 0) {
		t.Error("a point and itself: want true for any positive d and false for 0")
	}
	for _, tc := range []struct {
		a, b Point
		d    float64
	}{
		{p, q, -1}, {p, q, math.NaN()}, {p, q, math.Inf(1)}, {p, q, 1e200},
		{Point{Lat: 91, Lng: 116.4}, q, 1e6}, {p, Point{Lat: math.NaN(), Lng: 0}, 1e6},
		{p, Point{Lat: 39.9, Lng: math.Inf(1)}, 1e6}, {p, Point{Lat: 39.9, Lng: math.NaN()}, 1e6},
	} {
		if CertainlyNearer(tc.a, tc.b, tc.d) {
			t.Errorf("CertainlyNearer(%v, %v, %v) = true, want false", tc.a, tc.b, tc.d)
		}
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

// BenchmarkRadiusTest runs the stay window's test, Within at 50 m, from
// a city centre against points 0–100 m away, so about a quarter lie
// inside, plus the U-turn legs' AtLeast at 20 m.
func BenchmarkRadiusTest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := NewCentre(Point{Lat: 39.9, Lng: 116.4})
	pts := make([]Point, 1024)
	for i := range pts {
		pts[i] = Destination(c.p, rng.Float64()*360, rng.Float64()*100)
	}
	within, atLeast := NewRadius(50), NewRadius(20)
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		if c.Within(p, within) {
			n++
		}
		if c.AtLeast(p, atLeast) {
			n++
		}
	}
	if n == 0 {
		b.Fatal("no point tested true")
	}
}
