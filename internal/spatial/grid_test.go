package spatial

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"stmaker/internal/geo"
)

var origin = geo.Point{Lat: 39.9, Lng: 116.4}

// indexOf builds an index whose item i has ID i.
func indexOf(cellMeters float64, pts ...geo.Point) *Index {
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{ID: i, Point: p}
	}
	return NewIndex(cellMeters, items)
}

func TestWithinBasic(t *testing.T) {
	ix := indexOf(250,
		origin,
		geo.Destination(origin, 90, 100),
		geo.Destination(origin, 90, 500),
		geo.Destination(origin, 0, 2000),
	)
	if len(ix.items) != 4 {
		t.Fatalf("Len = %d", len(ix.items))
	}
	got := ix.AppendWithin(nil, origin, 600)
	if len(got) != 3 {
		t.Fatalf("AppendWithin(600) returned %d hits, want 3: %+v", len(got), got)
	}
	// Results are sorted by distance.
	for i := 1; i < len(got); i++ {
		if got[i].Distance < got[i-1].Distance {
			t.Fatalf("results not sorted: %+v", got)
		}
	}
	if got[0].ID != 0 || got[1].ID != 1 || got[2].ID != 2 {
		t.Fatalf("unexpected ids: %+v", got)
	}
}

func TestWithinNegativeRadius(t *testing.T) {
	ix := indexOf(250, origin)
	if got := ix.AppendWithin(nil, origin, -1); got != nil {
		t.Fatalf("AppendWithin(-1) = %v", got)
	}
	if got := ix.AppendWithin(nil, origin, math.NaN()); got != nil {
		t.Fatalf("AppendWithin(NaN) = %v", got)
	}
}

func TestNearest(t *testing.T) {
	a := geo.Destination(origin, 45, 300)
	b := geo.Destination(origin, 45, 900)
	ix := NewIndex(250, []Item{{ID: 10, Point: a}, {ID: 20, Point: b}})

	r, ok := ix.Nearest(origin, 5000)
	if !ok || r.ID != 10 {
		t.Fatalf("Nearest = %+v ok=%v, want id 10", r, ok)
	}
	if math.Abs(r.Distance-300) > 2 {
		t.Fatalf("Nearest distance = %v", r.Distance)
	}

	// Tight radius excludes everything.
	if _, ok := ix.Nearest(origin, 100); ok {
		t.Fatalf("Nearest within 100m should not exist")
	}
}

func TestNearestEmpty(t *testing.T) {
	ix := NewIndex(250, nil)
	if _, ok := ix.Nearest(origin, 1e6); ok {
		t.Fatal("Nearest on empty index should report none")
	}
	if got := ix.AppendWithin(nil, origin, 1e6); got != nil {
		t.Fatalf("AppendWithin on empty index = %v", got)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pts []geo.Point
	for i := 0; i < 500; i++ {
		pts = append(pts, geo.Destination(origin, rng.Float64()*360, rng.Float64()*5000))
	}
	ix := indexOf(200, pts...)
	for trial := 0; trial < 50; trial++ {
		q := geo.Destination(origin, rng.Float64()*360, rng.Float64()*5000)
		bestID, bestD := -1, math.Inf(1)
		for i, p := range pts {
			if d := geo.Distance(q, p); d < bestD {
				bestID, bestD = i, d
			}
		}
		r, ok := ix.Nearest(q, 20000)
		if !ok {
			t.Fatalf("trial %d: no hit", trial)
		}
		if r.ID != bestID && math.Abs(r.Distance-bestD) > 1e-6 {
			t.Fatalf("trial %d: got id %d (%.2fm), want id %d (%.2fm)",
				trial, r.ID, r.Distance, bestID, bestD)
		}
	}
}

func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var pts []geo.Point
	for i := 0; i < 300; i++ {
		pts = append(pts, geo.Destination(origin, rng.Float64()*360, rng.Float64()*4000))
	}
	ix := indexOf(300, pts...)
	for trial := 0; trial < 20; trial++ {
		q := geo.Destination(origin, rng.Float64()*360, rng.Float64()*4000)
		radius := 200 + rng.Float64()*1500
		want := map[int]bool{}
		for i, p := range pts {
			if geo.Distance(q, p) <= radius {
				want[i] = true
			}
		}
		got := ix.AppendWithin(nil, q, radius)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d hits, want %d", trial, len(got), len(want))
		}
		for _, r := range got {
			if !want[r.ID] {
				t.Fatalf("trial %d: unexpected hit %d", trial, r.ID)
			}
		}
	}
}

func TestDefaultCellSize(t *testing.T) {
	ix := indexOf(0, origin) // falls back to the default
	if _, ok := ix.Nearest(origin, 10); !ok {
		t.Fatal("default-cell index should find the inserted point")
	}
}

// referenceIndex is the map-backed grid that the CSR index replaced,
// kept as its oracle: AppendWithin must return exactly the hits,
// Distance bits and order of this walk, which visits the same cells
// row by row, each cell's items in insertion order, and sorts with
// sort.Slice.
type referenceIndex struct {
	cellDeg float64
	cells   map[[2]int32][]Item
}

func newReferenceIndex(cellDeg float64, items []Item) *referenceIndex {
	ref := &referenceIndex{cellDeg: cellDeg, cells: make(map[[2]int32][]Item)}
	for _, it := range items {
		k := ref.key(it.Point)
		ref.cells[k] = append(ref.cells[k], it)
	}
	return ref
}

func (ref *referenceIndex) key(p geo.Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.Lat / ref.cellDeg)), int32(math.Floor(p.Lng / ref.cellDeg))}
}

func (ref *referenceIndex) referenceWithin(p geo.Point, radius float64) []Result {
	out := ref.referenceWalk(p, radius)
	sort.Slice(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out
}

// referenceWalk returns the hits of referenceWithin in walk order,
// before the sort.
func (ref *referenceIndex) referenceWalk(p geo.Point, radius float64) []Result {
	if radius < 0 {
		return nil
	}
	var out []Result
	degRadius := radius / geo.EarthRadiusMeters * 180 / math.Pi
	cosLat := math.Cos(p.Lat * math.Pi / 180)
	if cosLat < 0.01 {
		cosLat = 0.01
	}
	rowSpan := int32(math.Ceil(degRadius/ref.cellDeg)) + 1
	colSpan := int32(math.Ceil(degRadius/(ref.cellDeg*cosLat))) + 1
	c := ref.key(p)
	for dr := -rowSpan; dr <= rowSpan; dr++ {
		for dc := -colSpan; dc <= colSpan; dc++ {
			for _, it := range ref.cells[[2]int32{c[0] + dr, c[1] + dc}] {
				if d := geo.Distance(p, it.Point); d <= radius {
					out = append(out, Result{ID: it.ID, Point: it.Point, Distance: d})
				}
			}
		}
	}
	return out
}

// requireSameHits fails unless got holds prefix followed by want: the
// same IDs, the same point and Distance bits, in the same order.
func requireSameHits(t *testing.T, label string, prefix, got, want []Result) {
	t.Helper()
	if len(got) != len(prefix)+len(want) {
		t.Fatalf("%s: %d hits after a %d-element dst, want %d", label, len(got)-len(prefix), len(prefix), len(want))
	}
	for i, w := range append(append([]Result(nil), prefix...), want...) {
		g := got[i]
		if g.ID != w.ID || math.Float64bits(g.Distance) != math.Float64bits(w.Distance) ||
			math.Float64bits(g.Point.Lat) != math.Float64bits(w.Point.Lat) ||
			math.Float64bits(g.Point.Lng) != math.Float64bits(w.Point.Lng) {
			t.Fatalf("%s: hit %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// randomItems scatters n items within spread metres of c. A third are
// exact copies of an earlier item under a new ID and a third mirror an
// earlier item's longitude about c, so queries at c meet exact
// distance ties.
func randomItems(rng *rand.Rand, c geo.Point, n int, spread float64) []Item {
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		var p geo.Point
		switch k := rng.Intn(3); {
		case k == 0 && i > 0:
			p = items[rng.Intn(i)].Point
		case k == 1 && i > 0:
			q := items[rng.Intn(i)].Point
			p = geo.Point{Lat: q.Lat, Lng: 2*c.Lng - q.Lng}
		default:
			p = geo.Destination(c, rng.Float64()*360, rng.Float64()*spread)
		}
		items = append(items, Item{ID: i, Point: p})
	}
	return items
}

// checkAgainstReference queries ix and the reference at c and at a few
// points around it, appending to a non-empty dst. Both AppendWithin and
// AppendBand are checked: the band, measured and cut at radius, must
// hold the reference's hits in the reference's walk order.
func checkAgainstReference(t *testing.T, rng *rand.Rand, ix *Index, items []Item, c geo.Point, radius float64) {
	t.Helper()
	ref := newReferenceIndex(ix.cellDeg, items)
	prefix := []Result{{ID: -7, Point: c, Distance: 12.5}}
	bandPrefix := []Item{{ID: -7, Point: c}}
	for q := 0; q < 4; q++ {
		p := c
		if q > 0 {
			p = geo.Destination(c, rng.Float64()*360, rng.Float64()*radius*1.5)
		}
		dst := append(make([]Result, 0, 4), prefix...)
		requireSameHits(t, "AppendWithin", prefix, ix.AppendWithin(dst, p, radius), ref.referenceWithin(p, radius))

		band := ix.AppendBand(append(make([]Item, 0, 4), bandPrefix...), p, radius)
		if len(band) == 0 || band[0] != bandPrefix[0] {
			t.Fatalf("AppendBand dropped or changed dst's own element: %+v", band)
		}
		var measured []Result
		for _, it := range band[1:] {
			if d := geo.Distance(p, it.Point); d <= radius {
				measured = append(measured, Result{ID: it.ID, Point: it.Point, Distance: d})
			}
		}
		requireSameHits(t, "AppendBand", nil, measured, ref.referenceWalk(p, radius))
	}
}

func TestAppendWithinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		c := geo.Point{Lat: (rng.Float64()*2 - 1) * 85, Lng: (rng.Float64()*2 - 1) * 179}
		cellMeters := 20 + rng.Float64()*580
		items := randomItems(rng, c, 1+rng.Intn(200), 100+rng.Float64()*3000)
		radius := rng.Float64() * 2000
		if trial%10 == 0 {
			radius = 0
		}
		checkAgainstReference(t, rng, NewIndex(cellMeters, items), items, c, radius)
	}
}

// TestPrefilterKeepsBoundaryItems puts items a hair inside and outside
// the radius on every side of the query, where the box is tightest: due
// north and south for the latitude band, and for the longitude band the
// two bearings at which the circle reaches farthest east and west,
// acos(tan θ·tan φ) from north, where it bulges beyond θ/cos φ. A band
// even a millionth too narrow drops one of the inside items, and at
// 10 km and 70° a band of θ/cos φ misses the bulge by a thousand times
// its slack.
func TestPrefilterKeepsBoundaryItems(t *testing.T) {
	for _, lat := range []float64{0, 0.3, -12, 45, 70, -85} {
		c := geo.Point{Lat: lat, Lng: 116.4}
		for _, radius := range []float64{0.5, 150, 2000, 10_000} {
			theta := radius / geo.EarthRadiusMeters
			widest := math.Acos(math.Tan(theta)*math.Tan(math.Abs(lat)*math.Pi/180)) * 180 / math.Pi
			if lat < 0 {
				widest = 180 - widest
			}
			var items []Item
			for _, b := range append(bearingsEvery(15), widest, 360-widest) {
				for _, f := range []float64{1 - 1e-12, 1 - 1e-14, 1, 1 + 1e-14, 1 + 1e-12} {
					items = append(items, Item{ID: len(items), Point: geo.Destination(c, b, radius*f)})
				}
			}
			ix := NewIndex(120, items)
			ref := newReferenceIndex(ix.cellDeg, items)
			want := ref.referenceWithin(c, radius)
			if len(want) == 0 || len(want) == len(items) {
				t.Fatalf("lat %v radius %v: %d of %d boundary items inside, want some on each side", lat, radius, len(want), len(items))
			}
			requireSameHits(t, "boundary", nil, ix.AppendWithin(nil, c, radius), want)
		}
	}
}

func bearingsEvery(step float64) []float64 {
	var out []float64
	for b := 0.0; b < 360; b += step {
		out = append(out, b)
	}
	return out
}

// prefilterBox is the per-query prefilter that boxFactors' per-index
// factors replaced, kept as the oracle that TestBoxBand measures the
// box against. It returns the half-widths, in degrees, of a latitude
// and a longitude band around p outside which every item is provably
// farther than radius; +Inf filters nothing. With θ = radius/R, the
// latitude band is θ (d ≥ R·|Δφ|), and the longitude band inverts
// sin²(Δλ/2) > sin²(θ/2)/(cos φ₁·cos(|φ₁|+θ)) with a sine, two cosines,
// a square root and an arcsine. It holds only while |φ₁|+θ < 90° and
// every item of the window, which spans colSpanDeg of longitude each
// side, lies less than 180° of longitude from p.
func prefilterBox(ix *Index, p geo.Point, radius float64) (latHalf, lngHalf float64) {
	latHalf, lngHalf = math.Inf(1), math.Inf(1)
	for _, it := range ix.items {
		if math.Abs(it.Point.Lat) > 90 || math.Abs(it.Point.Lng) > 180 {
			return latHalf, lngHalf
		}
	}
	if math.Abs(p.Lat) > 90 || math.Abs(p.Lng) > 180 {
		return latHalf, lngHalf
	}
	theta := radius / geo.EarthRadiusMeters
	latHalf = theta*180/math.Pi*(1+slackRel) + slackDeg
	cosLat := max(math.Cos(p.Lat*math.Pi/180), 0.01)
	colSpanDeg := (math.Ceil(radius/geo.EarthRadiusMeters*180/math.Pi/(ix.cellDeg*cosLat)) + 2) * ix.cellDeg
	if colSpanDeg >= 180 {
		return latHalf, lngHalf
	}
	phi1 := p.Lat * math.Pi / 180
	phiMax := math.Abs(phi1) + latHalf*math.Pi/180*(1+slackRel)
	if phiMax >= math.Pi/2 {
		return latHalf, lngHalf
	}
	s := math.Sin(theta / 2)
	k := s * s / (math.Cos(phi1) * math.Cos(phiMax)) * (1 + slackRel)
	if !(k < 1) {
		return latHalf, lngHalf
	}
	lngHalf = 2*math.Asin(math.Sqrt(k))*180/math.Pi*(1+slackRel) + slackDeg
	return latHalf, lngHalf
}

// prefilterBand returns the items the band walk listed before the box:
// the window around p, narrowed to the rows and columns that overlap
// prefilterBox's bands, and within them the items inside the bands.
func prefilterBand(ix *Index, p geo.Point, radius float64) []Item {
	w, ok := ix.window(p, radius)
	if !ok {
		return nil
	}
	latHalf, lngHalf := prefilterBox(ix, p, radius)
	r0, r1, c0, c1 := float64(w.r0), float64(w.r1), float64(w.c0), float64(w.c1)
	if !math.IsInf(latHalf, 1) {
		r0 = max(r0, math.Floor((p.Lat-latHalf-slackDeg)/ix.cellDeg)-ix.rowOrigin)
		r1 = min(r1, math.Floor((p.Lat+latHalf+slackDeg)/ix.cellDeg)-ix.rowOrigin)
	}
	if !math.IsInf(lngHalf, 1) {
		c0 = max(c0, math.Floor((p.Lng-lngHalf-slackDeg)/ix.cellDeg)-ix.colOrigin)
		c1 = min(c1, math.Floor((p.Lng+lngHalf+slackDeg)/ix.cellDeg)-ix.colOrigin)
	}
	if w, ok = ix.clip(r0, r1, c0, c1); !ok {
		return nil
	}
	var out []Item
	for row := w.r0; row <= w.r1; row++ {
		k := row * ix.cols
		for _, it := range ix.items[ix.offsets[k+w.c0]:ix.offsets[k+w.c1+1]] {
			if math.Abs(it.Point.Lat-p.Lat) <= latHalf && math.Abs(it.Point.Lng-p.Lng) <= lngHalf {
				out = append(out, it)
			}
		}
	}
	return out
}

// cityIndexes returns two city-scale indexes around origin like the
// pipeline's: 3,000 landmark-like points over 8 km in 300 m cells, and
// 20,000 edge samples over 8 km in 120 m cells.
func cityIndexes() (landmarks, edges *Index) {
	rng := rand.New(rand.NewSource(17))
	scatter := func(n int) []Item {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: i, Point: geo.Destination(origin, rng.Float64()*360, 8000*math.Sqrt(rng.Float64()))}
		}
		return items
	}
	return NewIndex(300, scatter(3000)), NewIndex(120, scatter(20000))
}

// TestBoxBand checks that city-scale indexes take the box and that the
// band they walk holds at most 1% more items than the per-query
// prefilterBox bands did, for radii from 1 m to 10 km; the few extra
// items are the price of one cosine per index instead of one per query.
func TestBoxBand(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	landmarks, edges := cityIndexes()
	for name, ix := range map[string]*Index{"landmarks": landmarks, "edges": edges} {
		if !ix.box {
			t.Fatalf("%s: a city-scale index does not take the box", name)
		}
		for _, radius := range []float64{1, 3, 10, 30, 100, 200, 300, 1000, 3000, 10_000} {
			var band []Item
			box, prefiltered := 0, 0
			for q := 0; q < 200; q++ {
				p := geo.Destination(origin, rng.Float64()*360, 6000*rng.Float64())
				band = ix.AppendBand(band[:0], p, radius)
				box += len(band)
				prefiltered += len(prefilterBand(ix, p, radius))
			}
			t.Logf("%s, radius %v m: %d items in the box, %d in prefilterBox's bands", name, radius, box, prefiltered)
			if box < prefiltered || float64(box) > 1.01*float64(prefiltered) {
				t.Errorf("%s, radius %v m: the box walks %d items where prefilterBox walked %d", name, radius, box, prefiltered)
			}
		}
	}
}

// TestBoxRange pins where the box applies: items within ±80° of latitude
// and the valid longitude range, cells from 2e-5° to 1° wide, radii up
// to 10 km and queries in the valid range. Outside it the query walks
// its window unfiltered, with half-widths of +Inf.
func TestBoxRange(t *testing.T) {
	at := func(lat, lng float64) []Item {
		return []Item{{ID: 0, Point: geo.Point{Lat: lat, Lng: lng}}, {ID: 1, Point: geo.Point{Lat: lat - 0.01, Lng: lng}}}
	}
	for _, tc := range []struct {
		name       string
		cellMeters float64
		items      []Item
		box        bool
	}{
		{"city", 300, at(39.9, 116.4), true},
		{"at 80°", 300, at(80, 116.4), true},
		{"at -80°", 300, at(-79.99, 116.4), true},
		{"beyond 80°", 300, at(80.0001, 116.4), false},
		{"beyond -80°", 300, at(-80.0001, 116.4), false},
		{"off the longitude range", 300, at(39.9, 180.5), false},
		{"2 m cells", 2, at(39.9, 116.4), false},
		{"3 m cells", 3, at(39.9, 116.4), true},
		{"1° cells", 111_000, at(39.9, 116.4), true},
		{"2° cells", 222_000, at(39.9, 116.4), false},
	} {
		if ix := NewIndex(tc.cellMeters, tc.items); ix.box != tc.box {
			t.Errorf("%s: box = %v, want %v", tc.name, ix.box, tc.box)
		}
	}
	ix := NewIndex(300, at(39.9, 116.4))
	for _, tc := range []struct {
		p      geo.Point
		radius float64
		box    bool
	}{
		{origin, 10_000, true},
		{origin, 0, true},
		{origin, 10_000.001, false},
		{geo.Point{Lat: 90.5, Lng: 116.4}, 100, false},
		{geo.Point{Lat: 39.9, Lng: 181}, 100, false},
	} {
		_, latHalf, lngHalf, _ := ix.band(tc.p, tc.radius)
		if box := !math.IsInf(latHalf, 1) && !math.IsInf(lngHalf, 1); box != tc.box {
			t.Errorf("query %v, radius %v: box = %v, want %v", tc.p, tc.radius, box, tc.box)
		}
	}
}

// TestCoarsensSparseBoundingBox pins the cell budget: a point on the
// far side of the globe must not size a dense grid by the empty space in
// between, and queries over the coarser grid stay exact.
func TestCoarsensSparseBoundingBox(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randomItems(rng, origin, 100, 2000)
	items = append(items, Item{ID: 100, Point: geo.Point{Lat: -33.9, Lng: -70.6}})
	ix := NewIndex(120, items)
	if cells := ix.rows * ix.cols; cells > minCellBudget {
		t.Fatalf("%d cells for %d items, budget %d", cells, len(items), minCellBudget)
	}
	checkAgainstReference(t, rng, ix, items, origin, 500)
	if r, ok := ix.Nearest(geo.Point{Lat: -33.9, Lng: -70.61}, 2000); !ok || r.ID != 100 {
		t.Fatalf("Nearest to the stray point = %+v, %v", r, ok)
	}
}

func TestNonFiniteItemsNeverHit(t *testing.T) {
	ix := NewIndex(250, []Item{
		{ID: 0, Point: geo.Point{Lat: math.NaN(), Lng: origin.Lng}},
		{ID: 1, Point: origin},
		{ID: 2, Point: geo.Point{Lat: origin.Lat, Lng: math.Inf(1)}},
	})
	if len(ix.items) != 1 {
		t.Fatalf("Len = %d, want 1", len(ix.items))
	}
	if got := ix.AppendWithin(nil, origin, 1e5); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("hits = %+v, want only item 1", got)
	}
	if got := ix.AppendWithin(nil, geo.Point{Lat: math.NaN(), Lng: 0}, 1e5); got != nil {
		t.Fatalf("NaN query hits = %+v", got)
	}
}

func TestAppendWithinAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := NewIndex(120, randomItems(rng, origin, 2000, 3000))
	buf := ix.AppendWithin(nil, origin, 2000) // grow once
	if len(buf) == 0 {
		t.Fatal("no hits to sort")
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = ix.AppendWithin(buf[:0], origin, 2000)
	})
	if allocs != 0 {
		t.Fatalf("warm AppendWithin allocates %v times per query", allocs)
	}
	band := ix.AppendBand(nil, origin, 2000)
	allocs = testing.AllocsPerRun(100, func() {
		band = ix.AppendBand(band[:0], origin, 2000)
	})
	if allocs != 0 {
		t.Fatalf("warm AppendBand allocates %v times per query", allocs)
	}
}

// FuzzWithinEquivalence checks AppendWithin and AppendBand against the
// reference walk on fuzzer-chosen sets: centre, cell size, item count
// and radius.
func FuzzWithinEquivalence(f *testing.F) {
	f.Add(int64(1), 39.9, 116.4, 120.0, uint8(50), 210.0)
	f.Add(int64(2), -84.9, 179.9, 300.0, uint8(200), 1999.0)
	f.Add(int64(3), 0.0, -0.001, 20.0, uint8(10), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, lat, lng, cellMeters float64, n uint8, radius float64) {
		if !finite(geo.Point{Lat: lat, Lng: lng}) || math.IsNaN(cellMeters) || math.IsNaN(radius) {
			t.Skip()
		}
		c := geo.Point{Lat: math.Mod(lat, 85), Lng: math.Mod(lng, 180)}
		cellMeters = 10 + math.Mod(math.Abs(cellMeters), 1000)
		radius = math.Mod(math.Abs(radius), 2000)
		if math.IsNaN(cellMeters) || math.IsNaN(radius) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		items := randomItems(rng, c, int(n)+1, 50+rng.Float64()*3000)
		checkAgainstReference(t, rng, NewIndex(cellMeters, items), items, c, radius)
	})
}

// BenchmarkAppendWithin queries city-scale landmark and edge indexes
// (cityIndexes) at 100 and 200 m, as calibration and matching do, from
// 1,024 points within 6 km of the centre.
func BenchmarkAppendWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	pts := make([]geo.Point, 1024)
	for i := range pts {
		pts[i] = geo.Destination(origin, rng.Float64()*360, 6000*rng.Float64())
	}
	landmarks, edges := cityIndexes()
	for _, bc := range []struct {
		name   string
		ix     *Index
		radius float64
	}{
		{"landmarks/100m", landmarks, 100},
		{"landmarks/200m", landmarks, 200},
		{"edges/100m", edges, 100},
		{"edges/200m", edges, 200},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var hits []Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hits = bc.ix.AppendWithin(hits[:0], pts[i%len(pts)], bc.radius)
			}
		})
	}
	b.Run("edges/band/180m", func(b *testing.B) {
		var band []Item
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			band = edges.AppendBand(band[:0], pts[i%len(pts)], 180)
		}
	})
}
