// Package spatial provides a uniform grid index over geographic points for
// fast nearest-neighbour and radius queries. It is the workhorse behind
// map-matching (§III-A), landmark lookup (Def. 2) and trajectory
// calibration (§II-A). The index is immutable once built, so concurrent
// queries — including the parallel corpus calibration in Train — need no
// locking.
package spatial

import (
	"cmp"
	"math"
	"slices"

	"stmaker/internal/geo"
)

// Item is one indexed point: an integer ID and a representative point.
// Several items may share an ID; the index does not deduplicate.
type Item struct {
	ID    int
	Point geo.Point
}

// Result is a single query hit.
type Result struct {
	ID       int
	Point    geo.Point
	Distance float64 // metres from the query point
}

// Index is a uniform grid over lat/lng space in compressed sparse row
// (CSR) form. The grid covers the bounding box of the items' cells, in
// row-major order: cell k holds items[offsets[k]:offsets[k+1]], in the
// order the items were given. The cells of one row are adjacent, so a
// query reads one contiguous run of items per grid row it touches. The
// zero value is an empty index.
type Index struct {
	cellDeg float64
	// rowOrigin and colOrigin are the absolute cell coordinates of the
	// grid's first row and column: an item at p lies in the cell
	// floor(p.Lat/cellDeg) - rowOrigin, floor(p.Lng/cellDeg) - colOrigin.
	rowOrigin, colOrigin float64
	rows, cols           int
	offsets              []int32
	items                []Item
	// invCell is 1/cellDeg, for the box's rows and columns.
	invCell float64
	// box is true when every query of up to maxBoxRadius metres may
	// use the box prefilter (see boxFactors), whose half-widths per
	// metre of radius are latPerMetre and lngPerMetre degrees.
	box                      bool
	latPerMetre, lngPerMetre float64
}

// minCellBudget and cellsPerItem cap the dense grid at
// max(minCellBudget, cellsPerItem·n) cells. A set whose bounding box
// needs more (a stray point far from the city, say) gets coarser cells
// instead of an offsets table sized by the empty space between its
// points. Queries stay exact; they only scan more items per cell.
const (
	minCellBudget = 1 << 16
	cellsPerItem  = 64
)

// NewIndex builds an index over items whose grid cells are approximately
// cellMeters on a side (250 m when cellMeters is not positive). Typical
// usage is a 200–500 m cell for a city-scale dataset. Items with a
// non-finite coordinate are never within any distance of a query point,
// so they are left out.
func NewIndex(cellMeters float64, items []Item) *Index {
	if cellMeters <= 0 {
		cellMeters = 250
	}
	// Degrees of latitude per cell; longitude cells use the same degree
	// size, which makes them narrower in metres away from the equator —
	// harmless for the query semantics, which only rely on cells being an
	// over-approximation grid.
	ix := &Index{cellDeg: cellMeters / geo.EarthRadiusMeters * 180 / math.Pi}
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	minLng, maxLng := math.Inf(1), math.Inf(-1)
	maxAbsLat, lngInRange := 0.0, true
	kept := 0
	for _, it := range items {
		p := it.Point
		if !finite(p) {
			continue
		}
		kept++
		minLat, maxLat = min(minLat, p.Lat), max(maxLat, p.Lat)
		minLng, maxLng = min(minLng, p.Lng), max(maxLng, p.Lng)
		maxAbsLat = max(maxAbsLat, math.Abs(p.Lat))
		lngInRange = lngInRange && math.Abs(p.Lng) <= 180
	}
	if kept == 0 {
		return ix
	}
	budget := float64(max(minCellBudget, cellsPerItem*kept))
	for {
		ix.rowOrigin = math.Floor(minLat / ix.cellDeg)
		ix.colOrigin = math.Floor(minLng / ix.cellDeg)
		rows := math.Floor(maxLat/ix.cellDeg) - ix.rowOrigin + 1
		cols := math.Floor(maxLng/ix.cellDeg) - ix.colOrigin + 1
		if rows*cols <= budget {
			ix.rows, ix.cols = int(rows), int(cols)
			break
		}
		ix.cellDeg *= 2
	}
	ix.invCell = 1 / ix.cellDeg
	if maxAbsLat <= maxBoxLat && lngInRange && ix.cellDeg >= minBoxCellDeg && ix.cellDeg <= maxBoxCellDeg {
		ix.box = true
		ix.latPerMetre, ix.lngPerMetre = boxFactors(maxAbsLat)
	}

	// Counting sort by cell. offsets[k] first counts cell k's items, then
	// holds the end of its run; filling each run back to front from the
	// last item leaves offsets[k] at the run's start and every cell in
	// insertion order.
	ix.offsets = make([]int32, ix.rows*ix.cols+1)
	for _, it := range items {
		if finite(it.Point) {
			ix.offsets[ix.cell(it.Point)]++
		}
	}
	var end int32
	for k := range ix.offsets[:len(ix.offsets)-1] {
		end += ix.offsets[k]
		ix.offsets[k] = end
	}
	ix.offsets[len(ix.offsets)-1] = end
	ix.items = make([]Item, kept)
	for i := len(items) - 1; i >= 0; i-- {
		if it := items[i]; finite(it.Point) {
			k := ix.cell(it.Point)
			ix.offsets[k]--
			ix.items[ix.offsets[k]] = it
		}
	}
	return ix
}

func finite(p geo.Point) bool {
	return !math.IsNaN(p.Lat) && !math.IsInf(p.Lat, 0) && !math.IsNaN(p.Lng) && !math.IsInf(p.Lng, 0)
}

// cell returns the grid cell of a point inside the grid.
func (ix *Index) cell(p geo.Point) int {
	row := int(math.Floor(p.Lat/ix.cellDeg) - ix.rowOrigin)
	col := int(math.Floor(p.Lng/ix.cellDeg) - ix.colOrigin)
	return row*ix.cols + col
}

// window is an inclusive range of grid rows and columns.
type window struct{ r0, r1, c0, c1 int }

// window returns the cells a query for radius metres around p visits
// when it cannot use the box: the cell of p widened by enough cells to
// cover the radius plus one, clipped to the grid. ok is false when that
// leaves nothing to visit.
func (ix *Index) window(p geo.Point, radius float64) (window, bool) {
	if len(ix.items) == 0 || !(radius >= 0) || !finite(p) {
		return window{}, false
	}
	degRadius := radius / geo.EarthRadiusMeters * 180 / math.Pi
	// Longitude degrees shrink with latitude; widen the column span.
	cosLat := math.Cos(p.Lat * math.Pi / 180)
	if cosLat < 0.01 {
		cosLat = 0.01
	}
	rowSpan := math.Ceil(degRadius/ix.cellDeg) + 1
	colSpan := math.Ceil(degRadius/(ix.cellDeg*cosLat)) + 1
	row := math.Floor(p.Lat/ix.cellDeg) - ix.rowOrigin
	col := math.Floor(p.Lng/ix.cellDeg) - ix.colOrigin
	return ix.clip(row-rowSpan, row+rowSpan, col-colSpan, col+colSpan)
}

// clip converts a range of grid coordinates to a window inside the grid.
func (ix *Index) clip(r0, r1, c0, c1 float64) (window, bool) {
	r0, r1 = max(r0, 0), min(r1, float64(ix.rows-1))
	c0, c1 = max(c0, 0), min(c1, float64(ix.cols-1))
	if !(r0 <= r1 && c0 <= c1) {
		return window{}, false
	}
	return window{int(r0), int(r1), int(c0), int(c1)}, true
}

// Slack on the box: a relative margin far above the few ulps by which
// the haversine's rounding can move a distance, and an absolute one
// (about a tenth of a millimetre) for radii near zero.
const (
	slackRel = 1e-9
	slackDeg = 1e-9
)

// The box's range. An index takes the box when every item lies within
// maxBoxLat degrees of the equator and the valid longitude range, and
// its cells are between minBoxCellDeg and maxBoxCellDeg degrees wide;
// a query takes it when its radius is at most maxBoxRadius metres and
// it lies in the valid range. Any other query walks its window
// unfiltered.
const (
	maxBoxLat     = 80
	maxBoxRadius  = 10_000
	minBoxCellDeg = 2e-5
	maxBoxCellDeg = 1
)

// boxFactors returns the half-widths, in degrees per metre of radius, of
// a latitude and a longitude band around any query point, outside which
// every item of an index whose items lie within maxAbsLat ≤ maxBoxLat
// degrees of the equator is provably farther than the radius, for any
// radius up to maxBoxRadius. So a query's box costs two products, with
// no trigonometry. With θ = radius/R:
//
//   - latitude: d ≥ R·|Δφ|, because a meridian is the shortest path
//     between two parallels, so a hit has |Δφ| ≤ θ.
//   - longitude: the haversine h = sin²(Δφ/2) + cos φ₁·cos φ₂·sin²(Δλ/2)
//     of a hit is at most sin²(θ/2). Let c be cos(maxAbsLat), less a
//     margin. An item has cos φ₂ ≥ c, and the query of a hit lies within
//     θ of the item's latitude, so cos φ₁ ≥ cos(|φ₂| + θ) ≥ c − θ (cos is
//     1-Lipschitz). So sin²(Δλ/2) ≤ sin²(θ/2)/(c·(c − θ)), and with
//     sin x ≤ x, sin(|Δλ|/2) ≤ q = (θ/2)·G with G = 1/√(c·(c − θ)).
//     As asin y ≤ y/√(1−y²), |Δλ| ≤ 2·asin(q) ≤ θ·G/√(1−q²). G and q
//     grow with θ, so G and q taken at maxBoxRadius give one factor F
//     with |Δλ| ≤ θ·F for every radius up to it.
//
// The inversion holds for |Δλ| ≤ 180°: with cells at most a degree
// wide, no item of a window around a query that has a hit lies farther
// from it in longitude. Both bands carry slackRel, and the query adds
// slackDeg, so the skip is conservative against the rounding of
// geo.Distance: the hits are exactly the items whose geo.Distance is at
// most radius.
//
// The bands contain every hit, and so does the window a query walks
// without them, the cell of p widened by the radius over cos φ₁ plus
// one cell: a spherical cap of radius θ reaches asin(sin θ/cos φ₁) of
// longitude from its centre, which exceeds θ/cos φ₁ by about
// (θ/cos φ₁)³/6, under 8e-6° here and so less than the extra cell of at
// least minBoxCellDeg. So a query that walks the box instead of that
// window meets the same hits in the same row-major order.
func boxFactors(maxAbsLat float64) (latPerMetre, lngPerMetre float64) {
	theta := maxBoxRadius / geo.EarthRadiusMeters * (1 + slackRel)
	c := math.Cos(maxAbsLat*math.Pi/180) - slackRel
	g := math.Sqrt((1 + 2*slackRel) / (c * (c - theta)))
	q := theta / 2 * g
	f := g / math.Sqrt(1-q*q) * (1 + slackRel)
	perMetre := 180 / math.Pi / geo.EarthRadiusMeters
	return perMetre * (1 + slackRel), perMetre * f
}

// ByDistance orders hits by ascending distance: AppendWithin sorts its
// hits with slices.SortFunc and ByDistance, and a caller that sorts the
// same hits in the same walk order the same way gets the same
// permutation. It yields the permutation sort.Slice gave with a
// less-than on Distance (both run the same pattern-defeating
// quicksort), which matters because equal distances are real: duplicate
// points, and a fix nearest the node two edges start at, which is
// exactly as far from both.
func ByDistance(a, b Result) int { return cmp.Compare(a.Distance, b.Distance) }

// AppendWithin appends every item within radius metres of p to dst,
// sorted by ascending distance, and returns the extended slice; dst's
// own elements are left alone. The hits, their Distance bits and their
// order are those of a plain walk over the window's cells in row-major
// order, items in insertion order, measuring each with geo.Distance. A
// prefilter skips the haversine only for items that provably lie beyond
// radius (see boxFactors). With a reused dst, a query allocates
// nothing.
func (ix *Index) AppendWithin(dst []Result, p geo.Point, radius float64) []Result {
	w, latHalf, lngHalf, ok := ix.band(p, radius)
	if !ok {
		return dst
	}
	n0 := len(dst)
	for row := w.r0; row <= w.r1; row++ {
		k := row * ix.cols
		for _, it := range ix.items[ix.offsets[k+w.c0]:ix.offsets[k+w.c1+1]] {
			if math.Abs(it.Point.Lat-p.Lat) > latHalf || math.Abs(it.Point.Lng-p.Lng) > lngHalf {
				continue
			}
			if d := geo.Distance(p, it.Point); d <= radius {
				dst = append(dst, Result{ID: it.ID, Point: it.Point, Distance: d})
			}
		}
	}
	slices.SortFunc(dst[n0:], ByDistance)
	return dst
}

// AppendBand appends to dst, unmeasured and in walk order, every item
// that AppendWithin(p, radius) measures: the items inside its box, a
// superset of its hits that holds every hit. Filtering the
// result by geo.Distance(p, it.Point) <= radius yields exactly
// AppendWithin's hits, with the same Distance bits, in the order of its
// walk before the sort. A caller that needs only some of the hits
// measures only those. With a reused dst, a query allocates nothing.
func (ix *Index) AppendBand(dst []Item, p geo.Point, radius float64) []Item {
	w, latHalf, lngHalf, ok := ix.band(p, radius)
	if !ok {
		return dst
	}
	for row := w.r0; row <= w.r1; row++ {
		k := row * ix.cols
		for _, it := range ix.items[ix.offsets[k+w.c0]:ix.offsets[k+w.c1+1]] {
			if math.Abs(it.Point.Lat-p.Lat) > latHalf || math.Abs(it.Point.Lng-p.Lng) > lngHalf {
				continue
			}
			dst = append(dst, it)
		}
	}
	return dst
}

// band returns the cells a query for radius metres around p walks and
// the half-widths of its box (see boxFactors): an item of those cells
// that lies outside the box is provably farther than radius. A query the
// box does not serve walks its whole window, with half-widths of +Inf.
// ok is false when no item can be a hit.
func (ix *Index) band(p geo.Point, radius float64) (w window, latHalf, lngHalf float64, ok bool) {
	if !ix.box || !(radius >= 0 && radius <= maxBoxRadius) || !(math.Abs(p.Lat) <= 90 && math.Abs(p.Lng) <= 180) {
		w, ok = ix.window(p, radius)
		return w, math.Inf(1), math.Inf(1), ok
	}
	latHalf = radius*ix.latPerMetre + slackDeg
	lngHalf = radius*ix.lngPerMetre + slackDeg
	// Walk the rows and columns the box overlaps. The extra slackDeg
	// keeps every item that passes the per-item test inside them despite
	// rounding in the box's edges and in the product by invCell, which
	// differs from the quotient cell uses by an ulp or two.
	lat, lng := latHalf+slackDeg, lngHalf+slackDeg
	w, ok = ix.clip(
		math.Floor((p.Lat-lat)*ix.invCell)-ix.rowOrigin, math.Floor((p.Lat+lat)*ix.invCell)-ix.rowOrigin,
		math.Floor((p.Lng-lng)*ix.invCell)-ix.colOrigin, math.Floor((p.Lng+lng)*ix.invCell)-ix.colOrigin)
	return w, latHalf, lngHalf, ok
}

// Nearest returns the closest item to p within maxRadius metres and true,
// or a zero Result and false if none exists.
func (ix *Index) Nearest(p geo.Point, maxRadius float64) (Result, bool) {
	best := Result{Distance: math.Inf(1)}
	found := false
	// Expand the search ring until a hit is found or the radius budget is
	// exhausted. Starting small keeps the common case cheap. A ring's
	// best may lie beyond its radius and still win the next ring, so the
	// rings walk their whole window without AppendWithin's prefilter.
	r := ix.cellDeg * geo.EarthRadiusMeters * math.Pi / 180 // one cell in metres
	for r < maxRadius*2 {
		if ix.closest(p, r, &best) {
			found = true
		}
		if found && best.Distance <= r {
			break
		}
		r *= 2
	}
	if !found || best.Distance > maxRadius {
		if ix.closest(p, maxRadius, &best) {
			found = true
		}
	}
	if !found || best.Distance > maxRadius {
		return Result{}, false
	}
	return best, true
}

// closest replaces *best with every item of the window around p for
// radius that is strictly nearer, and reports whether it replaced any.
func (ix *Index) closest(p geo.Point, radius float64, best *Result) bool {
	w, ok := ix.window(p, radius)
	if !ok {
		return false
	}
	found := false
	for row := w.r0; row <= w.r1; row++ {
		k := row * ix.cols
		for _, it := range ix.items[ix.offsets[k+w.c0]:ix.offsets[k+w.c1+1]] {
			if d := geo.Distance(p, it.Point); d < best.Distance {
				*best = Result{ID: it.ID, Point: it.Point, Distance: d}
				found = true
			}
		}
	}
	return found
}
