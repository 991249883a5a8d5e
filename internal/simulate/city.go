// Package simulate generates the synthetic substitutes for the paper's
// proprietary inputs (§VII-A): a graded city road network standing in for
// the commercial Beijing map, a taxi fleet with a time-of-day traffic model
// standing in for the real taxi trajectories, and LBSN-style check-ins for
// landmark-significance inference. Every generator is deterministic given
// its seed.
package simulate

import (
	"fmt"
	"math/rand"

	"stmaker/internal/geo"
	"stmaker/internal/landmark"
	"stmaker/internal/roadnet"
)

// CityOptions configures the synthetic city generator.
type CityOptions struct {
	// Rows and Cols set the street grid size (default 12×12 intersections).
	Rows, Cols int
	// BlockMeters is the spacing between grid streets (default 500).
	BlockMeters float64
	// Origin anchors the city's south-west corner (default central Beijing).
	Origin geo.Point
	// OneWayFraction is the fraction of local streets made one-way
	// (default 0.1).
	OneWayFraction float64
	// POIsPerCenter and ActivityCenters size the POI dataset (defaults 40
	// and max(4, Rows·Cols/12)).
	POIsPerCenter   int
	ActivityCenters int
	// Seed drives all randomness (default 1).
	Seed int64
}

func (o CityOptions) withDefaults() CityOptions {
	if o.Rows <= 1 {
		o.Rows = 12
	}
	if o.Cols <= 1 {
		o.Cols = 12
	}
	if o.BlockMeters <= 0 {
		o.BlockMeters = 500
	}
	if o.Origin == (geo.Point{}) {
		o.Origin = geo.Point{Lat: 39.80, Lng: 116.25}
	}
	switch {
	case o.OneWayFraction < 0:
		o.OneWayFraction = 0 // negative opts out of one-way streets entirely
	case o.OneWayFraction == 0: //lint:allow floateq -- zero means unset: negative opts out, exact zero takes the default
		o.OneWayFraction = 0.1
	case o.OneWayFraction > 1:
		o.OneWayFraction = 1
	}
	if o.POIsPerCenter <= 0 {
		o.POIsPerCenter = 40
	}
	if o.ActivityCenters <= 0 {
		o.ActivityCenters = maxInt(4, o.Rows*o.Cols/12)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// City is a generated world: the road network, its landmark set and a
// ready-made matcher.
type City struct {
	Graph     *roadnet.Graph
	Landmarks *landmark.Set
	Matcher   *roadnet.Matcher
	// Centers are the activity centres POIs cluster around; the fleet
	// biases trip endpoints toward them.
	Centers []geo.Point
	// nodeAt[r][c] is the grid intersection node.
	nodeAt [][]roadnet.NodeID
	opts   CityOptions
}

// NewCity generates a city: a street grid with two crossing express
// arterials, a highway ring along the border, graded side streets, a
// share of one-way roads, and POI clusters around activity centres.
func NewCity(opts CityOptions) *City {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	g := &roadnet.Graph{}

	nodeAt := make([][]roadnet.NodeID, opts.Rows)
	for r := 0; r < opts.Rows; r++ {
		nodeAt[r] = make([]roadnet.NodeID, opts.Cols)
		for c := 0; c < opts.Cols; c++ {
			p := geo.Destination(geo.Destination(opts.Origin, 90, float64(c)*opts.BlockMeters), 0, float64(r)*opts.BlockMeters)
			nodeAt[r][c] = g.AddNode(p, true)
		}
	}

	midR, midC := opts.Rows/2, opts.Cols/2
	addEdge := func(a, b roadnet.NodeID, name string, grade roadnet.Grade, dir roadnet.Direction) {
		if _, err := g.AddEdge(a, b, name, grade, 0, dir, nil); err != nil {
			panic(fmt.Sprintf("simulate: city edge: %v", err)) // unreachable by construction
		}
	}
	// classify returns the grade and name of the street along a row or
	// column: the border ring is a highway, the two central arterials are
	// express roads, every third street is a national road, and the rest
	// alternate between provincial streets and village lanes.
	classify := func(isRow bool, idx, maxIdx int) (roadnet.Grade, string) {
		kind := "Street"
		if !isRow {
			kind = "Avenue"
		}
		switch {
		case idx == 0 || idx == maxIdx:
			return roadnet.GradeHighway, fmt.Sprintf("Ring %s %d", kind, idx)
		case (isRow && idx == midR) || (!isRow && idx == midC):
			return roadnet.GradeExpress, fmt.Sprintf("Central %s", kind)
		case idx%3 == 0:
			return roadnet.GradeNational, fmt.Sprintf("National %s %d", kind, idx)
		case idx%2 == 0:
			return roadnet.GradeProvincial, fmt.Sprintf("%s %d", kind, idx)
		default:
			return roadnet.GradeVillage, fmt.Sprintf("%s Lane %d", kind, idx)
		}
	}

	for r := 0; r < opts.Rows; r++ {
		grade, name := classify(true, r, opts.Rows-1)
		for c := 0; c+1 < opts.Cols; c++ {
			dir := roadnet.TwoWay
			if grade >= roadnet.GradeProvincial && rng.Float64() < opts.OneWayFraction {
				dir = roadnet.OneWay
			}
			addEdge(nodeAt[r][c], nodeAt[r][c+1], name, grade, dir)
		}
	}
	for c := 0; c < opts.Cols; c++ {
		grade, name := classify(false, c, opts.Cols-1)
		for r := 0; r+1 < opts.Rows; r++ {
			dir := roadnet.TwoWay
			if grade >= roadnet.GradeProvincial && rng.Float64() < opts.OneWayFraction {
				dir = roadnet.OneWay
			}
			addEdge(nodeAt[r][c], nodeAt[r+1][c], name, grade, dir)
		}
	}

	// POI clusters around activity centres, heavier near the city centre.
	centerNames := []string{"Hospital", "University", "Shopping Mall", "Railway Station",
		"Park", "Stadium", "Museum", "Tech Campus", "Market", "Temple",
		"Convention Center", "Library", "Theatre", "Zoo", "Harbor", "Gardens"}
	var centers []geo.Point
	var pois []landmark.POI
	for i := 0; i < opts.ActivityCenters; i++ {
		r := rng.Intn(opts.Rows)
		c := rng.Intn(opts.Cols)
		centre := g.Node(nodeAt[r][c]).Pt
		centers = append(centers, centre)
		name := fmt.Sprintf("%s %d", centerNames[i%len(centerNames)], i/len(centerNames)+1)
		for k := 0; k < opts.POIsPerCenter; k++ {
			pois = append(pois, landmark.POI{
				Name: name,
				Pt:   geo.Destination(centre, rng.Float64()*360, rng.Float64()*80),
			})
		}
	}

	// Turning-point landmarks from the intersections, plus a mid-block
	// landmark on every street. The paper's Beijing landmark set is dense
	// (32k turning points + 17k POI clusters), so consecutive landmarks
	// bound a single piece of one road; mid-block landmarks give the
	// synthetic city the same property.
	var tps []landmark.Landmark
	for r := 0; r < opts.Rows; r++ {
		for c := 0; c < opts.Cols; c++ {
			tps = append(tps, landmark.Landmark{
				Name: fmt.Sprintf("Corner %d-%d", r, c),
				Pt:   g.Node(nodeAt[r][c]).Pt,
			})
		}
	}
	for i := range g.Edges() {
		e := g.Edge(roadnet.EdgeID(i))
		tps = append(tps, landmark.Landmark{
			Name: fmt.Sprintf("%s block %d", e.Name, i),
			Pt:   e.Geometry.PointAt(e.Length() / 2),
		})
	}
	lms := landmark.Build(tps, pois, landmark.BuildOptions{ClusterEpsMeters: 120, ClusterMinPts: 3})

	return &City{
		Graph:     g,
		Landmarks: lms,
		Matcher:   roadnet.NewMatcher(g),
		Centers:   centers,
		nodeAt:    nodeAt,
		opts:      opts,
	}
}

// RandomNode returns a uniformly random intersection.
func (c *City) RandomNode(rng *rand.Rand) roadnet.NodeID {
	return c.nodeAt[rng.Intn(c.opts.Rows)][rng.Intn(c.opts.Cols)]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
