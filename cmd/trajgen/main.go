// Command trajgen generates a synthetic world — a graded city road
// network, a landmark dataset with inferred significance, and taxi-fleet
// trajectory datasets — and writes them as JSON for cmd/stmaker.
//
// Usage:
//
//	trajgen [-rows 10] [-cols 10] [-train 400] [-test 100] [-seed 1] [-out .]
//	        [-origin lat,lng]
//
// It writes world.json, train.json and test.json into the -out
// directory. -origin anchors the city's south-west corner (default
// central Beijing) — generate at distinct origins to build
// non-overlapping regions for stmakerd's multi-region mode
// (docs/MULTI_REGION.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"stmaker/internal/geo"
	"stmaker/internal/hits"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
	"stmaker/internal/worldio"
)

func main() {
	var (
		rows   = flag.Int("rows", 10, "city grid rows")
		cols   = flag.Int("cols", 10, "city grid columns")
		train  = flag.Int("train", 400, "training trips (calm traffic)")
		test   = flag.Int("test", 100, "test trips (live traffic with anomalies)")
		seed   = flag.Int64("seed", 1, "random seed")
		out    = flag.String("out", ".", "output directory")
		origin = flag.String("origin", "", "city south-west corner as lat,lng (default central Beijing)")
	)
	flag.Parse()

	originPt, err := parseOrigin(*origin)
	if err != nil {
		fatal(err)
	}
	city := simulate.NewCity(simulate.CityOptions{Rows: *rows, Cols: *cols, Seed: *seed, Origin: originPt})
	visits := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: *seed + 1})
	city.Landmarks.InferSignificance(200, visits, hits.Options{})

	trainFleet := simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: *train, Seed: *seed + 2, FixedHour: -1, Calm: true,
	})
	testFleet := simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: *test, Seed: *seed + 3, FixedHour: -1,
	})

	if err := writeWorld(filepath.Join(*out, "world.json"), city); err != nil {
		fatal(err)
	}
	if err := writeTrips(filepath.Join(*out, "train.json"), trainFleet); err != nil {
		fatal(err)
	}
	if err := writeTrips(filepath.Join(*out, "test.json"), testFleet); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote world.json (%d nodes, %d edges, %d landmarks), train.json (%d trips), test.json (%d trips) to %s\n",
		city.Graph.NumNodes(), city.Graph.NumEdges(), city.Landmarks.Len(),
		len(trainFleet), len(testFleet), *out)
}

func writeWorld(path string, city *simulate.City) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := worldio.SaveWorld(f, city.Graph, city.Landmarks); err != nil {
		return err
	}
	return f.Close()
}

func writeTrips(path string, fleet []*simulate.Trip) error {
	raws := make([]*traj.Raw, len(fleet))
	for i, tr := range fleet {
		raws[i] = tr.Raw
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := worldio.SaveTrips(f, raws); err != nil {
		return err
	}
	return f.Close()
}

// parseOrigin parses "-origin lat,lng" into a geo.Point. Empty input
// returns the zero point, which NewCity replaces with its default
// (central Beijing).
func parseOrigin(s string) (geo.Point, error) {
	if s == "" {
		return geo.Point{}, nil
	}
	lat, lng, ok := strings.Cut(s, ",")
	if !ok {
		return geo.Point{}, fmt.Errorf("invalid -origin %q: want lat,lng", s)
	}
	latF, err := strconv.ParseFloat(strings.TrimSpace(lat), 64)
	if err != nil {
		return geo.Point{}, fmt.Errorf("invalid -origin latitude %q: %v", lat, err)
	}
	lngF, err := strconv.ParseFloat(strings.TrimSpace(lng), 64)
	if err != nil {
		return geo.Point{}, fmt.Errorf("invalid -origin longitude %q: %v", lng, err)
	}
	p := geo.Point{Lat: latF, Lng: lngF}
	if !p.Valid() {
		return geo.Point{}, fmt.Errorf("invalid -origin %v: out of range", p)
	}
	return p, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trajgen:", err)
	os.Exit(1)
}
