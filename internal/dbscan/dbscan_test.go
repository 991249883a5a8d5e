package dbscan

import (
	"math/rand"
	"testing"

	"stmaker/internal/geo"
)

var base = geo.Point{Lat: 39.9, Lng: 116.4}

// blob generates n points scattered within radius metres of centre.
func blob(rng *rand.Rand, centre geo.Point, n int, radius float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Destination(centre, rng.Float64()*360, rng.Float64()*radius)
	}
	return pts
}

func TestTwoBlobsAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c1 := base
	c2 := geo.Destination(base, 90, 5000)
	var pts []geo.Point
	pts = append(pts, blob(rng, c1, 40, 100)...)
	pts = append(pts, blob(rng, c2, 40, 100)...)
	lone := geo.Destination(base, 0, 20000)
	pts = append(pts, lone)

	r := Cluster(pts, 150, 5)
	if r.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", r.NumClusters)
	}
	if r.Labels[len(pts)-1] != Noise {
		t.Fatalf("lone point label = %d, want Noise", r.Labels[len(pts)-1])
	}
	// All blob-1 points share a label distinct from blob-2's.
	l1 := r.Labels[0]
	for i := 0; i < 40; i++ {
		if r.Labels[i] != l1 {
			t.Fatalf("blob1 point %d label = %d, want %d", i, r.Labels[i], l1)
		}
	}
	l2 := r.Labels[40]
	if l2 == l1 {
		t.Fatalf("blobs merged")
	}
	for i := 40; i < 80; i++ {
		if r.Labels[i] != l2 {
			t.Fatalf("blob2 point %d label = %d, want %d", i, r.Labels[i], l2)
		}
	}
}

func TestCentroids(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := blob(rng, base, 50, 80)
	r := Cluster(pts, 200, 3)
	if r.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", r.NumClusters)
	}
	cents := Centroids(pts, r)
	if len(cents) != 1 {
		t.Fatalf("Centroids len = %d", len(cents))
	}
	if d := geo.Distance(cents[0], base); d > 50 {
		t.Fatalf("centroid %v is %vm from blob centre", cents[0], d)
	}
	size := 0
	for _, lbl := range r.Labels {
		if lbl == 0 {
			size++
		}
	}
	if size != 50 {
		t.Fatalf("cluster size = %d, want 50", size)
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	r := Cluster(nil, 100, 3)
	if r.NumClusters != 0 || len(r.Labels) != 0 {
		t.Fatalf("empty input: %+v", r)
	}
	pts := []geo.Point{base}
	r = Cluster(pts, 0, 3) // eps <= 0: everything is noise
	if r.NumClusters != 0 || r.Labels[0] != Noise {
		t.Fatalf("eps=0: %+v", r)
	}
	r = Cluster(pts, 100, 0) // minPts <= 0: everything is noise
	if r.NumClusters != 0 {
		t.Fatalf("minPts=0: %+v", r)
	}
}

func TestSinglePointMinPtsOne(t *testing.T) {
	pts := []geo.Point{base}
	r := Cluster(pts, 100, 1)
	if r.NumClusters != 1 || r.Labels[0] != 0 {
		t.Fatalf("single point minPts=1: %+v", r)
	}
}

func TestBorderPointsJoinCluster(t *testing.T) {
	// A dense core with one border point reachable from the core but not
	// itself dense.
	var pts []geo.Point
	for i := 0; i < 6; i++ {
		pts = append(pts, geo.Destination(base, float64(i)*60, 10))
	}
	border := geo.Destination(base, 0, 90) // within 100m of the core only
	pts = append(pts, border)
	r := Cluster(pts, 100, 5)
	if r.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", r.NumClusters)
	}
	if r.Labels[len(pts)-1] == Noise {
		t.Fatalf("border point should be claimed by the cluster")
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := append(blob(rng, base, 30, 100), blob(rng, geo.Destination(base, 45, 3000), 30, 100)...)
	r1 := Cluster(pts, 150, 4)
	r2 := Cluster(pts, 150, 4)
	if r1.NumClusters != r2.NumClusters {
		t.Fatalf("nondeterministic cluster count")
	}
	for i := range r1.Labels {
		if r1.Labels[i] != r2.Labels[i] {
			t.Fatalf("nondeterministic label at %d", i)
		}
	}
}
