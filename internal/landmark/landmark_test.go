package landmark

import (
	"math/rand"
	"testing"

	"stmaker/internal/geo"
	"stmaker/internal/hits"
)

var base = geo.Point{Lat: 39.9, Lng: 116.4}

func TestBuildClustersPOIs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tp := []Landmark{
		{Name: "", Pt: base},
		{Name: "corner", Pt: geo.Destination(base, 90, 1000)},
	}
	var pois []POI
	// Cluster A around 2km east: 10 POIs.
	ca := geo.Destination(base, 90, 2000)
	for i := 0; i < 10; i++ {
		pois = append(pois, POI{Name: "mall", Pt: geo.Destination(ca, rng.Float64()*360, rng.Float64()*50)})
	}
	// Cluster B around 2km north: 8 POIs.
	cb := geo.Destination(base, 0, 2000)
	for i := 0; i < 8; i++ {
		pois = append(pois, POI{Name: "park", Pt: geo.Destination(cb, rng.Float64()*360, rng.Float64()*50)})
	}
	// A lone noise POI far away.
	pois = append(pois, POI{Name: "lonely", Pt: geo.Destination(base, 180, 9000)})

	s := Build(tp, pois, BuildOptions{})
	if s.Len() != 4 { // 2 turning points + 2 clusters, noise dropped
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	// IDs are sequential and stable.
	for i := 0; i < s.Len(); i++ {
		if s.Get(i).ID != i {
			t.Fatalf("id mismatch at %d", i)
		}
	}
	// Unnamed turning point gets a generated name.
	if s.Get(0).Name == "" {
		t.Error("turning point name not generated")
	}
	if s.Get(0).Kind != KindTurningPoint {
		t.Error("turning point kind wrong")
	}
	// Cluster centres are near their blob centres and named after members.
	foundMall, foundPark := false, false
	for _, l := range s.All() {
		if l.Kind != KindPOI {
			continue
		}
		switch l.Name {
		case "mall":
			foundMall = geo.Distance(l.Pt, ca) < 60
		case "park":
			foundPark = geo.Distance(l.Pt, cb) < 60
		}
	}
	if !foundMall || !foundPark {
		t.Fatalf("cluster centres missing: mall=%v park=%v", foundMall, foundPark)
	}
}

func TestNearestAndWithin(t *testing.T) {
	s := NewSet([]Landmark{
		{Name: "a", Pt: base},
		{Name: "b", Pt: geo.Destination(base, 90, 400)},
		{Name: "c", Pt: geo.Destination(base, 90, 1200)},
	})
	l, ok := s.Nearest(geo.Destination(base, 90, 350), 500)
	if !ok || l.Name != "b" {
		t.Fatalf("Nearest = %+v ok=%v", l, ok)
	}
	if _, ok := s.Nearest(geo.Destination(base, 0, 5000), 100); ok {
		t.Fatal("Nearest should miss far points")
	}
	within := s.AppendWithin(nil, base, 500)
	if len(within) != 2 || s.Get(within[0].ID).Name != "a" || s.Get(within[1].ID).Name != "b" {
		t.Fatalf("AppendWithin = %+v", within)
	}
}

func TestInferSignificance(t *testing.T) {
	s := NewSet([]Landmark{
		{Name: "popular", Pt: base},
		{Name: "quiet", Pt: geo.Destination(base, 90, 500)},
	})
	var visits []hits.Visit
	for tr := 0; tr < 10; tr++ {
		visits = append(visits, hits.Visit{Traveller: tr, Landmark: 0})
	}
	visits = append(visits, hits.Visit{Traveller: 0, Landmark: 1})
	s.InferSignificance(10, visits, hits.Options{})
	if s.Get(0).Significance != 1 {
		t.Fatalf("max significance should be rescaled to 1, got %v", s.Get(0).Significance)
	}
	if s.Get(1).Significance >= s.Get(0).Significance {
		t.Fatalf("quiet landmark should rank below popular")
	}
	ranked := s.RankBySignificance()
	if ranked[0] != 0 || ranked[1] != 1 {
		t.Fatalf("RankBySignificance = %v", ranked)
	}
}

func TestInferSignificanceNoVisits(t *testing.T) {
	s := NewSet([]Landmark{{Name: "a", Pt: base}})
	s.landmarks[0].Significance = 0.4
	s.InferSignificance(5, nil, hits.Options{})
	if s.Get(0).Significance != 0.4 {
		t.Fatalf("zero-visit inference should leave scores untouched, got %v", s.Get(0).Significance)
	}
}

func TestSetSignificanceAndRankTies(t *testing.T) {
	s := NewSet([]Landmark{
		{Name: "a", Pt: base},
		{Name: "b", Pt: geo.Destination(base, 90, 100)},
		{Name: "c", Pt: geo.Destination(base, 90, 200)},
	})
	s.landmarks[0].Significance = 0.5
	s.landmarks[1].Significance = 0.9
	s.landmarks[2].Significance = 0.5
	ranked := s.RankBySignificance()
	if ranked[0] != 1 {
		t.Fatalf("ranked = %v", ranked)
	}
	// Tie between 0 and 2 broken by id.
	if ranked[1] != 0 || ranked[2] != 2 {
		t.Fatalf("tie-break wrong: %v", ranked)
	}
}

func TestKindString(t *testing.T) {
	if KindPOI.String() != "poi" || KindTurningPoint.String() != "turning-point" {
		t.Fatal("kind strings wrong")
	}
}

func TestEmptySet(t *testing.T) {
	s := NewSet(nil)
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, ok := s.Nearest(base, 1000); ok {
		t.Fatal("empty set Nearest should miss")
	}
	if got := s.RankBySignificance(); len(got) != 0 {
		t.Fatalf("empty rank = %v", got)
	}
}
