package worldio

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

func TestWorldRoundTrip(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 5, Cols: 5, Seed: 3})
	city.Landmarks.All()[0].Significance = 0.77

	var buf bytes.Buffer
	if err := SaveWorld(&buf, city.Graph, city.Landmarks); err != nil {
		t.Fatal(err)
	}
	g, lms, err := LoadWorld(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != city.Graph.NumNodes() || g.NumEdges() != city.Graph.NumEdges() {
		t.Fatalf("graph shape: %d/%d nodes, %d/%d edges",
			g.NumNodes(), city.Graph.NumNodes(), g.NumEdges(), city.Graph.NumEdges())
	}
	if lms.Len() != city.Landmarks.Len() {
		t.Fatalf("landmarks: %d vs %d", lms.Len(), city.Landmarks.Len())
	}
	if lms.Get(0).Significance != 0.77 {
		t.Fatalf("significance lost: %v", lms.Get(0).Significance)
	}
	for i := 0; i < g.NumEdges(); i++ {
		a, b := g.Edges()[i], city.Graph.Edges()[i]
		if a.Name != b.Name || a.Grade != b.Grade || a.Direction != b.Direction || a.Width != b.Width {
			t.Fatalf("edge %d attrs differ", i)
		}
		if len(a.Geometry) != len(b.Geometry) {
			t.Fatalf("edge %d geometry differs", i)
		}
	}
	for i := 0; i < lms.Len(); i++ {
		a, b := lms.Get(i), city.Landmarks.Get(i)
		if a.Name != b.Name || a.Kind != b.Kind || geo.Distance(a.Pt, b.Pt) > 0.01 {
			t.Fatalf("landmark %d differs", i)
		}
	}
}

func TestTripsRoundTrip(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 5, Cols: 5, Seed: 3})
	fleet := simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 5, Seed: 4, FixedHour: 10})
	raws := make([]*traj.Raw, len(fleet))
	for i, tr := range fleet {
		raws[i] = tr.Raw
	}
	var buf bytes.Buffer
	if err := SaveTrips(&buf, raws); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrips(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(raws) {
		t.Fatalf("trips = %d, want %d", len(got), len(raws))
	}
	for i := range got {
		if got[i].ID != raws[i].ID || len(got[i].Samples) != len(raws[i].Samples) {
			t.Fatalf("trip %d differs", i)
		}
		if !got[i].Samples[0].T.Equal(raws[i].Samples[0].T) {
			t.Fatalf("trip %d timestamps differ", i)
		}
	}
}

func TestLoadWorldErrors(t *testing.T) {
	if _, _, err := LoadWorld(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := LoadWorld(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("future version accepted")
	}
	// An edge referencing a missing node fails.
	bad := `{"version":1,"nodes":[{"lat":1,"lng":1}],"edges":[{"from":0,"to":5,"grade":1,"width":10,"direction":1}]}`
	if _, _, err := LoadWorld(strings.NewReader(bad)); err == nil {
		t.Error("dangling edge accepted")
	}
}

func TestLoadTripsErrors(t *testing.T) {
	if _, err := LoadTrips(strings.NewReader("{")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadTrips(strings.NewReader(`{"version":2,"trips":[]}`)); err == nil {
		t.Error("future version accepted")
	}
	// Invalid trajectory (single sample) is rejected on load.
	one := &traj.Raw{ID: "x", Samples: []traj.Sample{{Pt: geo.Point{Lat: 1, Lng: 1}, T: time.Now()}}}
	var buf bytes.Buffer
	if err := SaveTrips(&buf, []*traj.Raw{one}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrips(&buf); err == nil {
		t.Error("invalid trajectory accepted")
	}
}
