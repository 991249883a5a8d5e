package geo

import (
	"math"
	"testing"
)

// eastLine builds a polyline heading east from a fixed origin with the given
// per-segment lengths in metres.
func eastLine(segs ...float64) Polyline {
	p := Point{Lat: 39.9, Lng: 116.4}
	pl := Polyline{p}
	for _, s := range segs {
		p = Destination(p, 90, s)
		pl = append(pl, p)
	}
	return pl
}

func TestPolylineLength(t *testing.T) {
	pl := eastLine(100, 200, 300)
	if got := pl.Length(); !near(got, 600, 1) {
		t.Fatalf("Length = %v, want about 600", got)
	}
	if got := (Polyline{}).Length(); got != 0 {
		t.Fatalf("empty Length = %v", got)
	}
	if got := (Polyline{{Lat: 1, Lng: 1}}).Length(); got != 0 {
		t.Fatalf("single point Length = %v", got)
	}
}

func TestPolylinePointAt(t *testing.T) {
	pl := eastLine(100, 100)
	start := pl.PointAt(-5)
	if start != pl[0] {
		t.Errorf("PointAt(-5) = %v, want start", start)
	}
	end := pl.PointAt(1e9)
	if end != pl[2] {
		t.Errorf("PointAt(big) = %v, want end", end)
	}
	mid := pl.PointAt(100)
	if d := Distance(mid, pl[1]); d > 1 {
		t.Errorf("PointAt(100) is %vm from the middle vertex", d)
	}
	q := pl.PointAt(50)
	if d := Distance(pl[0], q); !near(d, 50, 1) {
		t.Errorf("PointAt(50): distance from start = %v", d)
	}
}

func TestPolylinePointAtEmpty(t *testing.T) {
	if got := (Polyline{}).PointAt(10); got != (Point{}) {
		t.Fatalf("empty PointAt = %v", got)
	}
}

func TestPolylineNearestPoint(t *testing.T) {
	pl := eastLine(1000, 1000)
	// 100 m north of the midpoint of the second segment.
	target := Destination(pl.PointAt(1500), 0, 100)
	d, seg, tt := pl.NearestPoint(target)
	if !near(d, 100, 2) || seg != 1 || !near(tt, 0.5, 0.05) {
		t.Fatalf("NearestPoint: d=%v seg=%d t=%v", d, seg, tt)
	}
	if along := Distance(pl[seg], Interpolate(pl[seg], pl[seg+1], tt)); !near(along, 500, 10) {
		t.Fatalf("the projection lies %v m along segment %d, want about 500", along, seg)
	}
}

func TestPolylineNearestPointDegenerate(t *testing.T) {
	d, _, _ := (Polyline{}).NearestPoint(Point{})
	if !math.IsInf(d, 1) {
		t.Fatalf("empty NearestPoint d = %v, want +Inf", d)
	}
	one := Polyline{{Lat: 39.9, Lng: 116.4}}
	p := Destination(one[0], 90, 250)
	d, seg, tt := one.NearestPoint(p)
	if !near(d, 250, 1) || seg != 0 || tt != 0 {
		t.Fatalf("single point NearestPoint: d=%v seg=%d t=%v", d, seg, tt)
	}
}

func TestPolylineResample(t *testing.T) {
	pl := eastLine(100, 100, 100)
	rs := pl.Resample(50)
	if rs[0] != pl[0] || rs[len(rs)-1] != pl[len(pl)-1] {
		t.Fatalf("Resample must keep endpoints")
	}
	// 300m at 50m spacing: points at 0,50,...,250 plus the endpoint = 7.
	if len(rs) != 7 {
		t.Fatalf("Resample count = %d, want 7", len(rs))
	}
	for i := 1; i < len(rs)-1; i++ {
		d := Distance(rs[i-1], rs[i])
		if !near(d, 50, 1) {
			t.Errorf("gap %d = %v, want about 50", i, d)
		}
	}
}

func TestPolylineResampleEdgeCases(t *testing.T) {
	pl := eastLine(100)
	if got := pl.Resample(0); len(got) != len(pl) {
		t.Errorf("spacing 0 should copy input")
	}
	same := Polyline{{Lat: 1, Lng: 1}, {Lat: 1, Lng: 1}}
	rs := same.Resample(10)
	if len(rs) != 2 {
		t.Errorf("zero-length polyline resample = %v", rs)
	}
}
