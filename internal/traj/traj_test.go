package traj

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"stmaker/internal/geo"
)

var t0 = time.Date(2013, 11, 2, 9, 0, 0, 0, time.UTC)

// eastRaw builds a raw trajectory moving east at the given speed (km/h),
// one sample every intervalSec seconds, n samples total.
func eastRaw(speedKmh float64, intervalSec, n int) *Raw {
	r := &Raw{ID: "t"}
	p := geo.Point{Lat: 39.9, Lng: 116.4}
	step := speedKmh / 3.6 * float64(intervalSec)
	for i := 0; i < n; i++ {
		r.Samples = append(r.Samples, Sample{Pt: p, T: t0.Add(time.Duration(i*intervalSec) * time.Second)})
		p = geo.Destination(p, 90, step)
	}
	return r
}

func TestValidate(t *testing.T) {
	good := eastRaw(40, 5, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trajectory rejected: %v", err)
	}
	short := &Raw{ID: "s", Samples: good.Samples[:1]}
	if err := short.Validate(); err == nil {
		t.Error("single-sample trajectory accepted")
	}
	bad := eastRaw(40, 5, 3)
	bad.Samples[1].Pt.Lat = 200
	if err := bad.Validate(); err == nil {
		t.Error("invalid point accepted")
	}
	rev := eastRaw(40, 5, 3)
	rev.Samples[2].T = t0.Add(-time.Hour)
	if err := rev.Validate(); err == nil {
		t.Error("decreasing timestamps accepted")
	}
	zero := eastRaw(40, 5, 3)
	zero.Samples[0].T = time.Time{}
	if err := zero.Validate(); err == nil {
		t.Error("zero timestamp accepted")
	}
}

func TestDurationLengthSpeed(t *testing.T) {
	r := eastRaw(36, 10, 7) // 36 km/h = 10 m/s, 6 intervals of 10s = 600 m, 60 s
	if got := r.Duration(); got != 60*time.Second {
		t.Fatalf("Duration = %v", got)
	}
	if got := r.Length(); math.Abs(got-600) > 2 {
		t.Fatalf("Length = %v, want about 600", got)
	}
}

func TestEmptyRawAccessors(t *testing.T) {
	r := &Raw{}
	if !r.Start().IsZero() || !r.End().IsZero() {
		t.Error("empty Start/End should be zero")
	}
	if r.Duration() != 0 || r.Length() != 0 {
		t.Error("empty metrics should be zero")
	}
}

func makeSymbolic(t *testing.T) *Symbolic {
	t.Helper()
	r := eastRaw(36, 10, 11) // samples 0..10
	return &Symbolic{
		ID:  r.ID,
		Raw: r,
		Visits: []Visit{
			{Landmark: 5, T: r.Samples[0].T, RawIndex: 0},
			{Landmark: 9, T: r.Samples[4].T, RawIndex: 4},
			{Landmark: 2, T: r.Samples[10].T, RawIndex: 10},
		},
	}
}

func TestSymbolicSegments(t *testing.T) {
	s := makeSymbolic(t)
	if s.Len() != 3 || s.NumSegments() != 2 {
		t.Fatalf("Len=%d NumSegments=%d", s.Len(), s.NumSegments())
	}
	segs := s.Segments()
	if len(segs) != 2 {
		t.Fatalf("Segments len = %d", len(segs))
	}
	if segs[0].From.Landmark != 5 || segs[0].To.Landmark != 9 {
		t.Fatalf("segment 0 endpoints: %+v", segs[0])
	}
	if segs[1].Index != 1 {
		t.Fatalf("segment 1 index = %d", segs[1].Index)
	}
	if d := segs[0].To.T.Sub(segs[0].From.T); d != 40*time.Second {
		t.Fatalf("segment 0 duration = %v", d)
	}
	ids := s.LandmarkIDs()
	if len(ids) != 3 || ids[0] != 5 || ids[1] != 9 || ids[2] != 2 {
		t.Fatalf("LandmarkIDs = %v", ids)
	}
}

func TestSegmentRawSamples(t *testing.T) {
	s := makeSymbolic(t)
	sg := s.Segment(0)
	got := sg.RawSamples()
	if len(got) != 5 { // raw indices 0..4 inclusive
		t.Fatalf("RawSamples len = %d, want 5", len(got))
	}
	if got[0] != s.Raw.Samples[0] || got[4] != s.Raw.Samples[4] {
		t.Fatal("RawSamples boundary mismatch")
	}

	// Clamping out-of-range raw indices.
	s.Visits[1].RawIndex = 999
	if got := s.Segment(0).RawSamples(); len(got) != 11 {
		t.Fatalf("clamped RawSamples len = %d, want 11", len(got))
	}

	// Detached raw.
	s.Raw = nil
	if got := s.Segment(0).RawSamples(); got != nil {
		t.Fatalf("detached RawSamples = %v", got)
	}
}

func TestSegmentPanicsOutOfRange(t *testing.T) {
	s := makeSymbolic(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Segment out of range should panic")
		}
	}()
	s.Segment(2)
}

func TestNumSegmentsUncalibrated(t *testing.T) {
	s := &Symbolic{Visits: []Visit{{Landmark: 1}}}
	if s.NumSegments() != 0 {
		t.Fatalf("NumSegments = %d", s.NumSegments())
	}
}

func TestRawJSONRoundTrip(t *testing.T) {
	r := eastRaw(40, 5, 4)
	r.Object = "taxi-1"
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Raw
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != r.ID || back.Object != r.Object || len(back.Samples) != len(r.Samples) {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	for i := range back.Samples {
		if !back.Samples[i].T.Equal(r.Samples[i].T) || back.Samples[i].Pt != r.Samples[i].Pt {
			t.Fatalf("sample %d differs", i)
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}
