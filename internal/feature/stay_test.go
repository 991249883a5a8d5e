package feature

import (
	"math"
	"testing"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

// plainStays is the oracle of StayPoints.Detect: grow a window from every
// anchor sample while each next sample lies within maxR of the anchor,
// measured with geo.Distance, and keep it when it holds more than one
// sample and ends at least minD after the anchor.
func plainStays(samples []traj.Sample, maxR float64, minD time.Duration) []Stay {
	var stays []Stay
	for i := 0; i < len(samples); {
		j := i
		for j+1 < len(samples) && geo.Distance(samples[i].Pt, samples[j+1].Pt) <= maxR {
			j++
		}
		if dwell := samples[j].T.Sub(samples[i].T); j > i && dwell >= minD {
			var lat, lng float64
			for k := i; k <= j; k++ {
				lat += samples[k].Pt.Lat
				lng += samples[k].Pt.Lng
			}
			n := float64(j - i + 1)
			stays = append(stays, Stay{Center: geo.Point{Lat: lat / n, Lng: lng / n}, Start: samples[i].T, Duration: dwell})
			i = j + 1
			continue
		}
		i++
	}
	return stays
}

// TestStayScanMatchesPlainScan checks the stay scan, which rules out an
// anchor by testing the first sample minD after it, against the plain
// window scan: every trip of the golden fleet (city seed 21, fleet seed
// 41) at 1, 5 and 15 s and its second half, each under the default
// thresholds and two others. Detect must return the oracle's stays to
// the bit and Extract their number.
func TestStayScanMatchesPlainScan(t *testing.T) {
	city := simulate.NewCity(simulate.CityOptions{Rows: 8, Cols: 8, BlockMeters: 500, Seed: 21})
	extractors := []StayPoints{NewStayPoints(), {MaxRadiusMeters: 20, MinDuration: 30 * time.Second}, {MaxRadiusMeters: 120, MinDuration: 3 * time.Minute}}
	stays := 0
	for _, iv := range []time.Duration{time.Second, 5 * time.Second, 15 * time.Second} {
		for _, trip := range simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 20, Seed: 41, FixedHour: -1, SampleInterval: iv}) {
			samples := trip.Raw.Samples
			for _, in := range [][]traj.Sample{samples, samples[len(samples)/2:]} {
				r := &traj.Raw{ID: trip.Raw.ID, Samples: in}
				seg := wholeSegment(r)
				for _, sp := range extractors {
					want := plainStays(in, sp.MaxRadiusMeters, sp.MinDuration)
					got := sp.Detect(in)
					if len(got) != len(want) {
						t.Fatalf("%s at %v (%d samples), radius %v: Detect found %d stays, the plain scan %d",
							trip.Raw.ID, iv, len(in), sp.MaxRadiusMeters, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i].Center.Lat) != math.Float64bits(want[i].Center.Lat) ||
							math.Float64bits(got[i].Center.Lng) != math.Float64bits(want[i].Center.Lng) ||
							!got[i].Start.Equal(want[i].Start) || got[i].Duration != want[i].Duration {
							t.Fatalf("%s at %v: stay %d is %+v, the plain scan's %+v", trip.Raw.ID, iv, i, got[i], want[i])
						}
					}
					if n := sp.Extract(seg, nil); n != float64(len(want)) {
						t.Fatalf("%s at %v: Extract = %v, the plain scan found %d", trip.Raw.ID, iv, n, len(want))
					}
					stays += len(want)
				}
			}
		}
	}
	if stays == 0 {
		t.Fatal("the fleet holds no stay; the test would compare nothing")
	}
	t.Logf("%d stays", stays)
}
