package sanitize

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/traj"
)

// plainDropTeleports is dropTeleports without geo.CertainlyNearer: it
// measures every step with geo.Distance. It is the oracle FuzzSanitize
// holds the certificate to.
func plainDropTeleports(in []traj.Sample, rep *Report) []traj.Sample {
	if len(in) == 0 {
		return in
	}
	out := in[:1]
	consecutive := 0
	for _, sm := range in[1:] {
		prev := out[len(out)-1]
		dt := sm.T.Sub(prev.T).Seconds()
		if geo.Distance(prev.Pt, sm.Pt)/dt*3.6 > MaxSpeedKmh {
			consecutive++
			rep.DroppedOutliers++
			if consecutive >= teleportAnchorResetAfter {
				out[len(out)-1] = sm
				consecutive = 0
			}
			continue
		}
		consecutive = 0
		out = append(out, sm)
	}
	return out
}

// referenceSanitize is Sanitize with plainDropTeleports in place of
// dropTeleports.
func referenceSanitize(s *Sanitizer, r *traj.Raw) (*traj.Raw, Report, error) {
	var rep Report
	if r == nil {
		return nil, rep, fmt.Errorf("%w (nil trajectory)", ErrUnusable)
	}
	rep.Input = len(r.Samples)
	kept := s.dropInvalid(r.Samples, &rep)
	kept = s.restoreOrder(kept, &rep)
	kept = s.dropDuplicates(kept, &rep)
	kept = plainDropTeleports(kept, &rep)
	kept = s.collapseJitter(kept, &rep)
	rep.Output = len(kept)
	if len(kept) < 2 {
		return nil, rep, fmt.Errorf("%w (trajectory %q: %d of %d samples usable)",
			ErrUnusable, r.ID, len(kept), rep.Input)
	}
	return &traj.Raw{ID: r.ID, Object: r.Object, Samples: kept}, rep, nil
}

// thresholdSeeds returns trajectories whose second fix lies, within a few
// ulps, at exactly the teleport threshold from the first: Destination
// puts it MaxSpeedKmh·dt away, due north or due east from a point on the
// equator at the prime meridian, where a coordinate's ulps are finest,
// and its latitude or longitude is then moved by -6 to +6 ulps. The
// gaps are 1 s, 1 ns and 23 ns. At nanosecond gaps the step is under
// 2 µm, so the bound's own slack vanishes and only its margin keeps a
// certificate from keeping a fix that the plain comparison drops: at
// 23 ns, one without the margin keeps the unmoved fix, which lies one
// ulp beyond the threshold. A third fix follows a minute later.
func thresholdSeeds() [][]byte {
	t0 := time.Date(2013, 11, 2, 6, 0, 0, 0, time.UTC)
	p0 := geo.Point{}
	var seeds [][]byte
	for _, gap := range []time.Duration{time.Second, time.Nanosecond, 23 * time.Nanosecond} {
		for _, north := range []bool{true, false} {
			brg := 90.0
			if north {
				brg = 0
			}
			q := geo.Destination(p0, brg, teleportMetresPerSecond*gap.Seconds())
			for k := -6; k <= 6; k++ {
				p := q
				if north {
					p.Lat = nudge(q.Lat, k)
				} else {
					p.Lng = nudge(q.Lng, k)
				}
				seeds = append(seeds, rawJSON(
					traj.Sample{Pt: p0, T: t0},
					traj.Sample{Pt: p, T: t0.Add(gap)},
					traj.Sample{Pt: geo.Destination(p0, brg, 500), T: t0.Add(gap + time.Minute)},
				))
			}
		}
	}
	return seeds
}

// nudge returns x moved by k ulps, up for k > 0 and down for k < 0.
func nudge(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

func rawJSON(samples ...traj.Sample) []byte {
	b, err := json.Marshal(traj.Raw{ID: "seed", Samples: samples})
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzSanitize asserts the sanitizer's core contract on arbitrary
// trajectories: it never panics, and whatever it returns either passes
// traj.Raw.Validate or is an explicit rejection error — never a
// half-repaired trajectory. It also requires every output sample, the
// report and the error to equal referenceSanitize's, whose teleport
// check measures every step, so dropTeleports' certificate changes
// nothing. Besides hand-written shapes, the seeds put fixes at exactly
// the teleport threshold (thresholdSeeds), 1 ns apart, at and around
// the poles and across the antimeridian.
func FuzzSanitize(f *testing.F) {
	seeds := []string{
		`{"id":"clean","samples":[{"pt":{"Lat":39.9,"Lng":116.3},"t":"2013-11-02T06:00:00Z"},{"pt":{"Lat":39.91,"Lng":116.31},"t":"2013-11-02T06:05:00Z"}]}`,
		`{"id":"dup","samples":[{"pt":{"Lat":1,"Lng":1},"t":"2013-11-02T06:00:00Z"},{"pt":{"Lat":1,"Lng":1},"t":"2013-11-02T06:00:00Z"},{"pt":{"Lat":1.001,"Lng":1},"t":"2013-11-02T06:01:00Z"}]}`,
		`{"id":"shuffled","samples":[{"pt":{"Lat":1,"Lng":1},"t":"2013-11-02T06:05:00Z"},{"pt":{"Lat":1.001,"Lng":1},"t":"2013-11-02T06:00:00Z"}]}`,
		`{"id":"teleport","samples":[{"pt":{"Lat":1,"Lng":1},"t":"2013-11-02T06:00:00Z"},{"pt":{"Lat":45,"Lng":90},"t":"2013-11-02T06:00:01Z"},{"pt":{"Lat":1.0001,"Lng":1},"t":"2013-11-02T06:00:02Z"}]}`,
		`{"id":"bad","samples":[{"pt":{"Lat":999,"Lng":-999},"t":"0001-01-01T00:00:00Z"}]}`,
		`{}`,
		`null`,
		`{"id":"ns","samples":[{"pt":{"Lat":39.9,"Lng":116.3},"t":"2013-11-02T06:00:00Z"},{"pt":{"Lat":39.9,"Lng":116.3},"t":"2013-11-02T06:00:00.000000001Z"},{"pt":{"Lat":39.9000001,"Lng":116.3},"t":"2013-11-02T06:00:00.000000002Z"},{"pt":{"Lat":39.9001,"Lng":116.3},"t":"2013-11-02T06:00:10Z"}]}`,
		`{"id":"pole","samples":[{"pt":{"Lat":89.9999,"Lng":10},"t":"2013-11-02T06:00:00Z"},{"pt":{"Lat":89.9999,"Lng":-170},"t":"2013-11-02T06:00:01Z"},{"pt":{"Lat":90,"Lng":0},"t":"2013-11-02T06:00:02Z"},{"pt":{"Lat":89.999,"Lng":45},"t":"2013-11-02T06:00:03Z"},{"pt":{"Lat":-90,"Lng":0},"t":"2013-11-02T06:00:04Z"}]}`,
		`{"id":"antimeridian","samples":[{"pt":{"Lat":39.9,"Lng":179.9999},"t":"2013-11-02T06:00:00Z"},{"pt":{"Lat":39.9,"Lng":-179.9999},"t":"2013-11-02T06:00:01Z"},{"pt":{"Lat":39.9,"Lng":180},"t":"2013-11-02T06:00:02Z"},{"pt":{"Lat":39.9,"Lng":-180},"t":"2013-11-02T06:00:03Z"},{"pt":{"Lat":39.9001,"Lng":-179.99},"t":"2013-11-02T06:00:05Z"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	for _, s := range thresholdSeeds() {
		f.Add(s)
	}
	san := New(Options{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r traj.Raw
		if err := json.Unmarshal(data, &r); err != nil {
			return // not a trajectory; decoding robustness is FuzzLoadTrips' job
		}
		out, rep, err := san.Sanitize(&r)
		wantOut, wantRep, wantErr := referenceSanitize(san, &r)
		if rep != wantRep || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("report %+v, error %v; the plain teleport check gives %+v, %v\ninput: %s", rep, err, wantRep, wantErr, data)
		}
		if err != nil {
			if out != nil {
				t.Fatalf("error with non-nil output: %v", err)
			}
			return
		}
		for i, sm := range out.Samples {
			w := wantOut.Samples[i]
			if math.Float64bits(sm.Pt.Lat) != math.Float64bits(w.Pt.Lat) || math.Float64bits(sm.Pt.Lng) != math.Float64bits(w.Pt.Lng) || !sm.T.Equal(w.T) {
				t.Fatalf("sample %d = %+v, the plain teleport check gives %+v\ninput: %s", i, sm, w, data)
			}
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("sanitized output fails Validate: %v\nreport: %+v\ninput: %s", err, rep, data)
		}
		if rep.Output != len(out.Samples) || rep.Input != len(r.Samples) {
			t.Fatalf("report counts inconsistent: %+v vs %d->%d", rep, len(r.Samples), len(out.Samples))
		}
	})
}
