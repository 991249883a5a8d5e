package stmaker

import (
	"slices"
	"testing"
	"time"

	"stmaker/internal/sanitize"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

// TestMetamorphicInvariants pins three transformations of a trip that
// must not change what STMaker says about it, on the golden world and
// trips (greedy and HMM matching, k = 0 and 3):
//   - shifting every timestamp by the same amount leaves each summary's
//     text, part spans and feature keys unchanged (only the start times
//     of stays move, and those are not compared);
//   - renaming the trip leaves them unchanged too;
//   - sanitizing an already-sanitized trip repairs nothing and returns
//     the same samples.
func TestMetamorphicInvariants(t *testing.T) {
	sanitized := func(c *Config) { c.Sanitize = &sanitize.Options{} }
	city, greedy := newWorld(t, sanitized)
	_, hmm := newWorld(t, func(c *Config) { sanitized(c); c.UseHMMMatching = true })
	test := rawCorpus(simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: goldenNumTrips, Seed: goldenFleetSeed, FixedHour: -1,
	}))
	shifts := []time.Duration{time.Second, time.Hour, 24 * time.Hour, 7 * 24 * time.Hour}
	matchers := []struct {
		name string
		s    *Summarizer
	}{{"greedy", greedy}, {"hmm", hmm}}

	for _, r := range test {
		for _, m := range matchers {
			for _, k := range []int{0, 3} {
				want := mustJSON(t, goldenSummarize(m.s, m.name, r, k))
				for _, d := range shifts {
					shifted := &traj.Raw{ID: r.ID, Object: r.Object, Samples: slices.Clone(r.Samples)}
					for i := range shifted.Samples {
						shifted.Samples[i].T = shifted.Samples[i].T.Add(d)
					}
					if got := mustJSON(t, goldenSummarize(m.s, m.name, shifted, k)); got != want {
						t.Errorf("%s %s k=%d shifted by %v:\n got: %s\nwant: %s", r.ID, m.name, k, d, got, want)
					}
				}
				renamed := &traj.Raw{ID: r.ID + "-renamed", Object: r.Object, Samples: r.Samples}
				c := goldenSummarize(m.s, m.name, renamed, k)
				c.Trip = r.ID
				if got := mustJSON(t, c); got != want {
					t.Errorf("%s %s k=%d renamed:\n got: %s\nwant: %s", r.ID, m.name, k, got, want)
				}
			}
		}
	}

	san := sanitize.New(sanitize.Options{})
	for _, r := range test {
		once, _, err := san.Sanitize(r)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		twice, rep, err := san.Sanitize(once)
		if err != nil {
			t.Fatalf("%s: sanitizing again: %v", r.ID, err)
		}
		if rep.Repairs() != 0 {
			t.Errorf("%s: sanitizing a sanitized trip repaired it again: %v", r.ID, rep)
		}
		if !slices.EqualFunc(once.Samples, twice.Samples, func(a, b traj.Sample) bool {
			return a.Pt == b.Pt && a.T.Equal(b.T)
		}) {
			t.Errorf("%s: sanitizing a sanitized trip changed its samples", r.ID)
		}
	}
}
