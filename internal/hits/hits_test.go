package hits

import (
	"math"
	"math/rand"
	"testing"
)

func TestPopularLandmarkScoresHighest(t *testing.T) {
	// Landmark 0 is visited by everyone, landmark 1 by half, landmark 2 by one.
	var visits []Visit
	for tr := 0; tr < 10; tr++ {
		visits = append(visits, Visit{Traveller: tr, Landmark: 0})
		if tr < 5 {
			visits = append(visits, Visit{Traveller: tr, Landmark: 1})
		}
	}
	visits = append(visits, Visit{Traveller: 0, Landmark: 2})

	s := Run(10, 3, visits, Options{})
	if !(s.LandmarkHub[0] > s.LandmarkHub[1] && s.LandmarkHub[1] > s.LandmarkHub[2]) {
		t.Fatalf("hub order wrong: %v", s.LandmarkHub)
	}
}

func TestScoresSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var visits []Visit
	for i := 0; i < 500; i++ {
		visits = append(visits, Visit{Traveller: rng.Intn(20), Landmark: rng.Intn(30)})
	}
	s := Run(20, 30, visits, Options{})
	var hubSum, authSum float64
	for _, x := range s.LandmarkHub {
		if x < 0 {
			t.Fatalf("negative hub score %v", x)
		}
		hubSum += x
	}
	for _, x := range s.TravellerAuthority {
		if x < 0 {
			t.Fatalf("negative authority score %v", x)
		}
		authSum += x
	}
	if math.Abs(hubSum-1) > 1e-9 || math.Abs(authSum-1) > 1e-9 {
		t.Fatalf("sums: hub=%v auth=%v", hubSum, authSum)
	}
}

func TestMultiplicityStrengthensLink(t *testing.T) {
	// Same single traveller; landmark 0 visited 10 times, landmark 1 once.
	var visits []Visit
	for i := 0; i < 10; i++ {
		visits = append(visits, Visit{Traveller: 0, Landmark: 0})
	}
	visits = append(visits, Visit{Traveller: 0, Landmark: 1})
	s := Run(1, 2, visits, Options{})
	if s.LandmarkHub[0] <= s.LandmarkHub[1] {
		t.Fatalf("multiplicity ignored: %v", s.LandmarkHub)
	}
}

func TestEmptyInputs(t *testing.T) {
	s := Run(0, 0, nil, Options{})
	if len(s.LandmarkHub) != 0 || len(s.TravellerAuthority) != 0 {
		t.Fatalf("empty: %+v", s)
	}
	s = Run(3, 4, nil, Options{})
	for _, x := range s.LandmarkHub {
		if x != 0 {
			// With no visits the hub vector stays at whatever normalization
			// produces; it must at least be finite and non-negative.
			if x < 0 || math.IsNaN(x) {
				t.Fatalf("bad score %v", x)
			}
		}
	}
}

func TestOutOfRangeVisitsIgnored(t *testing.T) {
	visits := []Visit{
		{Traveller: 0, Landmark: 0},
		{Traveller: -1, Landmark: 0},
		{Traveller: 0, Landmark: 99},
		{Traveller: 99, Landmark: 0},
	}
	s := Run(1, 1, visits, Options{})
	if math.Abs(s.LandmarkHub[0]-1) > 1e-9 {
		t.Fatalf("hub = %v, want 1", s.LandmarkHub[0])
	}
}

func TestConvergenceStopsEarly(t *testing.T) {
	visits := []Visit{{Traveller: 0, Landmark: 0}, {Traveller: 1, Landmark: 1}}
	s := Run(2, 2, visits, Options{MaxIterations: 1000, Tolerance: 1e-12})
	if s.Iterations >= 1000 {
		t.Fatalf("did not converge early: %d iterations", s.Iterations)
	}
}

func TestSymmetricGraphGivesEqualScores(t *testing.T) {
	// Two disconnected identical components must score identically.
	visits := []Visit{
		{Traveller: 0, Landmark: 0},
		{Traveller: 1, Landmark: 1},
	}
	s := Run(2, 2, visits, Options{})
	if math.Abs(s.LandmarkHub[0]-s.LandmarkHub[1]) > 1e-9 {
		t.Fatalf("asymmetric scores on symmetric graph: %v", s.LandmarkHub)
	}
}

func TestDefaultsApplied(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxIterations != 50 || o.Tolerance != 1e-9 {
		t.Fatalf("defaults = %+v", o)
	}
}

// TestRunIsBitDeterministic pins the summation order: significance feeds
// the partition cost and the committed golden summaries, so two runs over
// the same visits must agree to the last bit.
func TestRunIsBitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var visits []Visit
	for i := 0; i < 3000; i++ {
		visits = append(visits, Visit{Traveller: rng.Intn(200), Landmark: rng.Intn(150)})
	}
	want := Run(200, 150, visits, Options{})
	for run := 0; run < 10; run++ {
		got := Run(200, 150, visits, Options{})
		for i := range want.LandmarkHub {
			if math.Float64bits(got.LandmarkHub[i]) != math.Float64bits(want.LandmarkHub[i]) {
				t.Fatalf("run %d: hub[%d] = %v, first run gave %v", run, i, got.LandmarkHub[i], want.LandmarkHub[i])
			}
		}
	}
}
