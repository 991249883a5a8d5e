package experiments

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"stmaker/internal/feature"
)

var (
	worldOnce sync.Once
	sharedW   *World
	worldErr  error
)

// testWorld returns a shared small world; building it once keeps the
// experiment tests fast.
func testWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() {
		sharedW, worldErr = NewWorld(Options{
			CityRows: 8, CityCols: 8, TrainTrips: 150, TestTrips: 240, Seed: 5,
		})
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return sharedW
}

// ffColumn returns the FF series of one feature across a figure's rows,
// or nil for a key the figure does not carry.
func ffColumn(keys []string, rows [][]float64, key string) []float64 {
	j := slices.Index(keys, key)
	if j < 0 {
		return nil
	}
	col := make([]float64, len(rows))
	for i, row := range rows {
		col[i] = row[j]
	}
	return col
}

// dayNight averages a Fig. 8 column (twelve two-hour buckets) over the
// daytime buckets, 6:00–18:00, and over the night buckets: the headline
// contrast of Fig. 8.
func dayNight(col []float64) (day, night float64) {
	for b, ff := range col {
		if h := 2 * b; h >= 6 && h < 18 {
			day += ff
		} else {
			night += ff
		}
	}
	return day / 6, night / 6
}

func TestNewWorld(t *testing.T) {
	w := testWorld(t)
	if !w.Summarizer.Trained() {
		t.Fatal("summarizer untrained")
	}
	if len(w.Train) == 0 || len(w.Test) == 0 {
		t.Fatal("empty trip sets")
	}
	keys := w.FeatureKeys()
	if len(keys) != 6 || keys[3] != feature.KeySpeed {
		t.Fatalf("feature keys = %v", keys)
	}
}

func TestCaseStudy(t *testing.T) {
	w := testWorld(t)
	res, err := CaseStudy(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SummariesByK) != 3 {
		t.Fatalf("summaries = %d", len(res.SummariesByK))
	}
	if len(res.Events) == 0 {
		t.Fatal("chosen trip has no ground truth")
	}
	for k := 1; k <= 3; k++ {
		if res.SummariesByK[k] == "" {
			t.Fatalf("k=%d summary empty", k)
		}
	}
	// Finer granularity should not shorten the description.
	if len(res.SummariesByK[3]) < len(res.SummariesByK[1])/2 {
		t.Fatalf("k=3 summary much shorter than k=1:\n%s\n%s",
			res.SummariesByK[3], res.SummariesByK[1])
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "k=2") {
		t.Fatalf("Format output missing rows: %s", buf.String())
	}
}

func TestCompressionStudy(t *testing.T) {
	w := testWorld(t)
	res, err := CompressionStudy(w, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trips == 0 {
		t.Fatal("no trips")
	}
	if res.Ratio < 10 {
		t.Fatalf("compression ratio = %.1f, want the order-of-magnitude saving the paper claims", res.Ratio)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "compression ratio") {
		t.Fatal("Format missing ratio row")
	}
}

func TestFeatureFrequencyByTime(t *testing.T) {
	w := testWorld(t)
	res, err := FeatureFrequencyByTime(w)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for b := 0; b < 12; b++ {
		total += res.Count[b]
		for j := range res.Keys {
			if res.FF[b][j] < 0 || res.FF[b][j] > 1 {
				t.Fatalf("FF out of range: bucket %d key %s = %v", b, res.Keys[j], res.FF[b][j])
			}
		}
	}
	if total < len(w.Test)/2 {
		t.Fatalf("only %d/%d trips summarized", total, len(w.Test))
	}
	// The paper's headline contrast: daytime FF conspicuously above night
	// for the speed and stay features.
	for _, key := range []string{feature.KeySpeed, feature.KeyStayPoints} {
		day, night := dayNight(ffColumn(res.Keys, res.FF[:], key))
		if day <= night {
			t.Errorf("%s: day FF %.3f should exceed night FF %.3f", key, day, night)
		}
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "06:00-08:00") {
		t.Fatal("Format missing bucket rows")
	}
}

func TestLandmarkUsageBySignificance(t *testing.T) {
	w := testWorld(t)
	res, err := LandmarkUsageBySignificance(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mentions == 0 {
		t.Fatal("no landmark mentions")
	}
	var sum float64
	for _, u := range res.Usage {
		sum += u
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("usage fractions sum to %v", sum)
	}
	// Fig. 9's long tail: the top decile dominates, and the top 30%
	// accounts for a clear majority of mentions.
	maxD := 0
	for d := 1; d < 10; d++ {
		if res.Usage[d] > res.Usage[maxD] {
			maxD = d
		}
	}
	if maxD != 0 {
		t.Errorf("decile %d dominates instead of the top decile: %v", maxD, res.Usage)
	}
	if top3 := res.Usage[0] + res.Usage[1] + res.Usage[2]; top3 < 0.4 {
		t.Errorf("top-30%% usage = %.2f, want a clear majority share", top3)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "top   0- 10%") {
		t.Fatalf("Format rows missing: %s", buf.String())
	}
}

func TestFeatureWeightSweep(t *testing.T) {
	w := testWorld(t)
	res, err := FeatureWeightSweep(w, []float64{0.5, 1, 2, 4}, 80)
	if err != nil {
		t.Fatal(err)
	}
	spe := ffColumn(res.Keys, res.FF, feature.KeySpeed)
	if len(spe) != 4 {
		t.Fatalf("sweep rows = %d", len(spe))
	}
	// Fig. 10(a): FF of Spe rises with its weight.
	if !(spe[len(spe)-1] > spe[0]) {
		t.Errorf("Spe FF should rise with weight: %v", spe)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "w(Spe)") {
		t.Fatal("Format header missing")
	}
}

func TestPartitionSizeSweep(t *testing.T) {
	w := testWorld(t)
	res, err := PartitionSizeSweep(w, []int{1, 3, 5, 7}, 80)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 10(b)'s reproducible shape (see EXPERIMENTS.md): moving-feature
	// FF rises strongly with k, while routing-feature FF stops growing and
	// tails off once k passes the mid-range — per-summary FF is a union
	// bound over partitions, so the early rows rise for both classes, but
	// only moving features keep climbing.
	descs := w.Summarizer.Registry().Descriptors()
	classSum := func(row []float64, class feature.Class) float64 {
		var s float64
		for j, d := range descs {
			if d.Class == class {
				s += row[j]
			}
		}
		return s
	}
	moveFirst := classSum(res.FF[0], feature.Moving)
	moveLast := classSum(res.FF[len(res.FF)-1], feature.Moving)
	if moveLast <= moveFirst {
		t.Errorf("moving FF should rise with k: %v -> %v", moveFirst, moveLast)
	}
	routePrev := classSum(res.FF[len(res.FF)-2], feature.Routing)
	routeLast := classSum(res.FF[len(res.FF)-1], feature.Routing)
	if routeLast > routePrev+0.1 {
		t.Errorf("routing FF should plateau in the tail: %v -> %v", routePrev, routeLast)
	}
}

func TestUserStudy(t *testing.T) {
	w := testWorld(t)
	res, err := UserStudy(w, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 {
		t.Fatal("nothing graded")
	}
	var n int
	for _, c := range res.Counts {
		n += c
	}
	if n != res.Total {
		t.Fatalf("counts %v do not sum to total %d", res.Counts, res.Total)
	}
	// Fig. 11's shape: a clear majority of summaries give an intuitive
	// view (levels 3 and 4).
	if res.FractionAtLeast(3) < 0.6 {
		t.Errorf("levels 3+4 = %.2f, want a clear majority", res.FractionAtLeast(3))
	}
	if res.Fraction(4) < 0.3 {
		t.Errorf("level 4 = %.2f, want the modal grade region", res.Fraction(4))
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "level 4") {
		t.Fatal("Format rows missing")
	}
}

func TestTimingExperiments(t *testing.T) {
	w := testWorld(t)
	bySize, err := TimingByTrajectorySize(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bySize.Buckets) == 0 {
		t.Fatal("no size buckets")
	}
	for i, ms := range bySize.MeanMs {
		if ms <= 0 {
			t.Fatalf("bucket %d mean = %v", i, ms)
		}
	}
	// Buckets are sorted by |T|.
	for i := 1; i < len(bySize.Buckets); i++ {
		if bySize.Buckets[i] < bySize.Buckets[i-1] {
			t.Fatal("buckets unsorted")
		}
	}

	byK, err := TimingByPartitionSize(w, []int{1, 4, 7}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(byK.MeanMs) != 3 {
		t.Fatalf("byK rows = %d", len(byK.MeanMs))
	}
	for _, ms := range byK.MeanMs {
		if ms <= 0 {
			t.Fatal("non-positive timing")
		}
	}
	var buf bytes.Buffer
	bySize.Format(&buf)
	byK.Format(&buf)
	if !strings.Contains(buf.String(), "Fig. 12a") || !strings.Contains(buf.String(), "Fig. 12b") {
		t.Fatal("Format output missing")
	}
}

func TestFFHelper(t *testing.T) {
	if FF(nil, feature.KeySpeed) != 0 {
		t.Fatal("empty FF should be 0")
	}
}

func TestMatcherAccuracy(t *testing.T) {
	w := testWorld(t)
	res, err := MatcherAccuracy(w, 30, 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.GreedyAccuracy <= 0.5 || res.HMMAccuracy <= 0.5 {
		t.Fatalf("accuracies implausibly low: greedy=%.2f hmm=%.2f", res.GreedyAccuracy, res.HMMAccuracy)
	}
	// The joint decoder should not lose to the greedy matcher under noise.
	if res.HMMAccuracy < res.GreedyAccuracy-0.02 {
		t.Fatalf("HMM (%.3f) worse than greedy (%.3f)", res.HMMAccuracy, res.GreedyAccuracy)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "HMM") {
		t.Fatal("Format missing rows")
	}
	if _, err := MatcherAccuracy(w, 0, -5); err != nil {
		t.Fatalf("defaulted args should work: %v", err)
	}
}

func TestWorldWithSpeC(t *testing.T) {
	w, err := NewWorld(Options{CityRows: 6, CityCols: 6, TrainTrips: 60, TestTrips: 30, Seed: 9, IncludeSpeC: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := w.FeatureKeys()
	if len(keys) != 7 || keys[6] != feature.KeySpeedChange {
		t.Fatalf("keys = %v, want SpeC appended", keys)
	}
	// The seven-feature pipeline still summarizes.
	if _, err := w.Summarizer.Summarize(w.Test[0].Raw); err != nil {
		t.Fatalf("7-feature summarize: %v", err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.CityRows != 10 || o.CityCols != 10 || o.TrainTrips != 400 || o.TestTrips != 600 || o.Seed != 1 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestUserStudyFractionBounds(t *testing.T) {
	r := &UserStudyResult{Counts: [4]int{1, 2, 3, 4}, Total: 10}
	if r.Fraction(0) != 0 || r.Fraction(5) != 0 {
		t.Fatal("out-of-range grades should be 0")
	}
	if r.Fraction(4) != 0.4 || r.FractionAtLeast(1) != 1 {
		t.Fatalf("fractions wrong: %v %v", r.Fraction(4), r.FractionAtLeast(1))
	}
	empty := &UserStudyResult{}
	if empty.Fraction(4) != 0 || empty.FractionAtLeast(3) != 0 {
		t.Fatal("empty result fractions should be 0")
	}
}
