package experiments

import (
	"fmt"
	"io"

	"stmaker/internal/feature"
	"stmaker/internal/simulate"
	"stmaker/internal/summarize"
)

// FF is the paper's feature frequency: the fraction of summaries that
// mention a feature (§VII-C.2).
//
//	FF_f = #summaries containing f / #total summaries
func FF(summaries []*summarize.Summary, key string) float64 {
	if len(summaries) == 0 {
		return 0
	}
	var n int
	for _, s := range summaries {
		if s.MentionsFeature(key) {
			n++
		}
	}
	return float64(n) / float64(len(summaries))
}

// TimeBucketsResult reproduces Fig. 8: feature frequency of every feature
// across the twelve two-hour buckets of the day.
type TimeBucketsResult struct {
	// Keys are the feature keys (columns).
	Keys []string
	// FF[b][j] is the FF of feature Keys[j] in bucket b (hours 2b..2b+2).
	FF [12][]float64
	// Count[b] is the number of summaries in bucket b.
	Count [12]int
}

// FeatureFrequencyByTime summarizes the whole test set and groups the
// summaries into twelve two-hour categories by trip start time (Fig. 8).
func FeatureFrequencyByTime(w *World) (*TimeBucketsResult, error) {
	keys := w.FeatureKeys()
	byBucket := make([][]*summarize.Summary, 12)
	for _, trip := range w.Test {
		sum, err := w.Summarizer.Summarize(trip.Raw)
		if err != nil {
			continue
		}
		b := trip.Start.Hour() / 2
		byBucket[b] = append(byBucket[b], sum)
	}
	res := &TimeBucketsResult{Keys: keys}
	for b := 0; b < 12; b++ {
		res.Count[b] = len(byBucket[b])
		res.FF[b] = make([]float64, len(keys))
		for j, key := range keys {
			res.FF[b][j] = FF(byBucket[b], key)
		}
	}
	return res, nil
}

// Format writes the Fig. 8 series: one row per two-hour bucket.
func (r *TimeBucketsResult) Format(out io.Writer) {
	fmt.Fprintf(out, "Feature frequency by time of day (Fig. 8)\n")
	fmt.Fprintf(out, "  %-13s %5s", "bucket", "n")
	for _, k := range r.Keys {
		fmt.Fprintf(out, " %7s", k)
	}
	fmt.Fprintln(out)
	for b := 0; b < 12; b++ {
		fmt.Fprintf(out, "  %02d:00-%02d:00   %5d", b*2, b*2+2, r.Count[b])
		for j := range r.Keys {
			fmt.Fprintf(out, " %7.3f", r.FF[b][j])
		}
		fmt.Fprintln(out)
	}
}

// LandmarkUsageResult reproduces Fig. 9: how often each landmark
// significance decile appears in summaries.
type LandmarkUsageResult struct {
	// Usage[d] is the fraction of summary landmark mentions that fall in
	// significance decile d (0 = top 10%).
	Usage [10]float64
	// Mentions is the total number of landmark mentions counted.
	Mentions int
}

// LandmarkUsageBySignificance summarizes the test set, collects the
// landmarks mentioned as partition endpoints, and buckets them by
// significance decile of the full landmark set (Fig. 9).
func LandmarkUsageBySignificance(w *World) (*LandmarkUsageResult, error) {
	set := w.City.Landmarks
	ranked := set.RankBySignificance()
	decile := make(map[int]int, len(ranked))
	for pos, id := range ranked {
		d := pos * 10 / len(ranked)
		if d > 9 {
			d = 9
		}
		decile[id] = d
	}
	res := &LandmarkUsageResult{}
	for _, trip := range w.Test {
		sum, err := w.Summarizer.Summarize(trip.Raw)
		if err != nil {
			continue
		}
		for _, id := range sum.LandmarkIDs() {
			res.Usage[decile[id]]++
			res.Mentions++
		}
	}
	if res.Mentions > 0 {
		for d := range res.Usage {
			res.Usage[d] /= float64(res.Mentions)
		}
	}
	return res, nil
}

// Format writes the Fig. 9 series.
func (r *LandmarkUsageResult) Format(out io.Writer) {
	fmt.Fprintf(out, "Landmark usage by significance group (Fig. 9) — %d mentions\n", r.Mentions)
	for d := 0; d < 10; d++ {
		fmt.Fprintf(out, "  top %3d-%3d%%  %6.1f%%\n", d*10, d*10+10, r.Usage[d]*100)
	}
}

// SweepResult holds FF per feature for each setting of a swept parameter
// (Fig. 10a sweeps the speed weight; Fig. 10b sweeps the partition size).
type SweepResult struct {
	// Param names the swept parameter.
	Param string
	// Settings are the parameter values (rows).
	Settings []float64
	// Keys are the feature keys (columns).
	Keys []string
	// FF[i][j] is the FF of Keys[j] at Settings[i].
	FF [][]float64
}

// FeatureWeightSweep reproduces Fig. 10(a): it re-summarizes n random test
// trips with the weight of the Spe feature swept over the given values
// (others staying at 1) and reports every feature's FF.
func FeatureWeightSweep(w *World, weights []float64, n int) (*SweepResult, error) {
	if len(weights) == 0 {
		weights = []float64{0.5, 1, 2, 3, 4}
	}
	trips := sampleTrips(w.Test, n)
	keys := w.FeatureKeys()
	res := &SweepResult{Param: "w(Spe)", Settings: weights, Keys: keys}
	for _, wt := range weights {
		s := w.Summarizer.WithWeights(feature.Weights{feature.KeySpeed: wt})
		sums := make([]*summarize.Summary, 0, len(trips))
		for _, trip := range trips {
			if sum, err := s.Summarize(trip.Raw); err == nil {
				sums = append(sums, sum)
			}
		}
		row := make([]float64, len(keys))
		for j, key := range keys {
			row[j] = FF(sums, key)
		}
		res.FF = append(res.FF, row)
	}
	return res, nil
}

// PartitionSizeSweep reproduces Fig. 10(b): FF of every feature as the
// partition count k sweeps over the given values.
func PartitionSizeSweep(w *World, ks []int, n int) (*SweepResult, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 3, 4, 5, 6, 7}
	}
	trips := sampleTrips(w.Test, n)
	keys := w.FeatureKeys()
	res := &SweepResult{Param: "k", Keys: keys}
	for _, k := range ks {
		res.Settings = append(res.Settings, float64(k))
		sums := make([]*summarize.Summary, 0, len(trips))
		for _, trip := range trips {
			if sum, err := w.Summarizer.SummarizeK(trip.Raw, k); err == nil {
				sums = append(sums, sum)
			}
		}
		row := make([]float64, len(keys))
		for j, key := range keys {
			row[j] = FF(sums, key)
		}
		res.FF = append(res.FF, row)
	}
	return res, nil
}

// Format writes the sweep as a table: one row per setting.
func (r *SweepResult) Format(out io.Writer) {
	fmt.Fprintf(out, "Effect of %s (Fig. 10)\n", r.Param)
	fmt.Fprintf(out, "  %8s", r.Param)
	for _, k := range r.Keys {
		fmt.Fprintf(out, " %7s", k)
	}
	fmt.Fprintln(out)
	for i, s := range r.Settings {
		fmt.Fprintf(out, "  %8.2g", s)
		for j := range r.Keys {
			fmt.Fprintf(out, " %7.3f", r.FF[i][j])
		}
		fmt.Fprintln(out)
	}
}

// sampleTrips returns the first n trips (the fleet order is already
// random and seed-stable).
func sampleTrips(trips []*simulate.Trip, n int) []*simulate.Trip {
	if n <= 0 || n > len(trips) {
		n = len(trips)
	}
	return trips[:n]
}
