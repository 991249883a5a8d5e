// Benchmarks regenerating every evaluation figure of the paper (§VII),
// plus the kernel and ablation benches DESIGN.md calls out. Each
// BenchmarkFigN runs the corresponding harness from internal/experiments
// once per iteration and reports the headline statistic of that figure as
// a custom metric, so `go test -bench=.` both times the regeneration and
// surfaces the reproduced numbers.
package stmaker_test

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"

	"stmaker"
	"stmaker/internal/calibrate"
	"stmaker/internal/experiments"
	"stmaker/internal/feature"
	"stmaker/internal/traj"
)

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

var (
	benchOnce  sync.Once
	benchWorld *experiments.World
	benchErr   error
)

// world lazily builds the shared benchmark world (small enough that every
// figure regenerates in about a second).
func world(b *testing.B) *experiments.World {
	b.Helper()
	benchOnce.Do(func() {
		benchWorld, benchErr = experiments.NewWorld(experiments.Options{
			CityRows: 8, CityCols: 8, TrainTrips: 300, TestTrips: 160, Seed: 5,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWorld
}

// BenchmarkSummarizeOptimal times the end-to-end kernel: calibrate,
// partition optimally, select features and render one trajectory.
func BenchmarkSummarizeOptimal(b *testing.B) {
	w := world(b)
	trips := w.Test
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Summarizer.Summarize(trips[i%len(trips)].Raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummarizeK3 times the kernel at the paper's presentation
// granularity.
func BenchmarkSummarizeK3(b *testing.B) {
	w := world(b)
	trips := w.Test
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Summarizer.SummarizeK(trips[i%len(trips)].Raw, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6CaseStudy regenerates the Fig. 6 case study: one trajectory
// summarized at k = 1, 2, 3.
func BenchmarkFig6CaseStudy(b *testing.B) {
	w := world(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CaseStudy(w, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Compression regenerates the data-volume comparison and
// reports the measured compression ratio.
func BenchmarkFig7Compression(b *testing.B) {
	w := world(b)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CompressionStudy(w, 60)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio
	}
	b.ReportMetric(ratio, "raw/summary")
}

// BenchmarkFig8FeatureFrequencyByTime regenerates the FF-by-time series
// and reports the daytime-vs-night contrast for the speed feature.
func BenchmarkFig8FeatureFrequencyByTime(b *testing.B) {
	w := world(b)
	var day, night float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.FeatureFrequencyByTime(w)
		if err != nil {
			b.Fatal(err)
		}
		day, night = dayNight(ffColumn(res.Keys, res.FF[:], feature.KeySpeed))
	}
	b.ReportMetric(day, "FF(Spe)-day")
	b.ReportMetric(night, "FF(Spe)-night")
}

// BenchmarkFig9LandmarkUsage regenerates the landmark-usage series and
// reports the top-decile share (the paper measures about 40%).
func BenchmarkFig9LandmarkUsage(b *testing.B) {
	w := world(b)
	var top float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.LandmarkUsageBySignificance(w)
		if err != nil {
			b.Fatal(err)
		}
		top = res.Usage[0]
	}
	b.ReportMetric(top*100, "top10%-share")
}

// BenchmarkFig10aWeightSweep regenerates the speed-weight sweep and
// reports the FF rise of Spe from w=0.5 to w=4.
func BenchmarkFig10aWeightSweep(b *testing.B) {
	w := world(b)
	var rise float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.FeatureWeightSweep(w, []float64{0.5, 1, 2, 4}, 60)
		if err != nil {
			b.Fatal(err)
		}
		col := ffColumn(res.Keys, res.FF, feature.KeySpeed)
		rise = col[len(col)-1] - col[0]
	}
	b.ReportMetric(rise, "FF(Spe)-rise")
}

// BenchmarkFig10bPartitionSweep regenerates the k sweep and reports the
// moving-feature FF rise from k=1 to k=7.
func BenchmarkFig10bPartitionSweep(b *testing.B) {
	w := world(b)
	var rise float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.PartitionSizeSweep(w, []int{1, 3, 5, 7}, 60)
		if err != nil {
			b.Fatal(err)
		}
		stay, spe := ffColumn(res.Keys, res.FF, feature.KeyStayPoints), ffColumn(res.Keys, res.FF, feature.KeySpeed)
		first, last := stay[0]+spe[0], stay[3]+spe[3]
		rise = last - first
	}
	b.ReportMetric(rise, "movingFF-rise")
}

// BenchmarkFig11UserStudy regenerates the surrogate user study and reports
// the level-3+4 share (the paper measures about 80%).
func BenchmarkFig11UserStudy(b *testing.B) {
	w := world(b)
	var intuitive float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.UserStudy(w, 150)
		if err != nil {
			b.Fatal(err)
		}
		intuitive = res.FractionAtLeast(3)
	}
	b.ReportMetric(intuitive*100, "level3+4%")
}

// BenchmarkFig12aTimingBySize regenerates the time-vs-|T| study.
func BenchmarkFig12aTimingBySize(b *testing.B) {
	w := world(b)
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TimingByTrajectorySize(w, 3)
		if err != nil {
			b.Fatal(err)
		}
		worst = res.MeanMs[len(res.MeanMs)-1]
	}
	b.ReportMetric(worst, "largest|T|-ms")
}

// BenchmarkFig12bTimingByK regenerates the time-vs-k study.
func BenchmarkFig12bTimingByK(b *testing.B) {
	w := world(b)
	var atK7 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TimingByPartitionSize(w, []int{1, 4, 7}, 40)
		if err != nil {
			b.Fatal(err)
		}
		atK7 = res.MeanMs[len(res.MeanMs)-1]
	}
	b.ReportMetric(atK7, "k7-ms")
}

// BenchmarkAblationGlobalMean compares feature selection with the
// historical feature map against the global-mean-only baseline, reporting
// how many more features the crude baseline flags (over-selection).
func BenchmarkAblationGlobalMean(b *testing.B) {
	w := world(b)
	trips := w.Test[:40]
	var withMap, globalOnly float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withMap, globalOnly = 0, 0
		for _, trip := range trips {
			sum, err := w.Summarizer.SummarizeK(trip.Raw, 3)
			if err != nil {
				continue
			}
			withMap += float64(len(stmaker.FeatureKeys(sum)))
			// The baseline summarizer selects against the corpus-wide mean
			// for every transition by pretending no edge is known.
			sumG, err := baselineSummarizer(b, w).SummarizeK(trip.Raw, 3)
			if err != nil {
				continue
			}
			globalOnly += float64(len(stmaker.FeatureKeys(sumG)))
		}
	}
	b.ReportMetric(globalOnly-withMap, "extra-selections")
}

var (
	baselineOnce sync.Once
	baselineSum  *stmaker.Summarizer
	baselineErr  error
)

// baselineSummarizer trains a summarizer whose historical feature map is
// collapsed to the global mean: every transition carries the same regular
// vector, removing the per-edge knowledge of §V-B.
func baselineSummarizer(b *testing.B, w *experiments.World) *stmaker.Summarizer {
	b.Helper()
	baselineOnce.Do(func() {
		s, err := stmaker.New(stmaker.Config{Graph: w.City.Graph, Landmarks: w.City.Landmarks})
		if err != nil {
			baselineErr = err
			return
		}
		// Retrain on a corpus of identical single-transition trajectories?
		// Simpler and exact: train normally, then flatten the map.
		corpus := make([]*traj.Raw, 0, len(w.Train))
		for _, tr := range w.Train {
			corpus = append(corpus, tr.Raw)
		}
		if _, err := s.Train(corpus); err != nil {
			baselineErr = err
			return
		}
		s.FlattenHistoryForAblation()
		baselineSum = s
	})
	if baselineErr != nil {
		b.Fatal(baselineErr)
	}
	return baselineSum
}

// BenchmarkAblationAnchorSpacing times calibration at three anchor
// spacings and reports the resulting |T|, quantifying the
// granularity/speed trade-off of the calibration substrate.
func BenchmarkAblationAnchorSpacing(b *testing.B) {
	w := world(b)
	raw := w.Test[0].Raw
	for _, spacing := range []float64{0, 50, 200} {
		spacing := spacing
		b.Run(spacingName(spacing), func(b *testing.B) {
			cal := calibrate.New(w.City.Landmarks, calibrate.Options{
				RadiusMeters: 100, MinSpacingMeters: spacing,
			})
			var size int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sym, err := cal.Calibrate(raw)
				if err != nil {
					b.Fatal(err)
				}
				size = sym.Len()
			}
			b.ReportMetric(float64(size), "|T|")
		})
	}
}

func spacingName(s float64) string {
	switch s {
	case 0:
		return "keep-all"
	case 50:
		return "spacing-50m"
	default:
		return "spacing-200m"
	}
}

// BenchmarkCalibrate times the calibration substrate alone.
func BenchmarkCalibrate(b *testing.B) {
	w := world(b)
	raw := w.Test[0].Raw
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Summarizer.Calibrate(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrain times training over the benchmark corpus with Train's
// calibration pool sized by GOMAXPROCS: procs > 0 sets it for the run
// (1 = serial baseline) and restores it afterwards, 0 keeps the
// process default.
func benchTrain(b *testing.B, procs int) {
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	w := world(b)
	corpus := make([]*traj.Raw, 0, len(w.Train))
	for _, tr := range w.Train {
		corpus = append(corpus, tr.Raw)
	}
	s, err := stmaker.New(stmaker.Config{
		Graph: w.City.Graph, Landmarks: w.City.Landmarks,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Train(corpus); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrain times training with parallel corpus calibration (the
// default: GOMAXPROCS workers). Compare against BenchmarkTrainSerial to
// see the speedup; on a multi-core machine the parallel path wins by
// roughly the core count, since calibration dominates training time.
func BenchmarkTrain(b *testing.B) { benchTrain(b, 0) }

// BenchmarkTrainSerial is the single-worker baseline for BenchmarkTrain.
func BenchmarkTrainSerial(b *testing.B) { benchTrain(b, 1) }

// BenchmarkSummarizeHMMMatching times the kernel with HMM (Viterbi) map
// matching instead of greedy nearest-edge matching.
func BenchmarkSummarizeHMMMatching(b *testing.B) {
	w := world(b)
	s, err := stmaker.New(stmaker.Config{
		Graph: w.City.Graph, Landmarks: w.City.Landmarks, UseHMMMatching: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	corpus := make([]*traj.Raw, 0, len(w.Train))
	for _, tr := range w.Train {
		corpus = append(corpus, tr.Raw)
	}
	if _, err := s.Train(corpus); err != nil {
		b.Fatal(err)
	}
	trips := w.Test
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Summarize(trips[i%len(trips)].Raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStartTrain measures boot-to-serving the cold way: build a
// summarizer and train it on the full corpus, the path every stmakerd
// instance paid on boot before saved models existed. Compare against
// BenchmarkWarmStartLoadModel — the gap is what -model buys a restart.
func BenchmarkColdStartTrain(b *testing.B) {
	w := world(b)
	corpus := make([]*traj.Raw, 0, len(w.Train))
	for _, tr := range w.Train {
		corpus = append(corpus, tr.Raw)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := stmaker.New(stmaker.Config{Graph: w.City.Graph, Landmarks: w.City.Landmarks})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Train(corpus); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmStartLoadModel measures boot-to-serving the warm way:
// build a summarizer and load the model saved by a previous training run
// (decode, validate, fingerprint-check, publish), skipping calibration
// and feature extraction entirely — stmakerd -model.
func BenchmarkWarmStartLoadModel(b *testing.B) {
	w := world(b)
	var file bytes.Buffer
	if _, err := w.Summarizer.SaveModel(&file); err != nil {
		b.Fatal(err)
	}
	data := file.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := stmaker.New(stmaker.Config{Graph: w.City.Graph, Landmarks: w.City.Landmarks})
		if err != nil {
			b.Fatal(err)
		}
		m, err := stmaker.ReadModelFrom(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.LoadModel(m); err != nil {
			b.Fatal(err)
		}
	}
}
