// Package stmaker is a Go implementation of STMaker, the
// partition-and-summarization system of Su et al., "Making Sense of
// Trajectory Data: A Partition-and-Summarization Approach" (ICDE 2015).
//
// Given a raw GPS trajectory and external semantic information — a road
// network, a landmark dataset and a corpus of historical trajectories —
// STMaker automatically generates a short text describing the trajectory's
// most unusual travel behaviours:
//
//	The car started from the Daoxiang Community to the Suzhoujie Station
//	with two staying points (in total for about 167 seconds). Then it
//	moved from the Suzhoujie Station to the Haidian Hospital with
//	conducting one U-turn at the Zhichun Road.
//
// The pipeline follows the paper's four steps: (1) rewrite the raw
// trajectory into a landmark-based symbolic trajectory; (2) split it into
// partitions by minimizing a CRF potential that balances landmark
// significance against feature homogeneity; (3) select each partition's
// most irregular features by comparing against historical behaviour; and
// (4) realize the selected features through phrase and sentence templates.
//
// The central type is Summarizer. Construct one with New over a road
// network and landmark set, feed it a training corpus with Train, then
// call Summarize (or SummarizeK for a chosen granularity) on trajectories.
package stmaker

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stmaker/internal/calibrate"
	"stmaker/internal/feature"
	"stmaker/internal/irregular"
	"stmaker/internal/landmark"
	"stmaker/internal/metrics"
	"stmaker/internal/partition"
	"stmaker/internal/roadnet"
	"stmaker/internal/sanitize"
	"stmaker/internal/summarize"
	"stmaker/internal/traj"
)

// Metric names recorded by the Summarizer into its metrics Registry, one
// latency histogram per pipeline stage plus training counters. Units and
// paper-section mapping are documented in docs/OBSERVABILITY.md; keep the
// two in sync.
const (
	// MetricStageCalibrate times trajectory calibration (§II-A).
	MetricStageCalibrate = "stage_calibrate_seconds"
	// MetricStageExtract times the feature-extraction hot loop (§III).
	MetricStageExtract = "stage_extract_seconds"
	// MetricStagePartition times the CRF/DP partition search (§IV).
	MetricStagePartition = "stage_partition_seconds"
	// MetricStageSelect times irregular-rate feature selection (§V).
	MetricStageSelect = "stage_select_seconds"
	// MetricStageRender times template realization (§VI-A).
	MetricStageRender = "stage_render_seconds"
	// MetricSummarize times the summary of a calibrated trajectory end to
	// end (extract + partition + select + render; calibration is counted
	// separately).
	MetricSummarize = "summarize_seconds"
	// MetricTrain times each Train call end to end (§V knowledge build).
	MetricTrain = "train_seconds"

	// MetricSummaries counts successful summarizations.
	MetricSummaries = "summaries_total"
	// MetricSummarizeErrors counts failed summarizations.
	MetricSummarizeErrors = "summarize_errors_total"
	// MetricTrainCalibrated counts corpus trajectories learned from.
	MetricTrainCalibrated = "train_trajectories_calibrated_total"
	// MetricTrainSkipped counts corpus trajectories dropped by Train.
	MetricTrainSkipped = "train_trajectories_skipped_total"
	// MetricSanitizeRepairs counts individual sample repairs applied by
	// the input sanitizer (Config.Sanitize), across Train and Summarize.
	MetricSanitizeRepairs = "sanitize_repairs_total"
	// MetricSanitizeRejects counts trajectories the sanitizer rejected
	// as unusable (fewer than 2 plausible samples).
	MetricSanitizeRejects = "sanitize_rejects_total"

	// MetricSPCacheHits counts lookups answered by the shared
	// shortest-path distance cache behind HMM map matching
	// (Config.UseHMMMatching; see roadnet.SPCache).
	MetricSPCacheHits = "roadnet_sp_cache_hits_total"
	// MetricSPCacheMisses counts cache lookups that fell through to a
	// bounded graph search.
	MetricSPCacheMisses = "roadnet_sp_cache_misses_total"
	// MetricSPCacheEvictions counts LRU evictions from the cache.
	MetricSPCacheEvictions = "roadnet_sp_cache_evictions_total"

	// MetricModelBuild times model-assembly work that happens inside
	// Train beyond corpus aggregation — today the ALT routing-overlay
	// precomputation, observed only with HMM matching
	// (Config.UseHMMMatching).
	MetricModelBuild = "model_build_seconds"
	// MetricModelVersion is a gauge holding the currently-served model's
	// version (see Model.Version); 0 until the first publish.
	MetricModelVersion = "model_version"
	// MetricModelSwaps counts model publications — initial training,
	// re-training and warm-start loads all increment it.
	MetricModelSwaps = "model_swaps_total"
)

// ErrNotTrained is returned by Summarize before a training corpus has been
// provided; feature selection needs historical knowledge.
var ErrNotTrained = errors.New("stmaker: summarizer has no historical corpus; call Train first")

// ErrInvalidInput marks errors caused by the caller's trajectory rather
// than by the summarizer's own state: structural validation failures,
// sanitizer rejections and calibration failures all wrap it. Servers use
// IsInputError to map these to a 4xx while everything else (ErrNotTrained,
// partition failures) stays a 5xx.
var ErrInvalidInput = errors.New("stmaker: invalid trajectory input")

// IsInputError reports whether err stems from the input trajectory (wraps
// ErrInvalidInput) as opposed to server-side state.
func IsInputError(err error) bool { return errors.Is(err, ErrInvalidInput) }

// Config configures a Summarizer. Graph and Landmarks are required; every
// other field has a sensible default matching the paper's experimental
// settings (§VII-B). The settings no caller varies are fixed: the
// calibration anchor radius (100 m), the minimum anchor spacing (50 m)
// and the partition's significance weight Ca (partition.DefaultCa, the
// paper's 0.5).
type Config struct {
	// Graph is the road network providing routing features.
	Graph *roadnet.Graph
	// Landmarks is the landmark dataset with significance scores.
	Landmarks *landmark.Set

	// Threshold is the irregular-rate threshold η above which a feature is
	// described (default 0.2, the paper's setting).
	Threshold float64
	// Weights are the user-specified per-feature weights w_f (§IV-B);
	// missing features default to 1.
	Weights feature.Weights
	// K fixes the summary granularity to exactly K partitions; 0 uses the
	// globally optimal (unconstrained) partition, STMaker's default.
	K int
	// UseHMMMatching switches routing-feature extraction from greedy
	// nearest-edge map matching to HMM (Viterbi) matching — slower but
	// robust to GPS noise near parallel roads. Shortest paths feed only
	// this matcher, so only an HMM summarizer gets the routing machinery:
	// a process-wide shortest-path distance cache shared by concurrent
	// Summarize calls (roadnet.SPCache, roadnet.DefaultSPCacheEntries
	// entries, reported by the roadnet_sp_cache_* counters) and the ALT
	// routing overlay its first Train precomputes over the road graph (see
	// roadnet.BuildOverlay), whose build time is reported in
	// TrainStats.OverlayBuildSeconds and the model_build_seconds histogram.
	UseHMMMatching bool
	// Sanitize, when non-nil, repairs every raw trajectory (corpus and
	// serve-time) before calibration: invalid fixes are dropped,
	// timestamps re-sorted and deduplicated, teleport outliers and
	// parked-antenna jitter removed (see internal/sanitize). Nil keeps
	// the library's historical strict behaviour; cmd/stmakerd enables it
	// by default. &sanitize.Options{} applies the default thresholds.
	Sanitize *sanitize.Options
	// Metrics receives the per-stage latency histograms and pipeline
	// counters (see the Metric* constants); nil gives the Summarizer a
	// private registry, exposed via Metrics().
	Metrics *metrics.Registry
}

const (
	// anchorRadiusMeters is the calibration anchor radius for rewriting
	// raw trajectories into symbolic ones.
	anchorRadiusMeters = 100
	// anchorSpacingMeters thins dense anchors: co-located landmarks (e.g.
	// a POI cluster centre on an intersection) otherwise create
	// degenerate zero-length segments.
	anchorSpacingMeters = 50
)

// TrainStats reports what Train managed to use.
type TrainStats struct {
	// Calibrated is the number of corpus trajectories successfully
	// rewritten into symbolic trajectories and learned from.
	Calibrated int
	// Skipped is the number dropped (too short, off the landmark grid, or
	// structurally invalid).
	Skipped int
	// Transitions is the number of distinct landmark transitions in the
	// historical feature map afterwards.
	Transitions int
	// Repaired is the number of corpus trajectories the input sanitizer
	// (Config.Sanitize) had to repair before calibration; always 0 when
	// sanitization is off.
	Repaired int
	// Repairs aggregates the sanitizer's per-kind repair counts over the
	// whole corpus.
	Repairs sanitize.Report
	// OverlayBuildSeconds is the wall time spent precomputing the ALT
	// routing overlay; 0 without HMM matching (Config.UseHMMMatching) or
	// when the overlay was reused from the previously published model.
	OverlayBuildSeconds float64
}

// Summarizer is the end-to-end STMaker pipeline. All trained knowledge
// lives in an immutable Model behind an atomic pointer, so Summarize is
// safe to call concurrently with Train, LoadModel and other Summarize
// calls: each request reads one consistent snapshot, and a re-train
// swaps in its replacement atomically. Only RegisterFeature must happen
// before the first model is published, since it changes the feature
// vector layout the model is keyed to.
type Summarizer struct {
	cfg        Config
	registry   *feature.Registry
	ctx        *feature.Context
	calibrator *calibrate.Calibrator
	sanitizer  *sanitize.Sanitizer
	templates  *summarize.TemplateSet

	mx     *metrics.Registry
	timers stageTimers

	// model holds the published knowledge snapshot (nil before the first
	// Train/LoadModel); pubMu serializes publishes. Both are pointers so
	// the shallow clones made by WithWeights/WithThreshold share the same
	// cell — a retrain is visible to every clone — and so clones never
	// copy a lock or an atomic value.
	model *atomic.Pointer[Model]
	pubMu *sync.Mutex

	// scratch pools per-request pipeline buffers (feature matrices,
	// partition inputs, weight vectors). The pooled weight vector is laid
	// out for this summarizer's cfg.Weights, so WithWeights clones get a
	// fresh pool instead of sharing this one.
	scratch *sync.Pool
}

// pipeScratch is one request's reusable pipeline scratch: everything
// summarizeSymbolic needs that would otherwise be allocated per call
// and die young. Nothing in here is referenced by the returned Summary
// — the contract `make lint` (poolescape) enforces at every Get/Put
// site: an alias escaping into the Summary would be overwritten by the
// next request that draws the same scratch.
type pipeScratch struct {
	mat   feature.MatrixBuf
	norm  feature.MatrixBuf
	feats [][]float64
	sig   []float64
	wvec  []float64
}

func newScratchPool() *sync.Pool {
	return &sync.Pool{New: func() any { return new(pipeScratch) }}
}

// weights returns the pooled weight vector, rebuilt when the registry
// grew since this scratch last served (RegisterFeature happens only
// before the first publish, so in steady state this is a length check).
func (ps *pipeScratch) weights(w feature.Weights, reg *feature.Registry) []float64 {
	if len(ps.wvec) != reg.Len() {
		ps.wvec = w.VectorFor(reg)
	}
	return ps.wvec
}

// input returns the pooled partition input sized for n segments.
func (ps *pipeScratch) input(n int) partition.Input {
	if cap(ps.feats) < n {
		ps.feats = make([][]float64, n)
		ps.sig = make([]float64, n)
	}
	return partition.Input{Features: ps.feats[:n], Significance: ps.sig[:n]}
}

// stageTimers holds the pre-resolved per-stage histograms so the hot path
// never takes the registry's registration lock.
type stageTimers struct {
	calibrate *metrics.Histogram
	extract   *metrics.Histogram
	partition *metrics.Histogram
	sel       *metrics.Histogram
	render    *metrics.Histogram
	summarize *metrics.Histogram
	train     *metrics.Histogram
}

func newStageTimers(mx *metrics.Registry) stageTimers {
	return stageTimers{
		calibrate: mx.Histogram(MetricStageCalibrate),
		extract:   mx.Histogram(MetricStageExtract),
		partition: mx.Histogram(MetricStagePartition),
		sel:       mx.Histogram(MetricStageSelect),
		render:    mx.Histogram(MetricStageRender),
		summarize: mx.Histogram(MetricSummarize),
		train:     mx.Histogram(MetricTrain),
	}
}

// New builds a Summarizer with the paper's six default features.
func New(cfg Config) (*Summarizer, error) {
	if cfg.Graph == nil {
		return nil, errors.New("stmaker: Config.Graph is required")
	}
	if cfg.Landmarks == nil || cfg.Landmarks.Len() < 2 {
		return nil, errors.New("stmaker: Config.Landmarks must hold at least 2 landmarks")
	}
	if cfg.Threshold == 0 { //lint:allow floateq -- zero means unset in Config
		cfg.Threshold = irregular.DefaultThreshold
	}
	reg := feature.NewDefaultRegistry()
	mx := cfg.Metrics
	if mx == nil {
		mx = metrics.NewRegistry()
	}
	// One edge index per summarizer: HMM matching draws its candidate
	// edges from the context's greedy matcher.
	var hmm *roadnet.HMMMatcher
	var matcher *roadnet.Matcher
	if cfg.UseHMMMatching {
		cache := roadnet.NewSPCache(roadnet.SPCacheOptions{
			Capacity:  roadnet.DefaultSPCacheEntries,
			Hits:      mx.Counter(MetricSPCacheHits),
			Misses:    mx.Counter(MetricSPCacheMisses),
			Evictions: mx.Counter(MetricSPCacheEvictions),
		})
		hmm = roadnet.NewHMMMatcher(cfg.Graph, roadnet.HMMOptions{Cache: cache})
		matcher = hmm.Matcher()
	} else {
		matcher = roadnet.NewMatcher(cfg.Graph)
	}
	ctx := feature.NewContext(cfg.Graph, matcher, cfg.Landmarks)
	ctx.HMM = hmm
	s := &Summarizer{
		cfg:      cfg,
		registry: reg,
		ctx:      ctx,
		calibrator: calibrate.New(cfg.Landmarks, calibrate.Options{
			RadiusMeters:     anchorRadiusMeters,
			MinSpacingMeters: anchorSpacingMeters,
		}),
		templates: summarize.DefaultTemplates(),
		mx:        mx,
		timers:    newStageTimers(mx),
		model:     &atomic.Pointer[Model]{},
		pubMu:     &sync.Mutex{},
		scratch:   newScratchPool(),
	}
	if cfg.Sanitize != nil {
		s.sanitizer = sanitize.New(*cfg.Sanitize)
	}
	return s, nil
}

// Metrics exposes the registry holding the Summarizer's per-stage latency
// histograms and pipeline counters (the Metric* constants). The HTTP
// service serves its snapshot at GET /metrics; see docs/OBSERVABILITY.md.
func (s *Summarizer) Metrics() *metrics.Registry { return s.mx }

// Registry exposes the feature registry (read-mostly; use RegisterFeature
// to extend it).
func (s *Summarizer) Registry() *feature.Registry { return s.registry }

// Templates exposes the template set for customization.
func (s *Summarizer) Templates() *summarize.TemplateSet { return s.templates }

// RegisterFeature installs a custom feature with its phrase template
// (§VI-B). It must be called before Train or LoadModel, since the
// historical feature map's dimensionality — and the model fingerprint —
// are fixed at training time.
func (s *Summarizer) RegisterFeature(e feature.Extractor, clause summarize.ClauseRenderer) error {
	if s.model.Load() != nil {
		return errors.New("stmaker: RegisterFeature must be called before Train or LoadModel")
	}
	if clause != nil {
		// Validate the clause before touching the registry so a failure
		// leaves no partial registration; SetClause overwrites any default
		// template for the same key.
		if err := s.templates.SetClause(e.Descriptor().Key, clause); err != nil {
			return err
		}
	}
	return s.registry.Register(e)
}

// Calibrate rewrites a raw trajectory into its symbolic form against the
// configured landmark set (§II-A).
func (s *Summarizer) Calibrate(r *traj.Raw) (*traj.Symbolic, error) {
	defer s.timers.calibrate.ObserveSince(time.Now())
	return s.calibrator.Calibrate(r)
}

// Train learns the historical knowledge (§V) from a corpus of raw
// trajectories — the popular-route statistics and the per-transition
// historical feature map — then publishes it as a new Model in one
// atomic swap. Train may be called again, including while Summarize
// traffic is in flight: the new model is built completely off to the
// side and replaces the old one wholesale (never merged), so concurrent
// requests see either the old knowledge or the new, never a mix.
//
// Calibration of the corpus is embarrassingly parallel and runs across
// GOMAXPROCS goroutines; the calibrated trips are then folded, in corpus
// order, into a fresh HistoryAccumulator, and the model is built the way
// a streaming compaction builds one. Train is therefore deterministic
// regardless of worker count.
func (s *Summarizer) Train(corpus []*traj.Raw) (TrainStats, error) {
	defer s.timers.train.ObserveSince(time.Now())
	calibrated, reports := s.calibrateCorpus(corpus)

	var stats TrainStats
	acc := s.emptyAccumulator()
	for i, sym := range calibrated {
		stats.Repairs.Merge(reports[i])
		if !reports[i].Clean() {
			stats.Repaired++
		}
		if sym == nil {
			stats.Skipped++
			continue
		}
		s.AccumulateHistory(acc, sym)
	}
	s.mx.Counter(MetricTrainCalibrated).Add(int64(acc.trips))
	s.mx.Counter(MetricTrainSkipped).Add(int64(stats.Skipped))
	if n := stats.Repairs.Repairs(); n > 0 {
		s.mx.Counter(MetricSanitizeRepairs).Add(int64(n))
	}
	if acc.trips == 0 {
		return stats, errors.New("stmaker: no corpus trajectory could be calibrated")
	}
	return s.publish(*s.buildModel(acc, stats)).stats, nil
}

// calibrateCorpus sanitizes (when configured) and calibrates every corpus
// trajectory across min(GOMAXPROCS, len(corpus)) workers, returning one
// symbolic slot and one repair report per input (nil symbolic where
// sanitization rejected or calibration failed). The calibrator and
// sanitizer are stateless per call and the landmark index is immutable,
// so workers share them safely.
func (s *Summarizer) calibrateCorpus(corpus []*traj.Raw) ([]*traj.Symbolic, []sanitize.Report) {
	out := make([]*traj.Symbolic, len(corpus))
	reports := make([]sanitize.Report, len(corpus))
	one := func(i int) {
		r := corpus[i]
		if s.sanitizer != nil {
			repaired, rep, err := s.sanitizer.Sanitize(r)
			reports[i] = rep
			if err != nil {
				s.mx.Counter(MetricSanitizeRejects).Inc()
				return
			}
			r = repaired
		}
		t0 := time.Now()
		out[i], _ = s.calibrator.Calibrate(r)
		s.timers.calibrate.ObserveSince(t0)
	}
	workers := min(runtime.GOMAXPROCS(0), len(corpus))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(corpus) {
					return
				}
				// Each worker writes only its own slots; counters and
				// histograms are atomic, so concurrent observation is
				// safe.
				one(i)
			}
		}()
	}
	wg.Wait()
	return out, reports
}

// routingOverlay returns the ALT overlay for the model being assembled:
// nil without an HMM matcher (the overlay's only consumer), the previous
// model's overlay when one is already serving (the graph is fixed per
// Summarizer, so its tables stay valid across retrains — a live retrain
// never re-pays the precomputation), or a freshly built one on the first
// train. A fresh build stamps stats.OverlayBuildSeconds and observes
// model_build_seconds.
func (s *Summarizer) routingOverlay(stats *TrainStats) *roadnet.Overlay {
	if s.ctx.HMM == nil {
		return nil
	}
	if m := s.model.Load(); m != nil && m.overlay != nil && m.overlay.NumNodes() == s.cfg.Graph.NumNodes() {
		return m.overlay
	}
	t0 := time.Now()
	o := roadnet.BuildOverlay(s.cfg.Graph, roadnet.OverlayOptions{})
	stats.OverlayBuildSeconds = time.Since(t0).Seconds()
	s.mx.Histogram(MetricModelBuild).Observe(stats.OverlayBuildSeconds)
	return o
}

// Trained reports whether a knowledge model has been published (via
// Train or LoadModel).
func (s *Summarizer) Trained() bool { return s.model.Load() != nil }

// WithWeights returns a summarizer that shares this one's map resources
// and trained knowledge but applies different feature weights — the cheap
// way to sweep w_f (Fig. 10a) without retraining.
func (s *Summarizer) WithWeights(w feature.Weights) *Summarizer {
	clone := *s
	clone.cfg.Weights = w
	// The pooled weight vectors are laid out for the old weights.
	clone.scratch = newScratchPool()
	return &clone
}

// WithThreshold returns a summarizer sharing trained knowledge with a
// different irregular-rate threshold η.
func (s *Summarizer) WithThreshold(eta float64) *Summarizer {
	clone := *s
	clone.cfg.Threshold = eta
	return &clone
}

// FlattenHistoryForAblation publishes a model whose historical feature
// map is collapsed so every known transition carries the corpus-wide
// global regular vector, removing the per-edge knowledge of §V-B. It
// exists for the ablation benches that quantify the value of the
// historical feature map. No-op before the first Train.
func (s *Summarizer) FlattenHistoryForAblation() {
	if m := s.model.Load(); m != nil {
		flat := *m
		flat.featMap = m.featMap.Flattened()
		s.publish(flat)
	}
}

// Summarize generates the summary of a raw trajectory at the configured
// granularity (Config.K, defaulting to the optimal partition).
func (s *Summarizer) Summarize(r *traj.Raw) (*summarize.Summary, error) {
	return s.SummarizeK(r, s.cfg.K)
}

// SummarizeK generates the summary with exactly k partitions (clamped to
// the number of trajectory segments); k <= 0 uses the optimal partition.
func (s *Summarizer) SummarizeK(r *traj.Raw, k int) (*summarize.Summary, error) {
	return s.SummarizeKContext(context.Background(), r, k)
}

// SummarizeKContext is SummarizeK with cancellation: the pipeline checks
// ctx between stages (calibrate → extract → partition → select → render)
// and aborts with ctx.Err() as soon as the deadline passes or the caller
// cancels. Serving paths use it to bound per-request work. Input-shaped
// failures — sanitizer rejections and calibration errors — wrap
// ErrInvalidInput so servers can map them to a client error.
func (s *Summarizer) SummarizeKContext(ctx context.Context, r *traj.Raw, k int) (*summarize.Summary, error) {
	if err := s.checkCtx(ctx); err != nil {
		return nil, err
	}
	if s.sanitizer != nil {
		repaired, rep, err := s.sanitizer.Sanitize(r)
		if err != nil {
			s.mx.Counter(MetricSanitizeRejects).Inc()
			s.mx.Counter(MetricSummarizeErrors).Inc()
			return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
		}
		if n := rep.Repairs(); n > 0 {
			s.mx.Counter(MetricSanitizeRepairs).Add(int64(n))
		}
		r = repaired
	}
	sym, err := s.Calibrate(r)
	if err != nil {
		s.mx.Counter(MetricSummarizeErrors).Inc()
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	return s.summarizeSymbolic(ctx, sym, k)
}

// checkCtx is the between-stages cancellation checkpoint: expired or
// cancelled contexts abort the pipeline, counted as summarize errors.
func (s *Summarizer) checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		s.mx.Counter(MetricSummarizeErrors).Inc()
		return err
	}
	return nil
}

func (s *Summarizer) summarizeSymbolic(ctx context.Context, sym *traj.Symbolic, k int) (*summarize.Summary, error) {
	// One atomic load pins the knowledge snapshot for the whole request;
	// a concurrent retrain publishing a successor does not disturb it.
	model := s.model.Load()
	if model == nil {
		s.mx.Counter(MetricSummarizeErrors).Inc()
		return nil, ErrNotTrained
	}
	n := sym.NumSegments()
	if n == 0 {
		s.mx.Counter(MetricSummarizeErrors).Inc()
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, traj.ErrNotCalibrated)
	}
	defer s.timers.summarize.ObserveSince(time.Now())

	// Per-request pooled scratch; the segment-edge cache entry is
	// released with it, so the long-lived serving Context stays bounded
	// by the number of requests in flight.
	scratch := s.scratch.Get().(*pipeScratch)
	defer s.scratch.Put(scratch)
	defer s.ctx.ReleaseEdges(sym)

	if err := s.checkCtx(ctx); err != nil {
		return nil, err
	}
	tExtract := time.Now()
	matrix := s.registry.ExtractAllInto(&scratch.mat, sym, s.ctx)
	s.timers.extract.ObserveSince(tExtract)

	if err := s.checkCtx(ctx); err != nil {
		return nil, err
	}
	res, err := s.partitionTrajectory(scratch, sym, matrix, k)
	if err != nil {
		s.mx.Counter(MetricSummarizeErrors).Inc()
		return nil, err
	}
	if err := s.checkCtx(ctx); err != nil {
		return nil, err
	}

	selector := &summarize.Selector{
		Registry:           s.registry,
		Ctx:                s.ctx,
		Popular:            model.popular,
		FeatureMap:         model.featMap,
		Landmarks:          s.cfg.Landmarks,
		Weights:            s.cfg.Weights,
		Threshold:          s.cfg.Threshold,
		GlobalMeanFallback: true,
	}

	tSelect := time.Now()
	summary := &summarize.Summary{TrajectoryID: sym.ID}
	for _, part := range res.Parts {
		ps := summarize.PartSummary{
			Part:   part,
			Source: sym.Visits[part.FirstSeg].Landmark,
			Dest:   sym.Visits[part.LastSeg+1].Landmark,
		}
		ps.SourceName = s.cfg.Landmarks.Get(ps.Source).Name
		ps.DestName = s.cfg.Landmarks.Get(ps.Dest).Name
		if g, name, ok := summarize.RoadForPart(s.ctx, sym, part); ok {
			ps.RoadType = g.String()
			ps.RoadName = name
		}
		ps.Features = selector.SelectForPart(sym, part, matrix)
		summary.Parts = append(summary.Parts, ps)
	}
	s.timers.sel.ObserveSince(tSelect)

	if err := s.checkCtx(ctx); err != nil {
		return nil, err
	}
	tRender := time.Now()
	s.templates.RenderSummary(summary)
	s.timers.render.ObserveSince(tRender)
	s.mx.Counter(MetricSummaries).Inc()
	return summary, nil
}

// Partition exposes the partition step on its own: it calibrates nothing
// and selects nothing, returning the optimal (k <= 0) or exact-k partition
// of the symbolic trajectory.
func (s *Summarizer) Partition(sym *traj.Symbolic, k int) (partition.Result, error) {
	scratch := s.scratch.Get().(*pipeScratch)
	defer s.scratch.Put(scratch)
	tExtract := time.Now()
	matrix := s.registry.ExtractAllInto(&scratch.mat, sym, s.ctx)
	s.timers.extract.ObserveSince(tExtract)
	return s.partitionTrajectory(scratch, sym, matrix, k)
}

func (s *Summarizer) partitionTrajectory(scratch *pipeScratch, sym *traj.Symbolic, matrix []feature.Vector, k int) (partition.Result, error) {
	defer s.timers.partition.ObserveSince(time.Now())
	n := sym.NumSegments()
	norm := feature.NormalizeByMaxInto(&scratch.norm, matrix)
	in := scratch.input(n)
	for i := 0; i < n; i++ {
		in.Features[i] = norm[i]
		// Significance[i] is li.s for the landmark between segments i-1
		// and i (unused at i = 0).
		in.Significance[i] = s.cfg.Landmarks.Get(sym.Visits[i].Landmark).Significance
	}
	opts := partition.Options{Ca: partition.DefaultCa, Weights: scratch.weights(s.cfg.Weights, s.registry)}
	if k <= 0 {
		return partition.Optimal(in, opts)
	}
	if k > n {
		k = n
	}
	return partition.KPartition(in, k, opts)
}

// Describe returns a short multi-line report of a summary, convenient for
// CLI output: the text followed by the selected features per partition.
func Describe(sum *summarize.Summary) string {
	out := sum.Text
	for i, p := range sum.Parts {
		out += fmt.Sprintf("\n  partition %d: segments %d..%d", i+1, p.Part.FirstSeg, p.Part.LastSeg)
		for _, f := range p.Features {
			out += fmt.Sprintf("\n    %-7s Γ=%.2f value=%.1f", f.Key, f.Rate, f.Value)
		}
	}
	return out
}
