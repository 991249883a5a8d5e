package stmaker

import (
	"stmaker/internal/feature"
	"stmaker/internal/history"
	"stmaker/internal/traj"
)

// HistoryAccumulator is the mutable cumulative form of the trained
// knowledge, for streaming ingestion: closed trips are folded in one at a
// time with AccumulateHistory, and a compaction periodically freezes the
// accumulated state into an immutable Model (BuildIncrementalModel) that
// is published through the same atomic swap a batch Train uses. It holds
// exactly the state a Model serializes — the corpus landmark sequences
// and the historical feature map. Train folds its corpus into a fresh
// accumulator and builds its model the same way, so a model built from
// an accumulator seeded with N trips is identical to one trained on
// those N trips in a batch.
//
// An accumulator is not safe for concurrent use; the ingestion layer
// serializes folds and freezes under its own lock.
type HistoryAccumulator struct {
	seqs    [][]int
	featMap *history.FeatureMap
	trips   int
}

// NewHistoryAccumulator creates an accumulator for this summarizer's
// feature registry. With a nil base it starts empty (cold start); with a
// base Model — which must match the summarizer's configuration, same
// check as LoadModel — it is seeded with a deep copy of the model's
// knowledge, so ingestion extends a warm-started corpus instead of
// forgetting it.
func (s *Summarizer) NewHistoryAccumulator(base *Model) (*HistoryAccumulator, error) {
	if base != nil {
		if err := s.checkCompatible(base); err != nil {
			return nil, err
		}
		seqs := base.popular.Sequences()
		return &HistoryAccumulator{
			seqs:    seqs,
			featMap: base.featMap.Clone(),
			trips:   len(seqs),
		}, nil
	}
	return s.emptyAccumulator(), nil
}

// emptyAccumulator starts a cold accumulator keyed to this summarizer's
// feature registry. Categorical features aggregate by mode, not mean:
// averaging category codes would produce values that match no real
// category and poison the edit-distance comparison.
func (s *Summarizer) emptyAccumulator() *HistoryAccumulator {
	descs := s.registry.Descriptors()
	fm := history.NewFeatureMap(len(descs))
	for j, d := range descs {
		if !d.Numeric {
			fm.MarkCategorical(j)
		}
	}
	return &HistoryAccumulator{featMap: fm}
}

// Trips returns the number of trips folded in, including any carried
// from the seed model.
func (a *HistoryAccumulator) Trips() int { return a.trips }

// Transitions returns the number of annotated landmark transitions in
// the cumulative feature map.
func (a *HistoryAccumulator) Transitions() int { return a.featMap.NumEdges() }

// Clone returns an independent deep copy. This is the compaction freeze:
// the clone is taken under the ingestion lock (cheap relative to a model
// build), then handed to BuildIncrementalModel outside it while the
// original keeps absorbing new trips.
func (a *HistoryAccumulator) Clone() *HistoryAccumulator {
	return &HistoryAccumulator{
		// Inner sequence slices are never mutated after being appended, so
		// copying the outer slice is a full freeze.
		seqs:    append([][]int(nil), a.seqs...),
		featMap: a.featMap.Clone(),
		trips:   a.trips,
	}
}

// AccumulateHistory folds one calibrated trip into acc: each segment's
// feature vector joins the cumulative feature map and the landmark
// sequence joins the popular-route corpus. Extraction runs in a private
// feature context sharing the serving context's map resources:
// extraction is deterministic given the same graph, matcher and
// landmarks, and a private context keeps folded trips out of the
// long-lived serving edge cache, so neither retrains nor ingestion grow
// it.
func (s *Summarizer) AccumulateHistory(acc *HistoryAccumulator, sym *traj.Symbolic) {
	tctx := feature.NewContext(s.ctx.Graph, s.ctx.Matcher, s.ctx.Landmarks)
	tctx.HMM = s.ctx.HMM
	for _, seg := range sym.Segments() {
		v := s.registry.Extract(seg, tctx)
		acc.featMap.Add(seg.From.Landmark, seg.To.Landmark, v)
	}
	acc.seqs = append(acc.seqs, sym.LandmarkIDs())
	acc.trips++
}

// BuildIncrementalModel materializes an immutable Model from the
// accumulator's current knowledge without publishing it: the caller
// persists it, publishes it via LoadModel, or both. The returned model
// takes ownership of acc's state — do not mutate acc afterwards; when
// accumulation must continue, freeze a Clone under the ingestion lock
// and build from the clone.
func (s *Summarizer) BuildIncrementalModel(acc *HistoryAccumulator) *Model {
	return s.buildModel(acc, TrainStats{})
}

// buildModel builds every trained Model, Train's and each compaction's:
// it freezes acc into an immutable, unpublished Model that takes
// ownership of acc's state. stats carries the caller's own counts; the
// trip and transition counts come from acc, and routingOverlay supplies
// the routing overlay (reused from the serving model once one exists).
func (s *Summarizer) buildModel(acc *HistoryAccumulator, stats TrainStats) *Model {
	acc.featMap.Seal()
	stats.Calibrated = acc.trips
	stats.Transitions = acc.featMap.NumEdges()
	overlay := s.routingOverlay(&stats)
	return &Model{
		featureKeys:             s.featureKeys(),
		calibrationRadiusMeters: anchorRadiusMeters,
		minAnchorSpacingMeters:  anchorSpacingMeters,
		stats:                   stats,
		popular:                 history.BuildPopularFromSequences(acc.seqs),
		featMap:                 acc.featMap,
		overlay:                 overlay,
	}
}
