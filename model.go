package stmaker

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"stmaker/internal/history"
	"stmaker/internal/modelio"
	"stmaker/internal/roadnet"
)

// ErrModelMismatch is returned by LoadModel when a model was built under
// a different configuration than the receiving Summarizer: a different
// feature registry (keys, order or numeric-vs-categorical kinds) or
// different calibration parameters. Serving with such a model would
// silently misinterpret every feature vector, so the load is refused.
var ErrModelMismatch = errors.New("stmaker: model does not match summarizer configuration")

// ErrInvalidModel marks a structurally invalid model file: bad magic,
// checksum mismatch, truncation, or a payload violating the format's
// invariants. It is the model-file analogue of ErrInvalidInput.
var ErrInvalidModel = modelio.ErrInvalidModel

// ErrModelNotFound is returned by LoadModelFile when the model file does
// not exist. Callers that serve models over HTTP use it to distinguish
// "no such model" (404) from "model present but unusable" (ErrInvalidModel
// or ErrModelMismatch, a 500-class failure).
var ErrModelNotFound = errors.New("stmaker: model file not found")

// Model is an immutable snapshot of everything Train produces (§V): the
// historical feature map, the popular-route statistics, the feature
// registry fingerprint and the calibration parameters the corpus was
// rewritten under, plus corpus statistics and a monotonically increasing
// version. A Summarizer holds its current Model behind an atomic pointer:
// Train and LoadModel build a complete replacement off to the side and
// publish it in one swap, so concurrent Summarize calls always see one
// consistent knowledge snapshot and re-training while serving is a
// supported, race-free operation.
//
// Models are immutable after publication — treat everything reachable
// from the accessors as read-only. They serialize to a versioned,
// checksummed binary format via WriteTo and ReadModelFrom (see
// internal/modelio), which is what stmakerd's -model / -save-model
// warm-start path uses.
type Model struct {
	version                 uint64
	featureKeys             []string
	calibrationRadiusMeters float64
	minAnchorSpacingMeters  float64
	stats                   TrainStats
	popular                 *history.Popular
	featMap                 *history.FeatureMap
	// overlay is the precomputed ALT routing overlay (nil when trained
	// without HMM matching or loaded from a pre-overlay file — serving
	// then falls back to plain Dijkstra, never an error).
	overlay *roadnet.Overlay
}

// Version is the model's publish sequence number: assigned when the
// model is published into a Summarizer, strictly increasing across
// publishes within a process (a model loaded from disk keeps its saved
// version when that is already ahead). Exported as the `model_version`
// gauge.
func (m *Model) Version() uint64 { return m.version }

// FeatureKeys returns the feature registry fingerprint the model was
// built under: every feature key in vector order.
func (m *Model) FeatureKeys() []string {
	return append([]string(nil), m.featureKeys...)
}

// Stats returns the corpus statistics of the Train call that built the
// model. For a model built by a compaction (BuildIncrementalModel),
// Calibrated counts the accumulated trips and the skip and repair counts
// are zero.
func (m *Model) Stats() TrainStats { return m.stats }

// NumTransitions returns the number of annotated landmark transitions in
// the historical feature map.
func (m *Model) NumTransitions() int { return m.featMap.NumEdges() }

// Popular exposes the popular-route knowledge. Read-only.
func (m *Model) Popular() *history.Popular { return m.popular }

// FeatureMap exposes the historical feature map. Read-only.
func (m *Model) FeatureMap() *history.FeatureMap { return m.featMap }

// RoutingOverlay exposes the precomputed ALT routing overlay, or nil when
// the model carries none: it was trained without HMM matching
// (Config.UseHMMMatching), or loaded from a file written before the
// overlay existed. An HMM summarizer serving such a model routes through
// the plain Dijkstra engine. Read-only.
func (m *Model) RoutingOverlay() *roadnet.Overlay { return m.overlay }

// WriteTo serializes the model in the versioned, CRC-checksummed binary
// format of internal/modelio, implementing io.WriterTo. The encoding is
// deterministic: writing the same model twice produces identical bytes.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	data := &modelio.Model{
		Version:                 m.version,
		FeatureKeys:             m.FeatureKeys(),
		CalibrationRadiusMeters: m.calibrationRadiusMeters,
		MinAnchorSpacingMeters:  m.minAnchorSpacingMeters,
		Stats: modelio.Stats{
			Calibrated: m.stats.Calibrated,
			Skipped:    m.stats.Skipped,
			Repaired:   m.stats.Repaired,
			Repairs:    m.stats.Repairs,
		},
		PopularSeqs: m.popular.Sequences(),
		Categorical: m.featMap.CategoricalDims(),
	}
	for _, e := range m.featMap.EdgesSorted() {
		n, sums, cats, ok := m.featMap.Aggregate(e[0], e[1])
		if !ok {
			continue // unreachable: EdgesSorted only lists annotated edges
		}
		edge := modelio.Edge{From: e[0], To: e[1], N: n, Sums: sums}
		for j, counts := range cats {
			if counts == nil {
				continue
			}
			cd := modelio.CatDim{Dim: j}
			for v, c := range counts {
				cd.Values = append(cd.Values, modelio.ValueCount{Value: v, Count: c})
			}
			edge.Cats = append(edge.Cats, cd)
		}
		data.Edges = append(data.Edges, edge)
	}
	if m.overlay != nil && m.overlay.NumLandmarks() > 0 {
		fwd, bwd := m.overlay.Tables()
		ov := &modelio.Overlay{NumNodes: m.overlay.NumNodes(), Fwd: fwd, Bwd: bwd}
		for _, id := range m.overlay.LandmarkNodes() {
			ov.Landmarks = append(ov.Landmarks, int(id))
		}
		data.Overlay = ov
	}
	return modelio.Write(w, data)
}

// ReadModelFrom deserializes a model written by WriteTo (or stmakerd
// -save-model). The input is treated as untrusted: structural problems
// return an error wrapping ErrInvalidModel, never a panic. The returned
// model is not yet attached to any Summarizer — pass it to LoadModel,
// which verifies it matches the summarizer's configuration.
func ReadModelFrom(r io.Reader) (*Model, error) {
	data, err := modelio.Read(r)
	if err != nil {
		return nil, err
	}
	featMap := history.NewFeatureMap(len(data.FeatureKeys))
	for j, c := range data.Categorical {
		if c {
			featMap.MarkCategorical(j)
		}
	}
	for _, e := range data.Edges {
		var cats []map[float64]int
		if len(e.Cats) > 0 {
			cats = make([]map[float64]int, len(data.FeatureKeys))
			for _, cd := range e.Cats {
				counts := make(map[float64]int, len(cd.Values))
				for _, vc := range cd.Values {
					counts[vc.Value] = vc.Count
				}
				cats[cd.Dim] = counts
			}
		}
		if err := featMap.AddAggregate(e.From, e.To, e.N, e.Sums, cats); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidModel, err)
		}
	}
	featMap.Seal()
	stats := TrainStats{
		Calibrated:  data.Stats.Calibrated,
		Skipped:     data.Stats.Skipped,
		Repaired:    data.Stats.Repaired,
		Repairs:     data.Stats.Repairs,
		Transitions: featMap.NumEdges(),
	}
	var overlay *roadnet.Overlay
	if ov := data.Overlay; ov != nil {
		landmarks := make([]roadnet.NodeID, len(ov.Landmarks))
		for i, id := range ov.Landmarks {
			landmarks[i] = roadnet.NodeID(id)
		}
		overlay, err = roadnet.NewOverlayFromTables(landmarks, ov.NumNodes, ov.Fwd, ov.Bwd)
		if err != nil {
			return nil, fmt.Errorf("%w: routing overlay: %v", ErrInvalidModel, err)
		}
	}
	return &Model{
		version:                 data.Version,
		featureKeys:             data.FeatureKeys,
		calibrationRadiusMeters: data.CalibrationRadiusMeters,
		minAnchorSpacingMeters:  data.MinAnchorSpacingMeters,
		stats:                   stats,
		popular:                 history.BuildPopularFromSequences(data.PopularSeqs),
		featMap:                 featMap,
		overlay:                 overlay,
	}, nil
}

// LoadModelFile reads a model file from disk, classifying failures so
// callers can map them to distinct responses: a missing file returns an
// error wrapping ErrModelNotFound, structural corruption wraps
// ErrInvalidModel (via ReadModelFrom), and anything else (permissions,
// I/O) is returned as-is. The returned model is not yet attached to any
// Summarizer — pass it to LoadModel.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %v", ErrModelNotFound, err)
		}
		return nil, err
	}
	defer f.Close()
	return ReadModelFrom(f)
}

// Model returns the currently-published knowledge snapshot, or nil before
// the first Train/LoadModel. The same pointer keeps serving even if a
// retrain publishes a successor, so a caller holding it sees a stable
// view.
func (s *Summarizer) Model() *Model { return s.model.Load() }

// SaveModel serializes the currently-published model to w (see
// Model.WriteTo). It returns ErrNotTrained when no model has been
// published yet.
func (s *Summarizer) SaveModel(w io.Writer) (int64, error) {
	m := s.model.Load()
	if m == nil {
		return 0, ErrNotTrained
	}
	return m.WriteTo(w)
}

// SaveModelFile persists the currently-published model to path
// atomically: it writes a temp file in path's directory, syncs it and
// renames it over path, so a crash mid-write never leaves a truncated
// model file for the next LoadModelFile to trip on. Like SaveModel it
// returns ErrNotTrained when no model has been published yet; on any
// failure the temp file is removed and path is left as it was.
func (s *Summarizer) SaveModelFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if _, err := s.SaveModel(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// LoadModel verifies that m was built under this Summarizer's
// configuration and atomically publishes it, replacing any current model
// — the warm-start path that makes stmakerd boot in milliseconds instead
// of re-training. The model must carry exactly the summarizer's feature
// registry (same keys, same order, same numeric/categorical kinds) and
// the same calibration parameters; any disagreement returns
// ErrModelMismatch and leaves the serving model untouched. m itself is
// not mutated and may be loaded into several summarizers.
func (s *Summarizer) LoadModel(m *Model) error {
	if m == nil {
		return errors.New("stmaker: LoadModel called with nil model")
	}
	if err := s.checkCompatible(m); err != nil {
		return err
	}
	s.publish(*m)
	return nil
}

// checkCompatible verifies the model's fingerprint against the
// summarizer's registry and calibration configuration.
func (s *Summarizer) checkCompatible(m *Model) error {
	descs := s.registry.Descriptors()
	if len(m.featureKeys) != len(descs) {
		return fmt.Errorf("%w: model has %d features %v, registry has %d %v",
			ErrModelMismatch, len(m.featureKeys), m.featureKeys, len(descs), s.featureKeys())
	}
	categorical := m.featMap.CategoricalDims()
	for i, d := range descs {
		if m.featureKeys[i] != d.Key {
			return fmt.Errorf("%w: feature %d is %q in the model but %q in the registry",
				ErrModelMismatch, i, m.featureKeys[i], d.Key)
		}
		if categorical[i] == d.Numeric {
			return fmt.Errorf("%w: feature %q is categorical=%v in the model but numeric=%v in the registry",
				ErrModelMismatch, d.Key, categorical[i], d.Numeric)
		}
	}
	// Bit-exact comparison: the parameters are copied verbatim from the
	// summarizer's constants at build time, so any drift means the model
	// was calibrated differently.
	if math.Float64bits(m.calibrationRadiusMeters) != math.Float64bits(anchorRadiusMeters) {
		return fmt.Errorf("%w: model calibrated with radius %gm, summarizer uses %gm",
			ErrModelMismatch, m.calibrationRadiusMeters, float64(anchorRadiusMeters))
	}
	if math.Float64bits(m.minAnchorSpacingMeters) != math.Float64bits(anchorSpacingMeters) {
		return fmt.Errorf("%w: model calibrated with anchor spacing %gm, summarizer uses %gm",
			ErrModelMismatch, m.minAnchorSpacingMeters, float64(anchorSpacingMeters))
	}
	// The overlay's distance tables are keyed by node id, so a model whose
	// overlay was built over a different road graph would hand out bounds
	// for the wrong nodes. An absent overlay is always fine (plain-engine
	// fallback); a present one must cover exactly this graph.
	if m.overlay != nil && m.overlay.NumNodes() != s.cfg.Graph.NumNodes() {
		return fmt.Errorf("%w: model routing overlay covers %d road nodes, graph has %d",
			ErrModelMismatch, m.overlay.NumNodes(), s.cfg.Graph.NumNodes())
	}
	return nil
}

// featureKeys snapshots the registry fingerprint in vector order.
func (s *Summarizer) featureKeys() []string {
	descs := s.registry.Descriptors()
	keys := make([]string, len(descs))
	for i, d := range descs {
		keys[i] = d.Key
	}
	return keys
}

// publish installs a new model as the serving snapshot in one atomic
// swap, assigning it the next version. Publication is serialized (the
// mutex) but readers stay lock-free: a concurrent Summarize either sees
// the old complete model or the new complete model, never a mix. The
// model is passed by value so the published copy is owned here and the
// caller's Model (possibly shared or re-loaded elsewhere) is not mutated.
// This is the cell's sole designated publisher: `make lint` (atomiccell)
// rejects any other .Store/.Swap on the model cell, and (modelmut) any
// in-place write to a Model outside the builders.
func (s *Summarizer) publish(m Model) *Model {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	var prev uint64
	if cur := s.model.Load(); cur != nil {
		prev = cur.version
	}
	if m.version <= prev {
		m.version = prev + 1
	}
	s.model.Store(&m)
	// Re-point the HMM matcher's router at the new model's overlay (plain
	// bounded Dijkstra when it has none). Routers are exact —
	// bit-identical distances — so requests in flight during the swap
	// are unaffected whichever router answers them.
	if h := s.ctx.HMM; h != nil {
		h.SetRouter(roadnet.NewALTRouter(s.cfg.Graph, m.overlay))
	}
	s.mx.Counter(MetricModelSwaps).Inc()
	s.mx.Counter(MetricModelVersion).Set(int64(m.version)) //nolint:stmaker/metricnames -- model_version is a gauge (set to the serving model's version), so the _total counter suffix does not apply
	return &m
}
