package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"stmaker"
	"stmaker/internal/geo"
	"stmaker/internal/metrics"
	"stmaker/internal/sanitize"
	"stmaker/internal/traj"
)

// Metric names recorded by an Ingester into its region's metrics
// registry. docs/OBSERVABILITY.md documents each; keep the two in sync.
const (
	// MetricFixes counts fixes accepted (WAL-appended and buffered).
	MetricFixes = "ingest_fixes_total"
	// MetricTripsClosed counts trips closed (explicitly or by the
	// per-trip fix limit) and handed to the fold.
	MetricTripsClosed = "ingest_trips_closed_total"
	// MetricTripsRejected counts closed trips the sanitizer or calibrator
	// refused; their fixes leave the buffer but add no knowledge.
	MetricTripsRejected = "ingest_trips_rejected_total"
	// MetricShed counts fixes rejected with 429 because the in-memory
	// trip buffer was full (backpressure).
	MetricShed = "ingest_shed_total"
	// MetricWALBytes is a gauge holding the WAL's on-disk size.
	MetricWALBytes = "ingest_wal_bytes"
	// MetricCompactions counts successful compactions (checkpoint written,
	// model published, covered segments truncated).
	MetricCompactions = "ingest_compactions_total"
	// MetricCompactionFailures counts failed compaction attempts; the
	// previous model and checkpoint stay in effect.
	MetricCompactionFailures = "ingest_compaction_failures_total"
	// MetricReplaySeconds times WAL replay at boot.
	MetricReplaySeconds = "ingest_replay_seconds"
)

// ErrBufferFull is returned by AddFix when the bounded in-memory trip
// buffer is at capacity; servers map it to 429 + Retry-After.
var ErrBufferFull = errors.New("ingest: trip buffer full")

const (
	// checkpointFile is the recovery manifest: JSON {seq, model} written
	// by atomic rename after the model file it names is durable.
	checkpointFile = "CHECKPOINT"
	modelPrefix    = "model-"
	modelExt       = ".stm"

	defaultBufferFixes  = 100_000
	defaultTripFixLimit = 5_000
)

// checkpoint is the on-disk recovery manifest. Records with sequence
// numbers <= Seq are fully represented by the named model file; recovery
// loads the model and replays only what came after.
type checkpoint struct {
	Seq   uint64 `json:"seq"`
	Model string `json:"model"`
}

// IngesterOptions configures one region's ingester. The zero value is
// usable.
type IngesterOptions struct {
	// BufferFixes bounds the total in-memory buffered fixes across open
	// trips (default 100000); beyond it AddFix sheds with ErrBufferFull.
	BufferFixes int
	// TripFixLimit force-closes a trip reaching this many fixes (default
	// 5000), so a client that never sends an end marker cannot pin buffer
	// capacity forever. The limit applies identically during replay, so
	// recovery reconstructs the same closes.
	TripFixLimit int
	// SegmentBytes is the WAL roll threshold (default 4 MiB).
	SegmentBytes int64
	// FS overrides the filesystem (fault injection); nil means the real
	// one.
	FS FS
	// Logger receives recovery and compaction lines; nil means
	// slog.Default().
	Logger *slog.Logger
	// Metrics receives the ingest counters — pass the region's own
	// registry so ingest traffic shows up under the region's key in
	// GET /metrics. Nil creates a private registry.
	Metrics *metrics.Registry
}

// openTrip is the in-memory buffer of one not-yet-closed trip.
type openTrip struct {
	object  string
	samples []traj.Sample
}

// Stats is a point-in-time snapshot of an ingester, for tests and
// operator probes.
type Stats struct {
	OpenTrips     int
	BufferedFixes int
	LastSeq       uint64
	CheckpointSeq uint64
	TripsFolded   int
	Replay        ReplayStats
}

// Ingester is one region's crash-safe ingestion state machine: fixes are
// WAL-appended before they are buffered, closed trips fold into a
// cumulative HistoryAccumulator, and CompactNow freezes the accumulator
// into a published Model plus an on-disk checkpoint that lets the WAL be
// truncated. All mutation is serialized by mu; the expensive half of a
// compaction (model build, persistence) runs outside it.
type Ingester struct {
	dir     string
	fs      FS
	log     *slog.Logger
	resolve func() (*stmaker.Summarizer, error)
	san     *sanitize.Sanitizer
	limit   int
	tripCap int

	cFixes        *metrics.Counter
	cTripsClosed  *metrics.Counter
	cTripsRejects *metrics.Counter
	cShed         *metrics.Counter
	cCompactions  *metrics.Counter
	cCompactFails *metrics.Counter
	gWALBytes     *metrics.Counter

	mu            sync.Mutex
	wal           *WAL
	acc           *stmaker.HistoryAccumulator
	trips         map[string]*openTrip
	buffered      int
	checkpointSeq uint64
	dirty         bool // a trip folded since the last checkpoint
	compacting    bool
	replay        ReplayStats
	tripsFolded   int
}

// NewIngester opens (creating if needed) the region's ingest directory
// and recovers: it loads the checkpoint model when present (falling back
// to the summarizer's currently-published model when the checkpoint is
// missing or unusable), replays WAL records past the checkpoint to
// rebuild open trips and fold closed ones, and publishes the checkpoint
// model so serving reflects the last compaction. Torn or corrupt WAL
// tails are dropped with a logged count — recovery never refuses to
// boot over them.
//
// resolve returns the region's serving summarizer; it is called per
// operation (not captured once) so registry evictions and reloads are
// followed naturally.
func NewIngester(dir string, resolve func() (*stmaker.Summarizer, error), opts IngesterOptions) (*Ingester, error) {
	if opts.FS == nil {
		opts.FS = osFS{}
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	if opts.BufferFixes <= 0 {
		opts.BufferFixes = defaultBufferFixes
	}
	if opts.TripFixLimit <= 0 {
		opts.TripFixLimit = defaultTripFixLimit
	}
	mx := opts.Metrics
	ing := &Ingester{
		dir:           dir,
		fs:            opts.FS,
		log:           opts.Logger,
		resolve:       resolve,
		san:           sanitize.New(sanitize.Options{}),
		limit:         opts.BufferFixes,
		tripCap:       opts.TripFixLimit,
		cFixes:        mx.Counter(MetricFixes),
		cTripsClosed:  mx.Counter(MetricTripsClosed),
		cTripsRejects: mx.Counter(MetricTripsRejected),
		cShed:         mx.Counter(MetricShed),
		cCompactions:  mx.Counter(MetricCompactions),
		cCompactFails: mx.Counter(MetricCompactionFailures),
		gWALBytes:     mx.Counter(MetricWALBytes), //nolint:stmaker/metricnames -- ingest_wal_bytes is a gauge (set to the WAL's on-disk size), so the _total counter suffix does not apply
		trips:         make(map[string]*openTrip),
	}
	sum, err := resolve()
	if err != nil {
		return nil, fmt.Errorf("ingest: resolve summarizer: %w", err)
	}
	if err := ing.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: create dir: %w", err)
	}

	base := sum.Model() // the operator's boot model (may be nil)
	cpModel, cpSeq := ing.loadCheckpoint(sum)
	if cpModel != nil {
		base = cpModel
		ing.checkpointSeq = cpSeq
	}
	ing.acc, err = sum.NewHistoryAccumulator(base)
	if err != nil {
		return nil, fmt.Errorf("ingest: seed accumulator: %w", err)
	}

	t0 := time.Now()
	wal, stats, err := OpenWAL(dir, func(seq uint64, rec Record) error {
		if seq <= ing.checkpointSeq {
			return nil // already represented by the checkpoint model
		}
		ing.applyLocked(sum, rec)
		return nil
	}, WALOptions{SegmentBytes: opts.SegmentBytes, FS: opts.FS, Logger: opts.Logger})
	if err != nil {
		return nil, err
	}
	mx.Histogram(MetricReplaySeconds).ObserveSince(t0)
	ing.wal = wal
	ing.replay = stats
	ing.updateWALGaugeLocked()
	if stats.SkippedEvents > 0 {
		ing.log.Warn("ingest recovery dropped corrupt wal records",
			"dir", dir, "skipped_events", stats.SkippedEvents, "skipped_bytes", stats.SkippedBytes)
	}
	ing.log.Info("ingest recovered",
		"dir", dir,
		"records", stats.Records,
		"segments", stats.Segments,
		"last_seq", stats.LastSeq,
		"checkpoint_seq", ing.checkpointSeq,
		"open_trips", len(ing.trips),
		"trips_folded", ing.tripsFolded,
		"duration", time.Since(t0),
	)

	// Publish the checkpoint model so serving reflects the last
	// compaction instead of the older boot model. Trips folded during
	// replay reach serving at the next compaction.
	if cpModel != nil {
		if err := sum.LoadModel(cpModel); err != nil {
			// Unreachable in practice: NewHistoryAccumulator already ran
			// the same compatibility check.
			ing.log.Error("ingest checkpoint model rejected at publish", "dir", dir, "err", err)
		}
	}
	return ing, nil
}

// loadCheckpoint reads and validates the recovery manifest, returning the
// model it names (nil when absent or unusable) and its sequence. An
// unusable checkpoint — unreadable JSON, missing or corrupt model file,
// configuration mismatch — falls back to full-WAL replay over the boot
// model rather than refusing to boot: the WAL segments still on disk are
// replayed from sequence zero, recovering everything they cover.
func (ing *Ingester) loadCheckpoint(sum *stmaker.Summarizer) (*stmaker.Model, uint64) {
	data, err := ing.fs.ReadFile(filepath.Join(ing.dir, checkpointFile))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			ing.log.Warn("ingest checkpoint unreadable; replaying full wal", "dir", ing.dir, "err", err)
		}
		return nil, 0
	}
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil || cp.Model == "" ||
		cp.Model != filepath.Base(cp.Model) || !strings.HasPrefix(cp.Model, modelPrefix) {
		ing.log.Warn("ingest checkpoint malformed; replaying full wal", "dir", ing.dir, "err", err)
		return nil, 0
	}
	m, err := stmaker.LoadModelFile(filepath.Join(ing.dir, cp.Model))
	if err != nil {
		ing.log.Warn("ingest checkpoint model unusable; replaying full wal",
			"dir", ing.dir, "model", cp.Model, "err", err)
		return nil, 0
	}
	if _, err := sum.NewHistoryAccumulator(m); err != nil {
		ing.log.Warn("ingest checkpoint model mismatches configuration; replaying full wal",
			"dir", ing.dir, "model", cp.Model, "err", err)
		return nil, 0
	}
	return m, cp.Seq
}

// applyLocked applies one record to the in-memory state — the shared
// core of live ingestion and replay. Callers hold mu (or, during
// recovery, have exclusive ownership).
func (ing *Ingester) applyLocked(sum *stmaker.Summarizer, rec Record) {
	switch rec.Kind {
	case KindFix:
		ot := ing.trips[rec.Trip]
		if ot == nil {
			ot = &openTrip{object: rec.Object}
			ing.trips[rec.Trip] = ot
		}
		ot.samples = append(ot.samples, traj.Sample{Pt: rec.Pt, T: rec.T})
		ing.buffered++
		if len(ot.samples) >= ing.tripCap {
			ing.closeLocked(sum, rec.Trip)
		}
	case KindClose:
		if ing.trips[rec.Trip] != nil {
			ing.closeLocked(sum, rec.Trip)
		}
	}
}

// closeLocked removes the trip from the buffer and folds it into the
// cumulative knowledge. Sanitizer and calibrator rejections drop the
// trip with a count — a malformed trip must never poison ingestion.
// Callers hold mu.
func (ing *Ingester) closeLocked(sum *stmaker.Summarizer, trip string) {
	ot := ing.trips[trip]
	delete(ing.trips, trip)
	ing.buffered -= len(ot.samples)
	ing.cTripsClosed.Inc()
	raw := &traj.Raw{ID: trip, Object: ot.object, Samples: ot.samples}
	repaired, _, err := ing.san.Sanitize(raw)
	if err != nil {
		ing.cTripsRejects.Inc()
		ing.log.Debug("ingest trip rejected by sanitizer", "trip", trip, "err", err)
		return
	}
	sym, err := sum.Calibrate(repaired)
	if err != nil {
		ing.cTripsRejects.Inc()
		ing.log.Debug("ingest trip rejected by calibration", "trip", trip, "err", err)
		return
	}
	sum.AccumulateHistory(ing.acc, sym)
	ing.tripsFolded++
	ing.dirty = true
}

// AddFix durably logs one GPS fix and buffers it on its trip. It returns
// ErrBufferFull (429) under backpressure; any other error means the WAL
// is degraded and writes should be refused (503) while reads keep
// serving.
func (ing *Ingester) AddFix(trip, object string, pt geo.Point, t time.Time) error {
	sum, err := ing.resolve()
	if err != nil {
		return err
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.buffered >= ing.limit {
		ing.cShed.Inc()
		return ErrBufferFull
	}
	if _, err := ing.wal.Append(Record{Kind: KindFix, Trip: trip, Object: object, Pt: pt, T: t}); err != nil {
		return err
	}
	ing.cFixes.Inc()
	ing.applyLocked(sum, Record{Kind: KindFix, Trip: trip, Object: object, Pt: pt, T: t})
	return nil
}

// CloseTrip durably logs an end-of-trip marker and folds the trip. A
// close for a trip with no buffered fixes is a no-op (closing is
// idempotent).
func (ing *Ingester) CloseTrip(trip string) error {
	sum, err := ing.resolve()
	if err != nil {
		return err
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.trips[trip] == nil {
		return nil
	}
	if _, err := ing.wal.Append(Record{Kind: KindClose, Trip: trip}); err != nil {
		return err
	}
	ing.applyLocked(sum, Record{Kind: KindClose, Trip: trip})
	return nil
}

// Sync makes everything appended so far durable — the acknowledgement
// barrier the HTTP handler runs before answering 2xx.
func (ing *Ingester) Sync() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.wal.Sync()
}

// CompactNow freezes the cumulative knowledge into a new immutable
// Model, persists it plus a checkpoint manifest, publishes it through
// the region's atomic model cell, and truncates WAL segments the
// checkpoint covers. Only the freeze itself — an accumulator clone, a
// segment roll, and a re-log of buffered open-trip fixes — runs under
// the ingestion lock; the model build and persistence happen alongside
// live traffic.
//
// Failure at any point is contained: the previous model keeps serving,
// the previous checkpoint stays in effect, and the WAL still covers
// everything acknowledged. A compaction with nothing new since the last
// checkpoint is a no-op.
func (ing *Ingester) CompactNow() error {
	sum, err := ing.resolve()
	if err != nil {
		return err
	}
	ing.mu.Lock()
	if ing.compacting || !ing.dirty {
		ing.mu.Unlock()
		return nil
	}
	ing.compacting = true
	// Clone, don't alias: the accumulator keeps mutating under new fixes
	// while the frozen copy becomes (immutable) model state — the same
	// ownership handoff the modelmut lint check guards downstream.
	frozen := ing.acc.Clone()
	barrier := ing.wal.LastSeq()
	err = ing.wal.Roll()
	if err == nil {
		// Re-log buffered open-trip fixes past the barrier: their original
		// records are about to be truncated away with the covered
		// segments, and an open trip is not in the frozen knowledge yet.
		// Replay applies the copies identically (per-trip order is
		// preserved; cross-trip order does not matter).
		for trip, ot := range ing.trips {
			for _, s := range ot.samples {
				if _, aerr := ing.wal.Append(Record{Kind: KindFix, Trip: trip, Object: ot.object, Pt: s.Pt, T: s.T}); aerr != nil {
					err = aerr
					break
				}
			}
			if err != nil {
				break
			}
		}
	}
	ing.dirty = false
	ing.mu.Unlock()
	if err != nil {
		return ing.compactionFailed(fmt.Errorf("ingest: compaction freeze: %w", err))
	}

	model := sum.BuildIncrementalModel(frozen)
	modelName := fmt.Sprintf("%s%016x%s", modelPrefix, barrier, modelExt)
	if err := ing.writeFileAtomic(modelName, func(f File) error {
		_, werr := model.WriteTo(f)
		return werr
	}); err != nil {
		return ing.compactionFailed(fmt.Errorf("ingest: persist compaction model: %w", err))
	}
	// The re-logged fixes must be durable before their originals'
	// segments are deleted, and the model must be durable before the
	// checkpoint names it; the checkpoint rename is the commit point.
	if err := ing.Sync(); err != nil {
		return ing.compactionFailed(fmt.Errorf("ingest: compaction wal sync: %w", err))
	}
	cp, merr := json.Marshal(checkpoint{Seq: barrier, Model: modelName})
	if merr != nil {
		return ing.compactionFailed(fmt.Errorf("ingest: encode checkpoint: %w", merr))
	}
	if err := ing.writeFileAtomic(checkpointFile, func(f File) error {
		_, werr := f.Write(cp)
		return werr
	}); err != nil {
		return ing.compactionFailed(fmt.Errorf("ingest: persist checkpoint: %w", err))
	}
	ing.wal.TruncateThrough(barrier)
	ing.removeStaleModels(modelName)
	if err := sum.LoadModel(model); err != nil {
		return ing.compactionFailed(fmt.Errorf("ingest: publish compaction model: %w", err))
	}

	ing.mu.Lock()
	ing.checkpointSeq = barrier
	ing.compacting = false
	ing.updateWALGaugeLocked()
	ing.mu.Unlock()
	ing.cCompactions.Inc()
	ing.log.Info("ingest compaction published",
		"dir", ing.dir,
		"checkpoint_seq", barrier,
		"trips", frozen.Trips(),
		"transitions", frozen.Transitions(),
		"model", modelName,
	)
	return nil
}

// compactionFailed records a contained compaction failure: the previous
// model and checkpoint stay in effect, and the knowledge stays dirty so
// the next interval retries.
func (ing *Ingester) compactionFailed(err error) error {
	ing.mu.Lock()
	ing.compacting = false
	ing.dirty = true
	ing.mu.Unlock()
	ing.cCompactFails.Inc()
	ing.log.Error("ingest compaction failed; previous model keeps serving", "dir", ing.dir, "err", err)
	return err
}

// writeFileAtomic writes a file durably via temp + fsync + rename.
func (ing *Ingester) writeFileAtomic(name string, write func(File) error) error {
	tmp := filepath.Join(ing.dir, name+".tmp")
	f, err := ing.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
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
	return ing.fs.Rename(tmp, filepath.Join(ing.dir, name))
}

// removeStaleModels deletes compaction model files other than the one
// the current checkpoint names. Failures are logged, not fatal: a stale
// model costs disk, and the next compaction retries.
func (ing *Ingester) removeStaleModels(keep string) {
	entries, err := ing.fs.ReadDir(ing.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if name == keep || !strings.HasPrefix(name, modelPrefix) ||
			!(strings.HasSuffix(name, modelExt) || strings.HasSuffix(name, modelExt+".tmp")) {
			continue
		}
		if rerr := ing.fs.Remove(filepath.Join(ing.dir, name)); rerr != nil {
			ing.log.Warn("ingest failed to remove stale model", "file", name, "err", rerr)
		}
	}
}

// updateWALGaugeLocked refreshes the WAL-size gauge; callers hold mu (or
// have exclusive ownership during recovery).
func (ing *Ingester) updateWALGaugeLocked() {
	ing.gWALBytes.Set(ing.wal.Bytes())
}

// Stats snapshots the ingester for tests and probes.
//
//nolint:stmaker/testonly -- internal/server's crash test reads the replay and checkpoint counts through it
func (ing *Ingester) Stats() Stats {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return Stats{
		OpenTrips:     len(ing.trips),
		BufferedFixes: ing.buffered,
		LastSeq:       ing.wal.LastSeq(),
		CheckpointSeq: ing.checkpointSeq,
		TripsFolded:   ing.tripsFolded,
		Replay:        ing.replay,
	}
}

// Close seals the WAL. Buffered open trips stay on disk in the WAL and
// are rebuilt by the next boot's replay.
func (ing *Ingester) Close() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.wal.Close()
}
