// Package registry turns a directory of per-region model files into one
// routable serving surface: a keyed map of atomic model cells, each
// holding an independently trained Summarizer for one geographic region
// (one city, one road network). It is the piece that lets a single
// stmakerd process serve N cities — the paper's summarizer is trained
// per road network, and covering many networks means many models, not
// one global graph.
//
// Each cell preserves the hot-swap semantics of stmaker.Summarizer:
// readers resolve a region to its summarizer lock-free, a per-region
// reload publishes a replacement model atomically, and requests in
// flight on other regions never notice. Models load lazily on first
// use from a -model-dir layout (see docs/MULTI_REGION.md) and are
// evicted least-recently-used when a configurable byte budget is
// exceeded, so a fleet of hundreds of city models can be fronted by a
// process sized for the hot few.
//
// Request routing is by explicit region key, or — for regions whose
// manifest declares a bounding box — by the box that contains a
// trajectory's first fix.
package registry

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stmaker"
	"stmaker/internal/geo"
	"stmaker/internal/landmark"
	"stmaker/internal/metrics"
	"stmaker/internal/modelio"
	"stmaker/internal/roadnet"
	"stmaker/internal/worldio"
)

// Metric names recorded by the registry. docs/OBSERVABILITY.md documents
// each; keep the two in sync. The Metric*Region* series live in each
// region's own registry (exposed under the region's key in the
// GET /metrics "regions" map); the Metric*Regions* gauges and the
// unknown-region counter live in the top-level registry.
const (
	// MetricRegionLoads counts completed model loads for the region —
	// cold loads from disk, not hot-swap reloads.
	MetricRegionLoads = "region_model_loads_total"
	// MetricRegionLoadFailures counts failed load or reload attempts for
	// the region; the region keeps serving its previous model (reload) or
	// stays unloaded (cold load).
	MetricRegionLoadFailures = "region_model_load_failures_total"
	// MetricRegionEvictions counts times the region's model was evicted
	// to fit the memory budget; the next request pays a cold load.
	MetricRegionEvictions = "region_model_evictions_total"
	// MetricRegionLoadSeconds times each cold load from disk (world +
	// model read, summarizer construction), successful or not.
	MetricRegionLoadSeconds = "region_model_load_seconds"
	// MetricRegionLoadRetries counts cold-load attempts retried after a
	// transient I/O failure (a momentary disk hiccup); deterministic
	// failures — missing, corrupt or mismatched model files — are never
	// retried.
	MetricRegionLoadRetries = "region_model_load_retries_total"
	// MetricRegionOverlayBytes is the resident size of the region's
	// precomputed ALT routing overlay (a gauge, 0 when the serving model
	// carries none — e.g. a pre-overlay model file). Overlay bytes are
	// part of the region's budget charge, so this gauge shows how much of
	// regions_loaded_bytes is routing tables.
	MetricRegionOverlayBytes = "region_overlay_bytes"
	// MetricRegionsDiscovered is the number of regions found at startup
	// (a gauge, constant after Open).
	MetricRegionsDiscovered = "regions_discovered"
	// MetricRegionsLoaded is the number of regions currently holding a
	// loaded model (a gauge).
	MetricRegionsLoaded = "regions_loaded"
	// MetricRegionsLoadedBytes is the total on-disk size of currently
	// loaded regions (a gauge) — the quantity the -model-budget eviction
	// keeps under the configured limit.
	MetricRegionsLoadedBytes = "regions_loaded_bytes"
	// MetricUnknownRegionRequests counts lookups of region keys that do
	// not exist; a growing value means clients are misconfigured.
	MetricUnknownRegionRequests = "region_requests_unknown_total"
)

// ErrUnknownRegion is returned when a request names a region the
// registry has never heard of — no such subdirectory of -model-dir.
// Servers map it to 404; contrast with a known region whose model fails
// to load, which is a 5xx-class condition.
var ErrUnknownRegion = errors.New("registry: unknown region")

// ErrNoRegions is returned by Open when the directory contains no
// region subdirectories at all.
var ErrNoRegions = errors.New("registry: no regions found")

// ErrRegionUnavailable wraps load failures that are neither a missing
// model file nor a corrupt/mismatched one — an unreadable world file, a
// permissions problem. The region exists and may become servable after
// an operator fix, so servers map it to 503 rather than 404 or 500.
var ErrRegionUnavailable = errors.New("registry: region unavailable")

// ErrNoReloadSource is returned by TriggerReload for a region with
// nothing to reload from: a NewStatic cell built without a reload
// source. Servers map it to 501.
var ErrNoReloadSource = errors.New("registry: region has no reload source")

// DefaultRegionName is the implicit region key used by NewStatic, i.e.
// by single-region servers wrapping one summarizer.
const DefaultRegionName = "default"

// NewSummarizerFunc builds a region's Summarizer from its loaded world.
// The registry passes the region's own metrics registry so each
// region's pipeline metrics stay separable; implementations must wire
// it into the Config they build.
type NewSummarizerFunc func(g *roadnet.Graph, lms *landmark.Set, mx *metrics.Registry) (*stmaker.Summarizer, error)

// Options configures a Registry.
type Options struct {
	// Logger receives load/evict/reload lines. Nil uses slog.Default().
	Logger *slog.Logger
	// Metrics is the top-level registry for fleet-wide gauges. Nil
	// creates a private one.
	Metrics *metrics.Registry
	// MaxBytes is the memory budget: when the summed on-disk size
	// (world + model files) of loaded regions exceeds it, least-
	// recently-used regions are evicted until it fits again. The budget
	// is soft for a single region — one region larger than the whole
	// budget still loads (with a warning) because refusing it would make
	// the region unservable. 0 means unlimited.
	MaxBytes int64
	// NewSummarizer builds each region's summarizer; nil uses a plain
	// stmaker.Config{Graph, Landmarks, Metrics}. cmd/stmakerd passes a
	// closure carrying its pipeline configuration (input sanitization,
	// -hmm) so every region runs the same pipeline.
	NewSummarizer NewSummarizerFunc
}

func (o Options) withDefaults() Options {
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	if o.NewSummarizer == nil {
		o.NewSummarizer = func(g *roadnet.Graph, lms *landmark.Set, mx *metrics.Registry) (*stmaker.Summarizer, error) {
			return stmaker.New(stmaker.Config{Graph: g, Landmarks: lms, Metrics: mx})
		}
	}
	return o
}

// cellState is the loaded portion of a cell, swapped in and out as one
// atomic pointer: a nil state means "not loaded". In-flight requests
// holding the summarizer keep serving even if the cell is evicted
// underneath them — the pointer they resolved stays valid.
type cellState struct {
	s *stmaker.Summarizer
	// bytes is the region's on-disk footprint (world + model file), the
	// cost the memory budget accounts it at.
	bytes int64
}

// cell is one region: its discovery-time metadata plus the atomically
// swapped loaded state. Loads are single-flight per cell (mu); state
// transitions (load, evict) happen only under the registry's budget
// lock so byte accounting and the loaded set never diverge. The
// designated publishers — NewStatic, load, evictLocked, reload — are
// the only functions allowed to swap the state pointer; `make lint`
// (atomiccell) rejects a raw .Store/.Swap anywhere else, because a
// bypass would desynchronize the byte accounting from the loaded set.
type cell struct {
	name      string
	dir       string
	worldFile string
	modelFile string
	bbox      *modelio.BBox
	mx        *metrics.Registry

	// pinned cells (the NewStatic wrapper) are never evicted. They have
	// no model file; source, when non-nil, rebuilds and publishes their
	// model on reload (stmakerd retrains from its -train corpus).
	pinned bool
	source func() error

	mu        sync.Mutex // serializes loads of this cell
	state     atomic.Pointer[cellState]
	lastUse   atomic.Int64 // registry clock tick of last resolve
	reloading atomic.Bool  // single-flight guard for TriggerReload
	// loadFailed remembers that the most recent load attempt failed (and
	// no state is serving), so /readyz?verbose=1 can distinguish a
	// region that is merely cold from one that is broken.
	loadFailed atomic.Bool
}

// Registry is the keyed map of region cells. Region resolution and
// summarizer lookup are safe for arbitrary concurrency.
type Registry struct {
	cells map[string]*cell
	names []string // sorted region keys
	opts  Options
	mx    *metrics.Registry
	log   *slog.Logger

	// budgetMu guards the byte accounting and all cellState stores, so
	// concurrent loads and evictions agree on what is loaded.
	budgetMu    sync.Mutex
	loadedBytes int64

	// clock is the LRU tick, bumped on every resolve.
	clock atomic.Int64
}

// Open discovers regions under dir and returns a lazy registry: nothing
// is loaded yet. A subdirectory is a region when it contains a
// region.json manifest or a world file under the default name; its
// directory name is its region key and must be a valid region name. A
// manifest that names a different region than its directory is an
// error — it would let two directories claim one key.
func Open(dir string, opts Options) (*Registry, error) {
	opts = opts.withDefaults()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: reading model dir: %w", err)
	}
	r := &Registry{
		cells: make(map[string]*cell),
		opts:  opts,
		mx:    opts.Metrics,
		log:   opts.Logger,
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		sub := filepath.Join(dir, name)
		manifestPath := filepath.Join(sub, modelio.ManifestFile)
		data, err := os.ReadFile(manifestPath)
		var m *modelio.Manifest
		switch {
		case err == nil:
			m, err = modelio.ParseManifest(data)
			if err != nil {
				return nil, fmt.Errorf("registry: region %q: %s: %w", name, modelio.ManifestFile, err)
			}
		case errors.Is(err, os.ErrNotExist):
			// No manifest: the directory is a region iff it carries a
			// world file under the default name. Anything else (logs,
			// backups) is skipped.
			if _, statErr := os.Stat(filepath.Join(sub, modelio.DefaultWorldFile)); statErr != nil {
				continue
			}
			m = &modelio.Manifest{World: modelio.DefaultWorldFile, Model: modelio.DefaultModelFile}
		default:
			return nil, fmt.Errorf("registry: region %q: reading %s: %w", name, modelio.ManifestFile, err)
		}
		if !modelio.ValidRegionName(name) {
			return nil, fmt.Errorf("registry: directory %q is not a valid region name", name)
		}
		if m.Region != "" && m.Region != name {
			return nil, fmt.Errorf("registry: directory %q has manifest claiming region %q", name, m.Region)
		}
		r.cells[name] = &cell{
			name:      name,
			dir:       sub,
			worldFile: filepath.Join(sub, m.World),
			modelFile: filepath.Join(sub, m.Model),
			bbox:      m.BBox,
			mx:        metrics.NewRegistry(),
		}
		r.names = append(r.names, name)
	}
	if len(r.cells) == 0 {
		return nil, fmt.Errorf("%w under %s", ErrNoRegions, dir)
	}
	sort.Strings(r.names)
	discovered := r.mx.Counter(MetricRegionsDiscovered) //nolint:stmaker/metricnames -- regions_discovered is a gauge (set once at startup), so the _total counter suffix does not apply
	discovered.Add(int64(len(r.cells)))
	return r, nil
}

// NewStatic wraps one already-constructed summarizer as a single-region
// registry under the given name (usually DefaultRegionName) — the path
// for servers built around a bare -world/-train/-model or an in-process
// Summarizer. The cell is pinned (never evicted) and carries no byte
// cost; readiness tracks the summarizer's own Trained state. source is
// the cell's reload: TriggerReload runs it in the background, and it
// must publish the new model itself (Train and LoadModel do). A nil
// source makes TriggerReload fail with ErrNoReloadSource. A nil
// opts.Metrics shares the summarizer's own registry as the top level, so
// the whole instance reports one flat snapshot.
func NewStatic(name string, s *stmaker.Summarizer, source func() error, opts Options) *Registry {
	if opts.Metrics == nil {
		opts.Metrics = s.Metrics()
	}
	opts = opts.withDefaults()
	r := &Registry{
		cells: make(map[string]*cell),
		names: []string{name},
		opts:  opts,
		mx:    opts.Metrics,
		log:   opts.Logger,
	}
	c := &cell{name: name, mx: s.Metrics(), pinned: true, source: source}
	c.state.Store(&cellState{s: s})
	r.cells[name] = c
	discovered := r.mx.Counter(MetricRegionsDiscovered) //nolint:stmaker/metricnames -- regions_discovered is a gauge (set once at startup), so the _total counter suffix does not apply
	discovered.Add(1)
	return r
}

// Names returns the sorted region keys.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// Static reports whether the registry wraps an in-process summarizer
// (NewStatic) rather than regions discovered under a model directory
// (Open). It depends on how the registry was built, never on how many
// regions it holds: a one-region Open registry is not Static.
func (r *Registry) Static() bool { return r.cells[r.names[0]].pinned }

// DefaultRegion returns the implicit region for requests that carry no
// region key: the sole region when there is exactly one, "" otherwise —
// a multi-region fleet has no safe default, requests must route by key
// or by geometry.
func (r *Registry) DefaultRegion() string {
	if len(r.names) == 1 {
		return r.names[0]
	}
	return ""
}

// Metrics exposes the top-level (fleet-wide) registry.
func (r *Registry) Metrics() *metrics.Registry { return r.mx }

// SeparateMetrics reports whether any region records into a metrics
// registry of its own rather than the top-level one: true for Open,
// false for NewStatic over its summarizer's registry. Servers nest the
// per-region snapshots in GET /metrics exactly when it is true, so no
// region's series go unreported.
func (r *Registry) SeparateMetrics() bool {
	for _, c := range r.cells {
		if c.mx != r.mx {
			return true
		}
	}
	return false
}

// RegionSnapshots returns each region's own metrics snapshot, keyed by
// region — the "regions" map of GET /metrics (see SeparateMetrics).
func (r *Registry) RegionSnapshots() map[string]metrics.Snapshot {
	out := make(map[string]metrics.Snapshot, len(r.cells))
	for name, c := range r.cells {
		out[name] = c.mx.Snapshot()
	}
	return out
}

// ReadyCount reports how many regions currently hold a trained, serving
// model. Readiness probes gate on it being at least one.
func (r *Registry) ReadyCount() int {
	n := 0
	for _, c := range r.cells {
		if st := c.state.Load(); st != nil && st.s.Trained() {
			n++
		}
	}
	return n
}

// RegionMetrics returns the named region's own metrics registry — the
// persistent per-region registry that survives evictions and reloads
// (the ingestion layer records its counters here so they show under the
// region's key in GET /metrics). It returns nil for unknown regions.
func (r *Registry) RegionMetrics(name string) *metrics.Registry {
	c, ok := r.cells[name]
	if !ok {
		return nil
	}
	return c.mx
}

// RegionStatus is one region's serving state for /readyz?verbose=1.
type RegionStatus struct {
	// Region is the region key.
	Region string `json:"region"`
	// State is "loaded" (model serving), "cold" (not loaded yet, will
	// load lazily) or "failed" (most recent load attempt failed and
	// nothing is serving).
	State string `json:"state"`
	// ModelVersion is the serving model's version, 0 unless loaded.
	ModelVersion uint64 `json:"model_version,omitempty"`
}

// Status reports every region's serving state in key order, so
// operators can see which city is degraded rather than only the
// fleet-level ready count.
func (r *Registry) Status() []RegionStatus {
	out := make([]RegionStatus, 0, len(r.names))
	for _, name := range r.names {
		c := r.cells[name]
		rs := RegionStatus{Region: name, State: "cold"}
		if st := c.state.Load(); st != nil {
			rs.State = "loaded"
			if m := st.s.Model(); m != nil {
				rs.ModelVersion = m.Version()
			}
		} else if c.loadFailed.Load() {
			rs.State = "failed"
		}
		out = append(out, rs)
	}
	return out
}

// Reloading reports whether a reload of the region is in flight.
//
//nolint:stmaker/testonly -- internal/server's reload tests wait on it to see a reload finish
func (r *Registry) Reloading(name string) bool {
	c, ok := r.cells[name]
	return ok && c.reloading.Load()
}

// Loaded reports whether the region currently holds a loaded model.
func (r *Registry) Loaded(name string) bool {
	c, ok := r.cells[name]
	return ok && c.state.Load() != nil
}

// Resolve routes a point to the region whose bounding box contains it,
// preferring the region whose centroid is nearest when boxes overlap,
// and the earlier name at equal distance. It returns false when no
// region's box contains the point; regions without a bbox are reachable
// by explicit key only. A fleet holds a handful of regions, so one scan
// over their boxes is all the index routing needs.
func (r *Registry) Resolve(p geo.Point) (string, bool) {
	best, bestD, found := "", math.Inf(1), false
	for _, name := range r.names {
		b := r.cells[name].bbox
		if b == nil || !b.Contains(p.Lat, p.Lng) {
			continue
		}
		lat, lng := b.Center()
		if d := geo.Distance(p, geo.Point{Lat: lat, Lng: lng}); !found || d < bestD {
			best, bestD, found = name, d, true
		}
	}
	return best, found
}

// Summarizer resolves a region key to its serving summarizer, loading
// the region's world and model from disk on first use (single-flight
// per region) and touching its LRU stamp. Error classes are the
// server's status map: ErrUnknownRegion for a key that does not exist,
// stmaker.ErrModelNotFound when the region exists but its model file
// does not, stmaker.ErrInvalidModel / stmaker.ErrModelMismatch for a
// model file that exists but cannot serve.
func (r *Registry) Summarizer(name string) (*stmaker.Summarizer, error) {
	c, ok := r.cells[name]
	if !ok {
		r.mx.Counter(MetricUnknownRegionRequests).Inc()
		return nil, fmt.Errorf("%w: %q", ErrUnknownRegion, name)
	}
	c.lastUse.Store(r.clock.Add(1))
	if st := c.state.Load(); st != nil {
		return st.s, nil
	}
	return r.load(c)
}

// load brings a cell's model into memory. The cell lock makes loads
// single-flight; the budget lock scopes the state publish and the
// eviction pass that pays for it.
func (r *Registry) load(c *cell) (*stmaker.Summarizer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A concurrent load may have won the race while we queued on the lock.
	if st := c.state.Load(); st != nil {
		return st.s, nil
	}
	t0 := time.Now()
	st, err := r.loadWithRetry(c)
	c.mx.Histogram(MetricRegionLoadSeconds).ObserveSince(t0)
	if err != nil {
		c.mx.Counter(MetricRegionLoadFailures).Inc()
		c.loadFailed.Store(true)
		r.log.Error("region load failed", "region", c.name, "error", err)
		// Pass the classified sentinels (model missing / corrupt /
		// mismatched) through for the server's status map; everything
		// else becomes the retriable ErrRegionUnavailable.
		if transientLoadError(err) {
			err = fmt.Errorf("%w: %v", ErrRegionUnavailable, err)
		}
		return nil, fmt.Errorf("registry: region %q: %w", c.name, err)
	}
	c.mx.Counter(MetricRegionLoads).Inc()
	c.loadFailed.Store(false)

	r.budgetMu.Lock()
	c.state.Store(st)
	r.loadedBytes += st.bytes
	c.setOverlayGaugeLocked(st.s.Model())
	r.accountLoadedLocked()
	if max := r.opts.MaxBytes; max > 0 && st.bytes > max {
		r.log.Warn("region alone exceeds the memory budget; loading anyway",
			"region", c.name, "bytes", st.bytes, "budget", max)
	}
	r.evictLocked(c)
	r.budgetMu.Unlock()

	r.log.Info("region loaded",
		"region", c.name,
		"bytes", st.bytes,
		"version", st.s.Model().Version(),
		"duration", time.Since(t0),
	)
	return st.s, nil
}

// Cold-load retry policy: a momentary disk hiccup (NFS blip, contended
// I/O) should not surface as an immediate 503 to the request that paid
// the cold load, so transient failures get a couple of quick retries
// with jittered backoff. Deterministic failures — a missing, corrupt or
// mismatched model file — retry never, because re-reading the same bytes
// cannot help.
const (
	coldLoadAttempts    = 3
	coldLoadBackoffBase = 50 * time.Millisecond
)

// transientLoadError reports whether a load failure is worth retrying:
// anything except the deterministic model-file sentinels.
func transientLoadError(err error) bool {
	return !errors.Is(err, stmaker.ErrModelNotFound) &&
		!errors.Is(err, stmaker.ErrInvalidModel) &&
		!errors.Is(err, stmaker.ErrModelMismatch)
}

// loadWithRetry wraps loadFromDisk in the retry policy, counting each
// retry in region_model_load_retries_total.
func (r *Registry) loadWithRetry(c *cell) (*cellState, error) {
	var st *cellState
	var err error
	for attempt := 1; ; attempt++ {
		st, err = r.loadFromDisk(c)
		if err == nil || attempt >= coldLoadAttempts || !transientLoadError(err) {
			return st, err
		}
		// Exponential backoff with full jitter keeps a burst of cold
		// requests from hammering a struggling disk in lockstep.
		backoff := coldLoadBackoffBase << (attempt - 1)
		backoff += time.Duration(rand.Int64N(int64(backoff)))
		c.mx.Counter(MetricRegionLoadRetries).Inc()
		r.log.Warn("region load failed transiently; retrying",
			"region", c.name, "attempt", attempt, "backoff", backoff, "error", err)
		time.Sleep(backoff)
	}
}

// loadFromDisk reads the region's world, builds its summarizer and
// warm-starts it from the model file. No registry locks are held: disk
// reads and summarizer construction are the slow part and must not
// block other regions.
func (r *Registry) loadFromDisk(c *cell) (*cellState, error) {
	wf, err := os.Open(c.worldFile)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	worldInfo, statErr := wf.Stat()
	graph, lms, err := worldio.LoadWorld(wf)
	wf.Close()
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	if statErr != nil {
		return nil, fmt.Errorf("world: %w", statErr)
	}
	s, err := r.opts.NewSummarizer(graph, lms, c.mx)
	if err != nil {
		return nil, err
	}
	m, err := stmaker.LoadModelFile(c.modelFile)
	if err != nil {
		return nil, err
	}
	if err := s.LoadModel(m); err != nil {
		return nil, err
	}
	bytes := worldInfo.Size()
	if mi, err := os.Stat(c.modelFile); err == nil {
		bytes += mi.Size()
	}
	bytes += overlayBytes(m)
	return &cellState{s: s, bytes: bytes}, nil
}

// overlayBytes is the resident table size of the model's precomputed
// routing overlay, 0 when there is no model or it carries no overlay.
// The dense tables dominate a loaded model's memory beyond what the
// on-disk file sizes already approximate, so they are charged
// explicitly — a budget that ignored them would under-evict exactly the
// regions carrying the most precomputation.
func overlayBytes(m *stmaker.Model) int64 {
	if m == nil || m.RoutingOverlay() == nil {
		return 0
	}
	return m.RoutingOverlay().MemoryBytes()
}

// setOverlayGaugeLocked points the region's region_overlay_bytes gauge at
// the serving model's overlay, or at 0 when m is nil (evicted). Callers
// hold budgetMu and set it together with the cell state, so a racing
// eviction cannot leave the gauge charging a region that is not loaded.
func (c *cell) setOverlayGaugeLocked(m *stmaker.Model) {
	c.mx.Counter(MetricRegionOverlayBytes).Set(overlayBytes(m)) //nolint:stmaker/metricnames -- region_overlay_bytes is a gauge (set to the serving overlay's resident size), so the _total counter suffix does not apply
}

// evictLocked evicts least-recently-used unpinned regions (never the
// just-loaded keep cell) until the loaded set fits the budget. Callers
// hold budgetMu. Evicted cells only lose their registry reference:
// requests that already resolved the summarizer finish on it, and the
// memory goes back when they do.
func (r *Registry) evictLocked(keep *cell) {
	max := r.opts.MaxBytes
	if max <= 0 {
		return
	}
	for r.loadedBytes > max {
		var victim *cell
		for _, c := range r.cells {
			if c == keep || c.pinned || c.state.Load() == nil {
				continue
			}
			if victim == nil || c.lastUse.Load() < victim.lastUse.Load() {
				victim = c
			}
		}
		if victim == nil {
			return // nothing evictable: the keep cell alone busts the budget
		}
		st := victim.state.Swap(nil)
		r.loadedBytes -= st.bytes
		victim.mx.Counter(MetricRegionEvictions).Inc()
		victim.setOverlayGaugeLocked(nil)
		r.accountLoadedLocked()
		r.log.Info("region evicted",
			"region", victim.name, "bytes", st.bytes, "loaded_bytes", r.loadedBytes)
	}
}

// accountLoadedLocked refreshes the fleet gauges; callers hold budgetMu.
func (r *Registry) accountLoadedLocked() {
	loaded := int64(0)
	for _, c := range r.cells {
		if c.state.Load() != nil {
			loaded++
		}
	}
	r.mx.Counter(MetricRegionsLoaded).Set(loaded)             //nolint:stmaker/metricnames -- regions_loaded is a gauge (set to the loaded-region count), so the _total counter suffix does not apply
	r.mx.Counter(MetricRegionsLoadedBytes).Set(r.loadedBytes) //nolint:stmaker/metricnames -- regions_loaded_bytes is a gauge (set to the loaded byte total), so the _total counter suffix does not apply
}

// Preload loads the named regions eagerly, so readiness does not wait
// for the first request. It stops at the first failure.
func (r *Registry) Preload(names []string) error {
	for _, name := range names {
		if _, err := r.Summarizer(name); err != nil {
			return err
		}
	}
	return nil
}

// PreloadAny loads regions in key order until one succeeds — the
// default boot behaviour: prove at least one region servable, leave the
// rest to lazy loading. It returns the loaded region, or an error
// joining every region's failure when none loads.
func (r *Registry) PreloadAny() (string, error) {
	var errs []error
	for _, name := range r.names {
		if _, err := r.Summarizer(name); err == nil {
			return name, nil
		} else {
			errs = append(errs, err)
		}
	}
	return "", errors.Join(errs...)
}

// TriggerReload starts a background reload of one region's model — the
// one reload mechanism behind SIGHUP and POST /admin/reload. A region
// from Open re-reads its model file; a NewStatic region runs its reload
// source (ErrNoReloadSource when it has none). Reloads are single-flight
// per region; a trigger while one is running returns started=false. For
// a loaded region the new model is hot-swapped into the serving
// summarizer (in-flight requests on this and every other region are
// unaffected); a region that is not currently loaded gets a plain cold
// load. A failed reload is logged and counted in the region's
// region_model_load_failures_total and the previous model keeps serving.
func (r *Registry) TriggerReload(name, reason string) (started bool, err error) {
	c, ok := r.cells[name]
	if !ok {
		r.mx.Counter(MetricUnknownRegionRequests).Inc()
		return false, fmt.Errorf("%w: %q", ErrUnknownRegion, name)
	}
	if c.pinned && c.source == nil {
		return false, fmt.Errorf("%w: %q", ErrNoReloadSource, name)
	}
	if !c.reloading.CompareAndSwap(false, true) {
		r.log.Warn("region reload already in progress, trigger dropped",
			"region", name, "reason", reason)
		return false, nil
	}
	r.log.Info("region reload starting", "region", name, "reason", reason)
	go func() {
		defer c.reloading.Store(false)
		t0 := time.Now()
		if err := r.reload(c); err != nil {
			c.mx.Counter(MetricRegionLoadFailures).Inc()
			r.log.Error("region reload failed, previous model keeps serving",
				"region", c.name, "reason", reason, "error", err, "duration", time.Since(t0))
			return
		}
		var version uint64
		if st := c.state.Load(); st != nil {
			if m := st.s.Model(); m != nil {
				version = m.Version()
			}
		}
		r.log.Info("region reload complete",
			"region", c.name, "reason", reason, "version", version, "duration", time.Since(t0))
	}()
	return true, nil
}

// reload runs a pinned cell's source, or re-reads the region's model
// file and publishes it. The slow work happens outside all locks; the
// publish is the summarizer's own atomic swap, so the serving path never
// blocks on a reload.
func (r *Registry) reload(c *cell) error {
	if c.pinned {
		return c.source()
	}
	st := c.state.Load()
	if st == nil {
		_, err := r.load(c)
		return err
	}
	m, err := stmaker.LoadModelFile(c.modelFile)
	if err != nil {
		return err
	}
	if err := st.s.LoadModel(m); err != nil {
		return err
	}
	// The model file may have grown or shrunk, and the new model's
	// routing overlay may differ from the old one's; re-stat the region's
	// files and re-charge the overlay so the budget tracks reality. A
	// stat failure keeps the old cost (the overlay gauge still reflects
	// the new model).
	newBytes := st.bytes
	wi, werr := os.Stat(c.worldFile)
	mi, merr := os.Stat(c.modelFile)
	if werr == nil && merr == nil {
		newBytes = wi.Size() + mi.Size() + overlayBytes(m)
	}
	r.budgetMu.Lock()
	// Skip the re-accounting if the cell was evicted (or re-loaded)
	// between our snapshot and here; whoever changed it owns the books.
	if c.state.Load() == st {
		c.state.Store(&cellState{s: st.s, bytes: newBytes})
		r.loadedBytes += newBytes - st.bytes
		c.setOverlayGaugeLocked(m)
		r.accountLoadedLocked()
		r.evictLocked(c)
	}
	r.budgetMu.Unlock()
	return nil
}

// ReloadLoaded triggers a reload of every currently-loaded region — the
// SIGHUP behaviour. It returns how many reloads started.
func (r *Registry) ReloadLoaded(reason string) int {
	n := 0
	for _, name := range r.names {
		if !r.Loaded(name) {
			continue
		}
		if started, err := r.TriggerReload(name, reason); err == nil && started {
			n++
		}
	}
	return n
}
