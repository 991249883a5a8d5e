package ingest

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stmaker"
	"stmaker/internal/registry"
)

// ServiceOptions configures the multi-region ingestion service.
type ServiceOptions struct {
	// Dir is the ingestion root; each region gets Dir/<region>.
	Dir string
	// CompactInterval is how often Run compacts every region's knowledge
	// into a published model (default 1 minute).
	CompactInterval time.Duration
	// BufferFixes and TripFixLimit are passed to every region's
	// IngesterOptions.
	BufferFixes  int
	TripFixLimit int
	// Logger defaults to slog.Default().
	Logger *slog.Logger
}

// Service fronts one Ingester per region, sharing the server's model
// registry: ingesters resolve their summarizer through it per operation,
// so registry evictions and reloads are followed, and compactions
// publish through the same per-region atomic cells /summarize reads.
//
// Regions with an existing ingest directory are recovered eagerly at
// construction (a crashed region must replay before serving resumes);
// other regions get their ingester lazily on first write. A region whose
// recovery fails keeps its WAL on disk and answers writes with the
// recovery error until a later attempt succeeds — reads are unaffected.
type Service struct {
	reg  *registry.Registry
	opts ServiceOptions

	mu        sync.Mutex
	ingesters map[string]*Ingester
}

// NewService builds the service and eagerly recovers every region that
// left an ingest directory behind. Per-region recovery failures are
// logged and deferred (retried on the region's next write), never fatal
// to boot.
func NewService(reg *registry.Registry, opts ServiceOptions) (*Service, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("ingest: ServiceOptions.Dir is required")
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.CompactInterval <= 0 {
		opts.CompactInterval = time.Minute
	}
	s := &Service{
		reg:       reg,
		opts:      opts,
		ingesters: make(map[string]*Ingester),
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: create ingest root: %w", err)
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: list ingest root: %w", err)
	}
	known := make(map[string]bool)
	for _, name := range reg.Names() {
		known[name] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if !known[name] {
			opts.Logger.Warn("ingest directory for unknown region left untouched", "region", name)
			continue
		}
		if _, err := s.Ingester(name); err != nil {
			opts.Logger.Error("ingest recovery deferred; region refuses writes until it succeeds",
				"region", name, "err", err)
		}
	}
	return s, nil
}

// Ingester returns (creating and recovering on first use) the named
// region's ingester. Unknown regions return registry.ErrUnknownRegion.
func (s *Service) Ingester(name string) (*Ingester, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ing := s.ingesters[name]; ing != nil {
		return ing, nil
	}
	// Resolving validates the region key and loads the region if needed —
	// recovery has to calibrate replayed trips, so the load is due anyway.
	resolve := func() (*stmaker.Summarizer, error) { return s.reg.Summarizer(name) }
	if _, err := resolve(); err != nil {
		return nil, err
	}
	ing, err := NewIngester(filepath.Join(s.opts.Dir, name), resolve, IngesterOptions{
		BufferFixes:  s.opts.BufferFixes,
		TripFixLimit: s.opts.TripFixLimit,
		Logger:       s.opts.Logger,
		Metrics:      s.reg.RegionMetrics(name),
	})
	if err != nil {
		return nil, err
	}
	s.ingesters[name] = ing
	return ing, nil
}

// active snapshots the current ingesters.
func (s *Service) active() map[string]*Ingester {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*Ingester, len(s.ingesters))
	for k, v := range s.ingesters {
		out[k] = v
	}
	return out
}

// CompactAll compacts every active region, returning the first error
// (each failure is already logged and contained per region).
func (s *Service) CompactAll() error {
	var first error
	for name, ing := range s.active() {
		if err := ing.CompactNow(); err != nil && first == nil {
			first = fmt.Errorf("ingest: region %q: %w", name, err)
		}
	}
	return first
}

// Run compacts on the configured interval until ctx is cancelled —
// cmd/stmakerd starts it alongside the HTTP listener.
func (s *Service) Run(ctx context.Context) {
	t := time.NewTicker(s.opts.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = s.CompactAll() // logged and counted per region
		}
	}
}

// Close seals every region's WAL; buffered open trips are rebuilt by the
// next boot's replay.
func (s *Service) Close() error {
	var first error
	for _, ing := range s.active() {
		if err := ing.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
