// Package server exposes a trained Summarizer over HTTP, mirroring the
// online STMaker demo system (Su et al., VLDB 2014): POST a raw trajectory,
// get its summary back. It backs cmd/stmakerd.
//
// Beyond the summarization endpoint the server carries the observability
// and resilience surface of the serving path: every request passes
// through middleware that records count/latency/status metrics, emits
// one structured log line (log/slog), recovers panics into 500s, and
// sheds load past the in-flight limit with 503s; request bodies are
// capped (413), expensive handlers run under a per-request deadline
// (504), GET /metrics serves a JSON snapshot of the shared metrics
// registry, GET /readyz reflects drain state for load balancers, and the
// Go pprof profiling handlers can be mounted opt-in under /debug/pprof/.
// The Serve helper runs the whole thing under an http.Server with
// connection timeouts and graceful shutdown. docs/API.md documents the
// wire format; docs/OBSERVABILITY.md documents every metric name;
// docs/ROBUSTNESS.md documents the failure-mode contract.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stmaker"
	"stmaker/internal/geo"
	"stmaker/internal/ingest"
	"stmaker/internal/metrics"
	"stmaker/internal/registry"
	"stmaker/internal/traj"
)

// DefaultMaxBodyBytes caps POST /summarize request bodies: 4 MiB holds
// a trajectory of roughly 40k verbose-JSON samples — days of driving at
// typical sampling rates — while keeping a hostile client from staging
// gigabytes in memory.
const DefaultMaxBodyBytes int64 = 4 << 20

// Server handles summarization requests against a region registry — a
// registry of one wrapping a single Summarizer, or N lazily-loaded
// regional models from a -model-dir. It is safe for concurrent use.
type Server struct {
	reg *registry.Registry

	mux     *http.ServeMux
	handler http.Handler
	mx      *metrics.Registry
	logger  *slog.Logger
	opts    Options

	// ready gates GET /readyz: true while serving, flipped false when a
	// drain begins so load balancers stop routing here. Readiness also
	// requires a published model — see handleReady.
	ready atomic.Bool
	// ingest is the streaming-ingestion service (nil unless
	// Options.Ingest was set).
	ingest *ingest.Service
	// limiter is the in-flight semaphore for non-infrastructure routes;
	// nil means unlimited.
	limiter chan struct{}
}

// Options configures the optional parts of the server.
type Options struct {
	// Logger receives one structured line per request. Nil uses
	// slog.Default(); use DiscardLogger() to silence request logging.
	Logger *slog.Logger
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/. Off by default: profiling endpoints expose stack
	// and heap internals and cost CPU while sampling, so they are
	// opt-in (the -pprof flag of cmd/stmakerd).
	EnablePprof bool
	// MaxBodyBytes caps the request body of POST /summarize; an
	// oversized body gets 413. 0 uses DefaultMaxBodyBytes; negative
	// disables the cap. POST /summarize/batch carries many trajectories
	// in one body, so its cap is this value × 16 (see batch.go).
	MaxBodyBytes int64
	// MaxBatchItems caps the items of one batch request; a larger batch
	// is rejected whole with 413. 0 uses DefaultMaxBatchItems; negative
	// disables the cap.
	MaxBatchItems int
	// MaxInFlight bounds concurrently-handled requests on all routes
	// except the infrastructure endpoints (/healthz, /readyz, /metrics,
	// /debug/pprof/). Requests beyond the limit are shed immediately
	// with 503 + Retry-After. 0 means unlimited.
	MaxInFlight int
	// RequestTimeout bounds each summarization: the pipeline checks the
	// deadline between stages and the request fails with 504 when it
	// expires. 0 means no deadline.
	RequestTimeout time.Duration
	// EnableAdmin mounts the mutating operational endpoints (currently
	// POST /admin/reload). Off by default: a reload can cost a full
	// retrain, so the endpoint is opt-in (the -admin flag of
	// cmd/stmakerd) and meant to stay behind the operator's network
	// boundary.
	EnableAdmin bool
	// Ingest, when non-nil, mounts POST /ingest: a crash-safe NDJSON
	// streaming endpoint that WAL-appends GPS fixes before acknowledging
	// and folds closed trips into the region's knowledge (see
	// internal/ingest and the -ingest-dir flag of cmd/stmakerd). The
	// server builds the ingest.Service against its own region registry;
	// regions with ingest state on disk are recovered during New. Use
	// Server.Ingest to reach the service (compaction loop, shutdown).
	Ingest *ingest.ServiceOptions
}

func (o Options) withDefaults() Options {
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return o
}

// DiscardLogger returns a logger that drops every record — for tests and
// embedders that do their own request logging.
func DiscardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// NewWithOptions builds a server. The summarizer's metrics registry is
// shared with the HTTP middleware so one GET /metrics snapshot covers
// both pipeline stages and request traffic. The summarizer need not be
// trained yet: until a model is published (Train or LoadModel),
// GET /readyz answers 503 so load balancers hold traffic, and a
// summarization request that does slip through gets a 503 rather than a
// wrong answer.
func NewWithOptions(s *stmaker.Summarizer, opts Options) (*Server, error) {
	if s == nil {
		return nil, fmt.Errorf("server: summarizer is required")
	}
	// The summarizer is wrapped as a pinned registry of one under the
	// implicit default region, with no reload source: POST /admin/reload
	// answers 501. Embedders that want reloads build the registry with
	// registry.NewStatic and a source, then call NewMultiRegion.
	reg := registry.NewStatic(registry.DefaultRegionName, s, nil, registry.Options{Logger: opts.Logger})
	return NewMultiRegion(reg, opts)
}

// NewMultiRegion builds a server over a region registry (see
// internal/registry and docs/MULTI_REGION.md): requests route to a
// region by explicit key, by the sole region, or by the spatial index
// over region bounding boxes, and POST /admin/reload triggers the
// registry's reload of one region.
func NewMultiRegion(reg *registry.Registry, opts Options) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("server: registry is required")
	}
	opts = opts.withDefaults()
	srv := &Server{
		reg:    reg,
		mux:    http.NewServeMux(),
		mx:     reg.Metrics(),
		logger: opts.Logger,
		opts:   opts,
	}
	if opts.MaxInFlight > 0 {
		srv.limiter = make(chan struct{}, opts.MaxInFlight)
	}
	srv.ready.Store(true)
	srv.mux.HandleFunc("/summarize", srv.handleSummarize)
	srv.mux.HandleFunc("/summarize/batch", srv.handleBatch)
	if opts.Ingest != nil {
		svc, err := ingest.NewService(reg, *opts.Ingest)
		if err != nil {
			return nil, fmt.Errorf("server: ingest: %w", err)
		}
		srv.ingest = svc
		srv.mux.HandleFunc("/ingest", srv.handleIngest)
	}
	srv.mux.HandleFunc("/healthz", srv.handleHealth)
	srv.mux.HandleFunc("/readyz", srv.handleReady)
	srv.mux.HandleFunc("/metrics", srv.handleMetrics)
	if opts.EnableAdmin {
		srv.mux.HandleFunc("/admin/reload", srv.handleReload)
	}
	if opts.EnablePprof {
		srv.mux.HandleFunc("/debug/pprof/", pprof.Index)
		srv.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		srv.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		srv.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		srv.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Middleware chain, outermost first: observe sees every response
	// (including shed 503s and recovered 500s), recover catches panics
	// from the limiter inward, the limiter sheds before any work starts.
	srv.handler = srv.observe(srv.recoverPanics(srv.limit(srv.mux)))
	return srv, nil
}

// Ingest exposes the streaming-ingestion service, nil unless
// Options.Ingest was set. cmd/stmakerd starts its compaction loop
// (Service.Run) alongside the listener and closes it after drain.
func (srv *Server) Ingest() *ingest.Service { return srv.ingest }

// ServeHTTP implements http.Handler. Every request passes through the
// observation middleware.
func (srv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	srv.handler.ServeHTTP(w, r)
}

// SummarizeRequest is the POST /summarize body.
type SummarizeRequest struct {
	// Trajectory is the raw trajectory to summarize.
	Trajectory *traj.Raw `json:"trajectory"`
	// K is the partition count; 0 (default) uses the optimal partition.
	// It may also be supplied as the ?k= query parameter.
	K int `json:"k,omitempty"`
	// Region selects which regional model serves the request in
	// multi-region mode. It may also be supplied as the ?region= query
	// parameter (which wins over the body). Empty falls back to the sole
	// region when only one exists, then to spatial routing by the
	// trajectory's first sample against region bounding boxes.
	Region string `json:"region,omitempty"`
}

// SummarizeResponse is the reply.
type SummarizeResponse struct {
	ID   string `json:"id"`
	Text string `json:"text"`
	// Region echoes which regional model produced the summary.
	Region string         `json:"region,omitempty"`
	Parts  []PartResponse `json:"parts"`
	Error  string         `json:"error,omitempty"`
}

// PartResponse is one partition of the summary.
type PartResponse struct {
	Source   string         `json:"source"`
	Dest     string         `json:"dest"`
	RoadType string         `json:"roadType,omitempty"`
	Text     string         `json:"text"`
	Features []FeatureEntry `json:"features,omitempty"`
}

// FeatureEntry is one selected feature.
type FeatureEntry struct {
	Key   string  `json:"key"`
	Rate  float64 `json:"rate"`
	Value float64 `json:"value"`
}

func (srv *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReady is the readiness probe: 200 while serving with at least
// one region holding a published model, 503 before the first model
// lands (a warm-starting instance that hasn't finished
// Train/LoadModel, or a multi-region instance that hasn't loaded any
// region yet) and 503 again once a drain has begun, so load balancers
// only route work here when it can actually be answered.
// With ?verbose=1 the plain-text probe becomes a JSON report carrying
// every region's state (loaded/cold/failed) and serving model version,
// so operators can see which city is degraded; the status code keeps
// the same contract either way. docs/API.md documents the shape.
func (srv *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	draining := !srv.ready.Load()
	ready := !draining && srv.reg.ReadyCount() > 0
	if r.URL.Query().Get("verbose") != "" {
		code := http.StatusOK
		if !ready {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		body := ReadyResponse{Ready: ready, Draining: draining, Regions: srv.reg.Status()}
		if err := json.NewEncoder(w).Encode(body); err != nil {
			srv.logger.Error("readyz encode failed", "error", err)
		}
		return
	}
	switch {
	case draining:
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !ready:
		http.Error(w, "no model published yet", http.StatusServiceUnavailable)
	default:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}
}

// ReadyResponse is the GET /readyz?verbose=1 body.
type ReadyResponse struct {
	Ready    bool                    `json:"ready"`
	Draining bool                    `json:"draining,omitempty"`
	Regions  []registry.RegionStatus `json:"regions"`
}

// statusForError maps a pipeline or region-resolution error to its HTTP
// status: deadline and cancellation are a 504 (the server gave up, not
// the client's data), input-shaped errors (validation, sanitizer
// rejection, calibration) are a 422, a request arriving before any
// model is published is a 503 (the readiness probe already says so;
// retrying elsewhere will succeed), and everything else — partition
// failures — is a 500, because the client's request was fine.
//
// Region-lookup errors extend the map: a region key that does not exist
// is a 404, as is a known region whose model file is missing (the
// client asked for something this deployment does not have — 404s are
// cacheable and do not trip 5xx alerting). A model file that exists but
// is corrupt or mismatched is a 500 (the deployment is broken, not the
// request), and any other load failure — an unreadable world file, say
// — is a 503, since a retry after an operator fix will succeed. A reload
// of a region with nothing to reload from is a 501.
func statusForError(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case stmaker.IsInputError(err):
		return http.StatusUnprocessableEntity
	case errors.Is(err, stmaker.ErrNotTrained):
		return http.StatusServiceUnavailable
	case errors.Is(err, registry.ErrUnknownRegion), errors.Is(err, stmaker.ErrModelNotFound):
		return http.StatusNotFound
	case errors.Is(err, stmaker.ErrInvalidModel), errors.Is(err, stmaker.ErrModelMismatch):
		return http.StatusInternalServerError
	case errors.Is(err, registry.ErrRegionUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, registry.ErrNoReloadSource):
		return http.StatusNotImplemented
	default:
		return http.StatusInternalServerError
	}
}

func (srv *Server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req SummarizeRequest
	if !srv.decodeBody(w, r, srv.opts.MaxBodyBytes, func(body []byte) error {
		return DecodeSummarizeRequest(body, &req)
	}) {
		return
	}
	if qk := r.URL.Query().Get("k"); qk != "" {
		parsed, err := strconv.Atoi(qk)
		if err != nil || parsed < 0 {
			srv.writeError(w, http.StatusBadRequest, "invalid k")
			return
		}
		req.K = parsed
	}
	resp, code := srv.summarizeOne(r.Context(), &req, r.URL.Query().Get("region"))
	if code != http.StatusOK {
		srv.writeError(w, code, resp.Error)
		return
	}
	srv.writeJSON(w, resp)
}

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody reads the whole body of r, capped at limit bytes when limit
// is positive, into a pooled buffer and hands it to decode. The cap
// counts every byte, not only the first JSON value's. On failure it
// writes the 413 or 400 and returns false. The buffer is recycled once
// decode returns, so decode must copy what it keeps.
func (srv *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, decode func(body []byte) error) bool {
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(r.Body)
	if err == nil {
		err = decode(buf.Bytes())
	}
	if buf.Cap() <= maxPooledBytes {
		bodyPool.Put(buf)
	}
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		srv.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	default:
		srv.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
	}
	return false
}

// summarizeOne resolves the region and runs the pipeline for one
// summarize request. It is the shared core of the single and batch
// endpoints, so a batch item's response is byte-identical to what the
// single endpoint would produce for the same trajectory. queryRegion is
// the ?region= override (always empty for batch items). The returned
// status is http.StatusOK on success; on failure resp carries only the
// error message.
func (srv *Server) summarizeOne(ctx context.Context, req *SummarizeRequest, queryRegion string) (SummarizeResponse, int) {
	if req.Trajectory == nil {
		return SummarizeResponse{Error: "missing trajectory"}, http.StatusBadRequest
	}
	var first *geo.Point
	if len(req.Trajectory.Samples) > 0 {
		first = &req.Trajectory.Samples[0].Pt
	}
	region, err := srv.routeRegion(queryRegion, req.Region, first)
	var s *stmaker.Summarizer
	if err == nil {
		s, err = srv.reg.Summarizer(region)
	}
	if err != nil {
		return SummarizeResponse{Error: err.Error()}, statusForError(err)
	}
	if srv.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, srv.opts.RequestTimeout)
		defer cancel()
	}
	sum, err := s.SummarizeKContext(ctx, req.Trajectory, req.K)
	if err != nil {
		return SummarizeResponse{Error: err.Error()}, statusForError(err)
	}
	resp := SummarizeResponse{ID: sum.TrajectoryID, Text: sum.Text}
	// Only a registry of regions names the one that answered; a wrapped
	// in-process summarizer has no region to report.
	if !srv.reg.Static() {
		resp.Region = region
	}
	resp.Parts = make([]PartResponse, 0, len(sum.Parts))
	for _, p := range sum.Parts {
		pr := PartResponse{
			Source: p.SourceName, Dest: p.DestName,
			RoadType: p.RoadType, Text: p.Text,
		}
		if len(p.Features) > 0 {
			pr.Features = make([]FeatureEntry, 0, len(p.Features))
		}
		for _, f := range p.Features {
			pr.Features = append(pr.Features, FeatureEntry{Key: f.Key, Rate: f.Rate, Value: f.Value})
		}
		resp.Parts = append(resp.Parts, pr)
	}
	return resp, http.StatusOK
}

// routeRegion names the region serving a summarize or ingest request.
// Precedence: the ?region= query parameter, then the key the body
// carries (the summarize request's region field, the first NDJSON
// line's), then the sole region when the registry holds exactly one
// (single-region deployments never need a key), then spatial routing of
// the request's first point — nil when it has none — against region
// bounding boxes. A request that resolves to no region fails with
// ErrUnknownRegion (404): from the client's point of view "region key
// that does not exist" and "location no region covers" are the same
// condition — this deployment does not serve it.
func (srv *Server) routeRegion(query, key string, first *geo.Point) (string, error) {
	region := key
	if query != "" {
		region = query
	}
	if region == "" {
		region = srv.reg.DefaultRegion()
	}
	if region != "" {
		return region, nil
	}
	if first == nil {
		return "", fmt.Errorf("%w: no region key given and trajectory has no samples to route by",
			registry.ErrUnknownRegion)
	}
	name, ok := srv.reg.Resolve(*first)
	if !ok {
		return "", fmt.Errorf("%w: no region key given and no region covers %v",
			registry.ErrUnknownRegion, *first)
	}
	return name, nil
}

// MetricHTTPEncodeErrors counts response bodies that failed to encode
// or write. By then the status header is out, so the client cannot be
// told; the usual cause is the client hanging up mid-response.
// docs/OBSERVABILITY.md catalogues it.
const MetricHTTPEncodeErrors = "http_encode_errors_total"

// encodeFailed records a response encode/write failure: logged and
// counted, never swallowed. The wire is unrecoverable at this point —
// the header is already out — so observability is all that is left.
func (srv *Server) encodeFailed(err error) {
	srv.logger.Error("response encode failed", "error", err)
	srv.mx.Counter(MetricHTTPEncodeErrors).Inc()
}

// encodeBuf is a pooled response-encoding buffer: one bytes.Buffer with
// a json.Encoder permanently bound to it, so the hot path reuses both
// the encoder machinery and the output bytes instead of allocating a
// fresh encoder plus a growing buffer per response.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	eb := &encodeBuf{}
	eb.enc = json.NewEncoder(&eb.buf)
	return eb
}}

// encode resets the buffer and encodes v into it (with the encoder's
// trailing newline).
func (eb *encodeBuf) encode(v any) error {
	eb.buf.Reset()
	return eb.enc.Encode(v)
}

// writeJSON encodes v as the response body. Encoding lands in a pooled
// buffer first, so a marshal failure (a handler-bug response shape) is
// caught before any byte reaches the wire and the client gets a clean
// 500 instead of a truncated 200.
func (srv *Server) writeJSON(w http.ResponseWriter, v any) {
	eb := encPool.Get().(*encodeBuf)
	defer encPool.Put(eb)
	if err := eb.encode(v); err != nil {
		srv.encodeFailed(err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(eb.buf.Len()))
	if _, err := w.Write(eb.buf.Bytes()); err != nil {
		srv.encodeFailed(err)
	}
}

func (srv *Server) writeError(w http.ResponseWriter, code int, msg string) {
	eb := encPool.Get().(*encodeBuf)
	defer encPool.Put(eb)
	if err := eb.encode(SummarizeResponse{Error: msg}); err != nil {
		srv.encodeFailed(err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(eb.buf.Len()))
	w.WriteHeader(code)
	if _, err := w.Write(eb.buf.Bytes()); err != nil {
		srv.encodeFailed(err)
	}
}
