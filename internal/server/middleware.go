package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"stmaker/internal/metrics"
)

// Metric names recorded by the HTTP middleware into the server's
// registry. docs/OBSERVABILITY.md documents each; keep the two in sync.
const (
	// MetricHTTPRequests counts every request received.
	MetricHTTPRequests = "http_requests_total"
	// MetricHTTPInFlight is the number of requests currently being
	// handled (a gauge: incremented on entry, decremented on exit).
	MetricHTTPInFlight = "http_requests_in_flight"
	// MetricHTTPLatency is the request latency histogram across all
	// routes, in seconds.
	MetricHTTPLatency = "http_request_seconds"
	// MetricHTTPResponses1xx..5xx count responses by status class. A
	// status outside 100–599 is attributed to the 5xx counter: the server
	// never emits one, so it can only mean a handler bug.
	MetricHTTPResponses1xx = "http_responses_1xx_total"
	MetricHTTPResponses2xx = "http_responses_2xx_total"
	MetricHTTPResponses3xx = "http_responses_3xx_total"
	MetricHTTPResponses4xx = "http_responses_4xx_total"
	MetricHTTPResponses5xx = "http_responses_5xx_total"
	// MetricHTTPPanics counts handler panics recovered into 500s; any
	// non-zero value is a bug worth paging on, but the process survives.
	MetricHTTPPanics = "panics_recovered_total"
	// MetricHTTPShed counts requests rejected with 503 because the
	// in-flight limit (Options.MaxInFlight) was reached.
	MetricHTTPShed = "http_requests_shed_total"
)

// statusRecorder wraps a ResponseWriter to capture the status code and
// response size for metrics and the request log. A handler that never
// calls WriteHeader implicitly sends 200.
type statusRecorder struct {
	http.ResponseWriter
	status      int
	bytes       int
	wroteHeader bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wroteHeader = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wroteHeader = true // implicit 200 on first write
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// observe wraps the mux with the serving-path middleware: it counts the
// request, tracks in-flight load, times the handler, bumps the
// status-class counter and emits one structured log line per request.
func (srv *Server) observe(next http.Handler) http.Handler {
	requests := srv.mx.Counter(MetricHTTPRequests)
	inflight := srv.mx.Counter(MetricHTTPInFlight) //nolint:stmaker/metricnames -- in-flight is a gauge (Inc on entry, Add(-1) on exit), so the _total counter suffix does not apply
	latency := srv.mx.Histogram(MetricHTTPLatency)
	// Resolving the class counters once keeps the hot path free of map
	// lookups and keeps every metric name a compile-time constant.
	byClass := [...]interface{ Inc() }{
		1: srv.mx.Counter(MetricHTTPResponses1xx),
		2: srv.mx.Counter(MetricHTTPResponses2xx),
		3: srv.mx.Counter(MetricHTTPResponses3xx),
		4: srv.mx.Counter(MetricHTTPResponses4xx),
		5: srv.mx.Counter(MetricHTTPResponses5xx),
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		requests.Inc()
		inflight.Inc()
		defer inflight.Add(-1)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)

		elapsed := time.Since(t0)
		latency.Observe(elapsed.Seconds())
		class := rec.status / 100
		if class < 1 || class > 5 {
			class = 5 // out-of-range statuses can only be handler bugs
		}
		byClass[class].Inc()
		srv.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Int("bytes", rec.bytes),
			slog.Duration("duration", elapsed),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// recoverPanics converts a handler panic into a 500 so one poisoned
// request — a trajectory that trips a library panic deep in the
// pipeline — cannot take the process down with it. The panic value and
// stack go to the log, MetricHTTPPanics counts the event, and the
// connection gets a JSON 500 unless the handler had already started
// writing. http.ErrAbortHandler is re-raised: it is net/http's own
// abort-this-connection protocol, not a bug.
func (srv *Server) recoverPanics(next http.Handler) http.Handler {
	panics := srv.mx.Counter(MetricHTTPPanics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			panics.Inc()
			srv.logger.Error("panic recovered",
				"panic", fmt.Sprint(p),
				"method", r.Method,
				"path", r.URL.Path,
				"stack", string(debug.Stack()),
			)
			// Best-effort 500: once the handler has written a header the
			// wire is already committed, so only the log records it.
			if rec, ok := w.(*statusRecorder); !ok || !rec.wroteHeader {
				srv.writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// infrastructurePath reports whether the route must stay reachable even
// under load shedding: probes, scrapes, profiling and the operator's
// admin endpoints never compete with summarization for the in-flight
// budget — an overloaded instance must still accept a reload that might
// fix it.
func infrastructurePath(p string) bool {
	return p == "/healthz" || p == "/readyz" || p == "/metrics" ||
		strings.HasPrefix(p, "/debug/pprof/") || strings.HasPrefix(p, "/admin/")
}

// limit is the semaphore-based load shedder: past Options.MaxInFlight
// concurrently-running requests, new work is rejected immediately with
// 503 + Retry-After rather than queued — queueing under overload only
// converts load into latency and memory.
func (srv *Server) limit(next http.Handler) http.Handler {
	if srv.limiter == nil {
		return next
	}
	shed := srv.mx.Counter(MetricHTTPShed)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if infrastructurePath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case srv.limiter <- struct{}{}:
			defer func() { <-srv.limiter }()
			next.ServeHTTP(w, r)
		default:
			shed.Inc()
			w.Header().Set("Retry-After", "1")
			srv.writeError(w, http.StatusServiceUnavailable, "server at capacity, retry later")
		}
	})
}

// handleMetrics serves the JSON snapshot of every registered metric.
// When the registry's regions record into the top-level registry (a
// NewStatic registry of one), the Summarizer's stage histograms and the
// middleware's request metrics share it, so the snapshot is flat — the
// wire shape older dashboards scrape. When regions own separate
// registries (every -model-dir registry, even of one region), the
// top-level counters/histograms carry the fleet-wide series (request
// traffic, regions_loaded, ...) and a "regions" map adds each region's
// own snapshot — its pipeline stages, model_version, load and eviction
// counters — under its region key.
func (srv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	top := srv.mx.Snapshot()
	if !srv.reg.SeparateMetrics() {
		srv.writeJSON(w, top)
		return
	}
	srv.writeJSON(w, multiMetricsResponse{
		Counters:   top.Counters,
		Histograms: top.Histograms,
		Regions:    srv.reg.RegionSnapshots(),
	})
}

// multiMetricsResponse is the GET /metrics shape over separate region
// registries: the flat fields plus the per-region snapshots.
type multiMetricsResponse struct {
	Counters   map[string]int64                     `json:"counters"`
	Histograms map[string]metrics.HistogramSnapshot `json:"histograms"`
	Regions    map[string]metrics.Snapshot          `json:"regions"`
}
