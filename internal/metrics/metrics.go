// Package metrics is the dependency-free observability substrate behind
// the serving path: named counters and latency histograms collected in a
// Registry and exported as a JSON snapshot by the HTTP service's
// GET /metrics endpoint (see docs/OBSERVABILITY.md for the catalogue of
// metric names and the pipeline stage — paper §II-A calibration, §III
// feature extraction, §IV partitioning, §V selection, §VI realization —
// each one measures).
//
// All hot-path operations (Counter.Add, Histogram.Observe) are lock-free
// via sync/atomic, so instrumented code may be called from any number of
// goroutines; a mutex guards only metric registration, which happens once
// per name. Snapshot is safe to call concurrently with observation — it
// reads the same atomics — so a scrape never blocks a summarization.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically-growing (or explicitly adjusted) integer
// metric. The zero value is ready to use. In-flight gauges are counters
// adjusted with Add(±1); level gauges are counters written with Set.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which may be negative, for gauge-style usage).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Set overwrites the value in one atomic store, for gauges that track a
// level (a model version, a byte total) rather than count events.
func (c *Counter) Set(n int64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefaultLatencyBuckets are the histogram upper bounds used for every
// latency histogram in the registry: exponential, doubling from 100µs to
// ~209s, 22 buckets. Observations above the last bound land in the
// implicit +Inf bucket.
var DefaultLatencyBuckets = func() []float64 {
	bounds := make([]float64, 22)
	b := 100e-6
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}()

// Histogram accumulates float64 observations (seconds, for latency use)
// into fixed exponential buckets. All methods are lock-free and safe for
// concurrent use.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; implicit +Inf bucket appended
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds-scale fixed point: sum * 1e9
	min     atomic.Int64 // fixed point; math.MaxInt64 when empty
	max     atomic.Int64 // fixed point
}

// fixedPointScale converts seconds to the integer fixed-point stored in
// the sum/min/max atomics (nanosecond resolution).
const fixedPointScale = 1e9

// NewHistogram builds a histogram with the given upper bounds (sorted
// ascending; nil uses DefaultLatencyBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	h := &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value (in seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	fp := int64(v * fixedPointScale)
	h.sum.Add(fp)
	for {
		old := h.min.Load()
		if fp >= old || h.min.CompareAndSwap(old, fp) {
			break
		}
	}
	for {
		old := h.max.Load()
		if fp <= old || h.max.CompareAndSwap(old, fp) {
			break
		}
	}
}

// ObserveSince records the elapsed seconds since t0. The idiomatic stage
// timer is:
//
//	defer h.ObserveSince(time.Now())
//
// (the deferred argument is evaluated at defer time, the observation at
// return time).
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Bucket is one cumulative histogram bucket in a snapshot: Count
// observations were ≤ LE seconds.
type Bucket struct {
	LE    float64 `json:"le"` // upper bound, seconds; +Inf omitted (it equals Count)
	Count int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time read of a histogram. Quantiles are
// estimated by linear interpolation within the bucket containing the
// target rank, so they carry bucket-resolution error (a factor ≤ 2 with
// the default doubling bounds).
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`            // seconds
	Mean  float64 `json:"mean,omitempty"` // seconds
	Min   float64 `json:"min,omitempty"`  // seconds
	Max   float64 `json:"max,omitempty"`  // seconds
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	// Buckets holds the non-empty cumulative buckets only, keeping
	// /metrics responses compact.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot reads the histogram. It is safe concurrently with Observe;
// under concurrent writes the counts are a consistent-enough view (each
// atomic is read once, buckets first).
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts := make([]int64, len(h.buckets))
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total}
	if total == 0 {
		return s
	}
	s.Sum = float64(h.sum.Load()) / fixedPointScale
	s.Mean = s.Sum / float64(total)
	s.Min = float64(h.min.Load()) / fixedPointScale
	s.Max = float64(h.max.Load()) / fixedPointScale
	var cum int64
	for i, c := range counts {
		cum += c
		if c != 0 && i < len(h.bounds) {
			s.Buckets = append(s.Buckets, Bucket{LE: h.bounds[i], Count: cum})
		}
	}
	s.P50 = h.quantile(counts, total, 0.50)
	s.P90 = h.quantile(counts, total, 0.90)
	s.P99 = h.quantile(counts, total, 0.99)
	return s
}

// quantile estimates the q-quantile from bucket counts by linear
// interpolation inside the target bucket, clamped to the observed
// min/max so tiny samples do not report impossible values.
func (h *Histogram) quantile(counts []int64, total int64, q float64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		max := float64(h.max.Load()) / fixedPointScale
		hi := max
		if i < len(h.bounds) {
			hi = h.bounds[i]
		}
		frac := (rank - prev) / float64(c)
		v := lo + (hi-lo)*frac
		min := float64(h.min.Load()) / fixedPointScale
		return math.Min(math.Max(v, min), max)
	}
	return float64(h.max.Load()) / fixedPointScale
}

// Registry is a named collection of counters and histograms. Counter and
// Histogram are get-or-create, so instrumented code needs no registration
// ceremony and scrapers see every metric that has ever been touched.
// Counters and histograms occupy separate namespaces: registering the
// same name first as a counter and then as a histogram yields two
// independent metrics, and a Snapshot reports both (one under Counters,
// one under Histograms). Consumers that flatten a snapshot into a single
// keyspace must therefore avoid reusing names across kinds —
// stmaker-lint's metricnames check enforces naming conventions that keep
// the two disjoint (counters end in _total, histograms in _seconds).
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the histogram registered under name with the default
// latency buckets, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	h = NewHistogram(nil)
	r.histograms[name] = h
	return h
}

// Snapshot is the JSON shape served by GET /metrics.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot reads every registered metric. Safe concurrently with all
// observation paths.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
