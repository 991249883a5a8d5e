package metrics

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-2)
	if got := c.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
}

// TestCounterSet pins gauge semantics: Set overwrites whatever the
// counter held, in either direction, and later Adds build on it.
func TestCounterSet(t *testing.T) {
	var c Counter
	c.Add(7)
	c.Set(42)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value after Set(42) = %d, want 42", got)
	}
	c.Set(0)
	if got := c.Value(); got != 0 {
		t.Fatalf("Value after Set(0) = %d, want 0", got)
	}
	c.Inc()
	if got := c.Value(); got != 1 {
		t.Fatalf("Value after Set(0)+Inc = %d, want 1", got)
	}
}

func TestHistogramSnapshotStats(t *testing.T) {
	h := NewHistogram(nil)
	for _, v := range []float64{0.001, 0.002, 0.004, 0.100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	if math.Abs(s.Sum-0.107) > 1e-6 {
		t.Errorf("Sum = %g, want 0.107", s.Sum)
	}
	if math.Abs(s.Mean-0.107/4) > 1e-6 {
		t.Errorf("Mean = %g", s.Mean)
	}
	if math.Abs(s.Min-0.001) > 1e-6 || math.Abs(s.Max-0.100) > 1e-6 {
		t.Errorf("Min/Max = %g/%g, want 0.001/0.100", s.Min, s.Max)
	}
	if len(s.Buckets) == 0 {
		t.Fatal("no buckets in snapshot")
	}
	// Buckets are cumulative and end at the total count.
	last := s.Buckets[len(s.Buckets)-1]
	if last.Count != 4 {
		t.Errorf("last cumulative bucket = %d, want 4", last.Count)
	}
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].Count < s.Buckets[i-1].Count || s.Buckets[i].LE <= s.Buckets[i-1].LE {
			t.Errorf("buckets not cumulative/sorted: %+v", s.Buckets)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(nil)
	// 1000 observations spread 1ms..100ms uniformly.
	for i := 0; i < 1000; i++ {
		h.Observe(0.001 + 0.099*float64(i)/999)
	}
	s := h.Snapshot()
	// Bucket interpolation is coarse (doubling bounds): allow 2× error.
	checks := []struct {
		name      string
		got, want float64
	}{
		{"p50", s.P50, 0.050},
		{"p90", s.P90, 0.090},
		{"p99", s.P99, 0.099},
	}
	for _, c := range checks {
		if c.got < c.want/2 || c.got > c.want*2 {
			t.Errorf("%s = %g, want within 2x of %g", c.name, c.got, c.want)
		}
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Errorf("quantiles not monotone: p50=%g p90=%g p99=%g", s.P50, s.P90, s.P99)
	}
	if s.P99 > s.Max || s.P50 < s.Min {
		t.Errorf("quantiles outside [min, max]: %+v", s)
	}
}

func TestHistogramAboveLastBound(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.002})
	h.Observe(5) // lands in the implicit +Inf bucket
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("Count = %d", s.Count)
	}
	if math.Abs(s.Max-5) > 1e-6 {
		t.Errorf("Max = %g, want 5", s.Max)
	}
	if s.P99 > s.Max {
		t.Errorf("P99 = %g exceeds Max = %g", s.P99, s.Max)
	}
}

func TestObserveSince(t *testing.T) {
	h := NewHistogram(nil)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	s := h.Snapshot()
	if s.Count != 1 || s.Sum < 0.009 {
		t.Fatalf("snapshot = %+v, want one ~10ms observation", s)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter not idempotent")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram not idempotent")
	}
	r.Counter("a").Inc()
	r.Histogram("h").Observe(0.5)
	s := r.Snapshot()
	if s.Counters["a"] != 1 {
		t.Errorf("snapshot counter = %d", s.Counters["a"])
	}
	if s.Histograms["h"].Count != 1 {
		t.Errorf("snapshot histogram = %+v", s.Histograms["h"])
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Add(7)
	r.Histogram("latency_seconds").Observe(0.003)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Counters["requests_total"] != 7 {
		t.Errorf("decoded = %+v", decoded)
	}
	if decoded.Histograms["latency_seconds"].Count != 1 {
		t.Errorf("decoded = %+v", decoded)
	}
}

// TestConcurrentObserveAndSnapshot exercises the lock-free paths under the
// race detector: writers on counters and histograms racing a scraper.
func TestConcurrentObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	const writers, n = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				r.Counter("ops_total").Inc()
				r.Histogram("op_seconds").Observe(float64(seed*i%97) * 1e-4)
			}
		}(w + 1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := r.Snapshot()
	if s.Counters["ops_total"] != writers*n {
		t.Errorf("ops_total = %d, want %d", s.Counters["ops_total"], writers*n)
	}
	if s.Histograms["op_seconds"].Count != writers*n {
		t.Errorf("op_seconds count = %d, want %d", s.Histograms["op_seconds"].Count, writers*n)
	}
}

// TestRegistryNameCollisionAcrossKinds pins down the registry's behaviour
// when one name is registered as both a counter and a histogram: the two
// kinds live in separate namespaces, so both metrics exist independently
// and a snapshot reports each under its own section. This is intentional —
// see the Registry doc comment — and the naming conventions enforced by
// stmaker-lint (_total vs _seconds suffixes) keep real metric sets from
// ever colliding across kinds.
func TestRegistryNameCollisionAcrossKinds(t *testing.T) {
	r := NewRegistry()
	const name = "collision_probe_total"

	c := r.Counter(name)
	c.Inc()
	h := r.Histogram(name) // same name, different kind: a distinct metric
	h.Observe(0.25)

	// Re-fetching by name returns the same instances (no cross-kind clobber).
	if r.Counter(name) != c {
		t.Fatalf("Counter(%q) no longer returns the original counter after Histogram(%q)", name, name)
	}
	if r.Histogram(name) != h {
		t.Fatalf("Histogram(%q) did not return the histogram registered under the same name", name)
	}

	snap := r.Snapshot()
	if got := snap.Counters[name]; got != 1 {
		t.Fatalf("snapshot counter %q = %d, want 1", name, got)
	}
	hs, ok := snap.Histograms[name]
	if !ok {
		t.Fatalf("snapshot is missing histogram %q", name)
	}
	if hs.Count != 1 {
		t.Fatalf("snapshot histogram %q count = %d, want 1", name, hs.Count)
	}
}
