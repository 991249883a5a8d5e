package roadnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"stmaker/internal/metrics"
)

func TestSPCacheStoreLookup(t *testing.T) {
	c := NewSPCache(SPCacheOptions{Capacity: 128})
	if _, ok := c.Lookup(1, 2, 100); ok {
		t.Fatal("empty cache hit")
	}
	c.Store(1, 2, 42.5, 0)
	d, ok := c.Lookup(1, 2, 100)
	if !ok || d != 42.5 {
		t.Fatalf("lookup = %v, %v", d, ok)
	}
	// Direction matters: (2,1) is a different pair.
	if _, ok := c.Lookup(2, 1, 100); ok {
		t.Fatal("reverse pair should miss")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSPCacheUnreachedBoundSemantics(t *testing.T) {
	c := NewSPCache(SPCacheOptions{Capacity: 128})
	inf := math.Inf(1)
	c.Store(3, 4, inf, 500) // unreached within 500

	// A lookup needing less (or equal) bound is answered: still unreached.
	if d, ok := c.Lookup(3, 4, 400); !ok || !math.IsInf(d, 1) {
		t.Fatalf("narrow-bound lookup = %v, %v", d, ok)
	}
	// A lookup needing a larger bound must re-search.
	if _, ok := c.Lookup(3, 4, 600); ok {
		t.Fatal("wide-bound lookup should miss")
	}
	// Storing a wider unreached marker widens the valid range.
	c.Store(3, 4, inf, 800)
	if d, ok := c.Lookup(3, 4, 600); !ok || !math.IsInf(d, 1) {
		t.Fatalf("widened lookup = %v, %v", d, ok)
	}
	// A narrower marker must not shrink it back.
	c.Store(3, 4, inf, 100)
	if _, ok := c.Lookup(3, 4, 600); !ok {
		t.Fatal("narrower marker shrank the bound")
	}
	// An exact distance replaces the marker for good.
	c.Store(3, 4, 950, 0)
	if d, ok := c.Lookup(3, 4, 600); !ok || d != 950 {
		t.Fatalf("exact overwrite lookup = %v, %v", d, ok)
	}
	// ... and a later unreached marker must not clobber the exact value.
	c.Store(3, 4, inf, 2000)
	if d, ok := c.Lookup(3, 4, 600); !ok || d != 950 {
		t.Fatalf("marker clobbered exact value: %v, %v", d, ok)
	}
}

func TestSPCacheEvictsAtCapacity(t *testing.T) {
	c := NewSPCache(SPCacheOptions{Capacity: 32})
	for i := 0; i < 500; i++ {
		c.Store(NodeID(i), NodeID(i+1), float64(i), 0)
	}
	s := c.Stats()
	if s.Entries > 32 {
		t.Fatalf("cache grew past capacity: %+v", s)
	}
	if s.Evictions < 500-32 {
		t.Fatalf("expected ~%d evictions, got %+v", 500-32, s)
	}
}

// TestSPCacheFullWindowOverwritesOneSlot fills an eight-slot table,
// which is the probe window of every key, and then stores new keys: each
// must overwrite exactly one slot and count one eviction. Stores of keys
// already present merge into their own slots by the usual rules and
// evict nothing, and a new key's marker keeps those rules too.
func TestSPCacheFullWindowOverwritesOneSlot(t *testing.T) {
	c := NewSPCache(SPCacheOptions{Capacity: 8})
	inf := math.Inf(1)
	for i := 0; i < 8; i++ {
		c.Store(NodeID(i), 100, float64(i), 0)
	}
	if s := c.Stats(); s.Entries != 8 || s.Evictions != 0 {
		t.Fatalf("after filling the table: %+v, want 8 entries and no eviction", s)
	}
	c.Store(0, 100, inf, 5000) // a marker never replaces an exact distance
	c.Store(1, 100, 11, 0)     // an exact distance replaces one
	if d, ok := c.Lookup(0, 100, 1e9); !ok || d != 0 {
		t.Fatalf("a marker clobbered an exact value: %v, %v", d, ok)
	}
	if d, ok := c.Lookup(1, 100, 1e9); !ok || d != 11 {
		t.Fatalf("exact overwrite lookup = %v, %v", d, ok)
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("stores of present keys evicted: %+v", s)
	}

	c.Store(8, 100, 8, 0)
	if s := c.Stats(); s.Entries != 8 || s.Evictions != 1 {
		t.Fatalf("after a store into the full window: %+v, want 8 entries and 1 eviction", s)
	}
	if d, ok := c.Lookup(8, 100, 1e9); !ok || d != 8 {
		t.Fatalf("the new key = %v, %v", d, ok)
	}
	kept := 0
	for i := 0; i < 8; i++ {
		if _, ok := c.Lookup(NodeID(i), 100, 1e9); ok {
			kept++
		}
	}
	if kept != 7 {
		t.Fatalf("%d of the 8 earlier keys survive one eviction, want 7", kept)
	}

	c.Store(9, 100, inf, 500)
	if s := c.Stats(); s.Evictions != 2 {
		t.Fatalf("a new marker evicted %d entries in all, want 2", s.Evictions)
	}
	if d, ok := c.Lookup(9, 100, 400); !ok || !math.IsInf(d, 1) {
		t.Fatalf("narrow-bound lookup = %v, %v", d, ok)
	}
	if _, ok := c.Lookup(9, 100, 600); ok {
		t.Fatal("wide-bound lookup should miss")
	}
	c.Store(9, 100, inf, 800)
	c.Store(9, 100, inf, 100)
	if d, ok := c.Lookup(9, 100, 600); !ok || !math.IsInf(d, 1) {
		t.Fatalf("widened marker lookup = %v, %v", d, ok)
	}
	if s := c.Stats(); s.Entries != 8 || s.Evictions != 2 {
		t.Fatalf("merging markers evicted: %+v", s)
	}
}

// TestSPCacheTableSize pins how Capacity sizes the table: rounded down
// to a power of two, at least one slot.
func TestSPCacheTableSize(t *testing.T) {
	for _, tc := range []struct{ capacity, slots int }{
		{0, DefaultSPCacheEntries}, {1, 1}, {3, 2}, {8, 8}, {100, 64},
	} {
		c := NewSPCache(SPCacheOptions{Capacity: tc.capacity})
		if len(c.slots) != tc.slots {
			t.Errorf("Capacity %d: %d slots, want %d", tc.capacity, len(c.slots), tc.slots)
		}
		n := 3 * min(tc.slots, 64)
		for i := 0; i < n; i++ {
			c.Store(NodeID(i), 1, float64(i), 0)
		}
		if s := c.Stats(); s.Entries > tc.slots {
			t.Errorf("Capacity %d: %d entries in %d slots", tc.capacity, s.Entries, tc.slots)
		}
		if d, ok := c.Lookup(NodeID(n-1), 1, 1e9); !ok || d != float64(n-1) {
			t.Errorf("Capacity %d: the last store reads back %v, %v", tc.capacity, d, ok)
		}
	}
}

func TestSPCacheNilSafe(t *testing.T) {
	var c *SPCache
	if _, ok := c.Lookup(1, 2, 100); ok {
		t.Fatal("nil cache hit")
	}
	c.Store(1, 2, 3, 0) // must not panic
	if s := c.Stats(); s != (SPCacheStats{}) {
		t.Fatalf("nil stats = %+v", s)
	}
}

func TestSPCacheWiredCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewSPCache(SPCacheOptions{
		Capacity:  64,
		Hits:      reg.Counter("hits"),
		Misses:    reg.Counter("misses"),
		Evictions: reg.Counter("evictions"),
	})
	c.Lookup(1, 2, 10) // miss
	c.Store(1, 2, 5, 0)
	c.Lookup(1, 2, 10) // hit
	snap := reg.Snapshot()
	if snap.Counters["hits"] != 1 || snap.Counters["misses"] != 1 {
		t.Fatalf("registry counters = %+v", snap.Counters)
	}
}

func TestSPCacheConcurrentSmoke(t *testing.T) {
	c := NewSPCache(SPCacheOptions{Capacity: 256})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				src := NodeID(rng.Intn(64))
				dst := NodeID(rng.Intn(64))
				if d, ok := c.Lookup(src, dst, 1000); ok && !math.IsInf(d, 1) {
					// Values are keyed deterministically, so a hit must
					// carry the key's value even under churn.
					if want := float64(src)*1000 + float64(dst); d != want {
						panic("corrupt cache value")
					}
				}
				c.Store(src, dst, float64(src)*1000+float64(dst), 0)
			}
		}(int64(w))
	}
	wg.Wait()
	if s := c.Stats(); s.Entries > 256 {
		t.Fatalf("cache exceeded capacity under concurrency: %+v", s)
	}
}

// TestMatchPointsCountsCacheLookups checks the cache counters a decode
// leaves: roadnet_sp_cache_hits_total plus roadnet_sp_cache_misses_total
// must equal the lookups the decode made, counted here from the
// reference candidates: per Viterbi step, every distinct endpoint node
// of the previous step's candidates against every distinct endpoint
// node of the next step's, except a node against itself. A cold decode
// misses some lookups, and a warm one hits every lookup.
func TestMatchPointsCountsCacheLookups(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGrid(rng, 7, 200)
	reg := metrics.NewRegistry()
	hits, misses := reg.Counter("roadnet_sp_cache_hits_total"), reg.Counter("roadnet_sp_cache_misses_total")
	h := NewHMMMatcher(g, HMMOptions{Cache: NewSPCache(SPCacheOptions{Hits: hits, Misses: misses})})
	pts := randomWalkPoints(rng, g, 120)

	ref := newReferenceHMM(g)
	endpoints := func(cands []candidate) []NodeID {
		var nodes []NodeID
		for _, c := range cands {
			nodes = appendNodeDedup(nodes, c.match.Edge.From)
			nodes = appendNodeDedup(nodes, c.match.Edge.To)
		}
		return nodes
	}
	var lookups int64
	var prev []NodeID
	for _, p := range pts {
		// A fix without candidates has no endpoints, which ends the run.
		cur := endpoints(ref.candidates(p))
		for _, src := range prev {
			for _, dst := range cur {
				if src != dst {
					lookups++
				}
			}
		}
		prev = cur
	}
	if lookups == 0 {
		t.Fatal("the trajectory makes no lookups")
	}

	h.MatchPoints(pts)
	if got := hits.Value() + misses.Value(); got != lookups || misses.Value() == 0 {
		t.Fatalf("cold decode counted %d hits and %d misses, want %d lookups with some misses", hits.Value(), misses.Value(), lookups)
	}
	hits0, misses0 := hits.Value(), misses.Value()
	h.MatchPoints(pts)
	if dh, dm := hits.Value()-hits0, misses.Value()-misses0; dh != lookups || dm != 0 {
		t.Fatalf("warm decode counted %d hits and %d misses, want %d hits", dh, dm, lookups)
	}
}

// TestSPCacheConcurrentNoTornReads races writers and readers of 36
// keys on a table of eight slots, so that stores evict all the time and
// a lookup often finds its key in a slot that another writer is
// overwriting. Each key's entry encodes the key: an exact distance of
// src·1000 + dst, or, for one key in three, a marker whose bound is that
// number. A hit that returns anything but its own key's entry means a
// read mixed two writes. Run under -race by make check.
func TestSPCacheConcurrentNoTornReads(t *testing.T) {
	c := NewSPCache(SPCacheOptions{Capacity: 8})
	const workers, ops = 4, 100000
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				src, dst := NodeID(1+rng.Intn(6)), NodeID(1+rng.Intn(6))
				enc := float64(src)*1000 + float64(dst)
				marker := (src+dst)%3 == 0
				if rng.Intn(2) == 0 {
					if marker {
						c.Store(src, dst, math.Inf(1), enc)
					} else {
						c.Store(src, dst, enc, 0)
					}
					continue
				}
				d, ok := c.lookup(src, dst, enc)
				switch {
				case !ok:
				case marker && !math.IsInf(d, 1), !marker && d != enc:
					errs <- fmt.Sprintf("pair (%d, %d) read %v", src, dst, d)
					return
				}
				if _, ok := c.lookup(src, dst, enc+1); ok && marker {
					errs <- fmt.Sprintf("marker of (%d, %d) answered a bound past its own", src, dst)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if s := c.Stats(); s.Entries > 8 || s.Evictions == 0 {
		t.Fatalf("stats = %+v, want at most 8 entries and some evictions", s)
	}
}

// BenchmarkSPCacheLookupParallel measures the matcher's read of a warm
// cache, which takes no lock and writes nothing, from every
// GOMAXPROCS goroutine at once.
func BenchmarkSPCacheLookupParallel(b *testing.B) {
	c := NewSPCache(SPCacheOptions{})
	const keys = 4096
	for i := 0; i < keys; i++ {
		c.Store(NodeID(i), NodeID(i+1), float64(i), 0)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.lookup(NodeID(i), NodeID(i+1), 1e9); !ok {
				panic("warm key missed")
			}
			i = (i + 1) % keys
		}
	})
}

// SPCacheStats is a point-in-time read of the cache counters and size.
type SPCacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// Stats reads the counters and counts the slots ever written.
func (c *SPCache) Stats() SPCacheStats {
	if c == nil {
		return SPCacheStats{}
	}
	s := SPCacheStats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
	}
	for i := range c.slots {
		if c.slots[i].seq.Load() != 0 {
			s.Entries++
		}
	}
	return s
}

// Lookup is lookup plus the hit or miss count. A nil cache always misses
// without counting.
func (c *SPCache) Lookup(src, dst NodeID, bound float64) (dist float64, ok bool) {
	if c == nil {
		return 0, false
	}
	dist, ok = c.lookup(src, dst, bound)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return dist, ok
}
