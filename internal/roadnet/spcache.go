package roadnet

import (
	"math"
	"math/bits"
	"sync/atomic"

	"stmaker/internal/metrics"
)

// SPCache is a concurrency-safe cache of node-to-node shortest path
// distances, shared across requests by the serving path: every HMM
// Viterbi step reuses the transition distances of any earlier step — or any
// concurrent request — that touched the same candidate nodes, which on real
// road networks happens constantly (trajectories overlap and candidates
// repeat along a road).
//
// Two kinds of entries are stored per (src, dst) pair:
//
//   - An exact distance d: valid forever (graphs are immutable once
//     served), because a bounded search that settles a node has found its
//     true shortest distance.
//   - An "unreached within bound b" marker: valid for any lookup whose
//     bound is <= b; a lookup needing a larger bound is a miss and
//     re-searches.
//
// The cache is one fixed table of open-addressed slots. A key lives in
// one of the spProbe slots that start at its hash, its probe window.
// Each slot is guarded by a sequence counter instead of a lock: a
// writer takes the slot by moving the counter from even to odd, writes,
// and moves it to the next even value; a reader reads the counter, the
// slot and the counter again, and takes the value only if both reads
// saw the same even count. So a lookup takes no lock and writes
// nothing, and a read that overlaps a write is a miss. Every decode is
// the same whatever the cache holds, so a miss costs only a search.
// A nil *SPCache is valid and never hits, so callers need no branching.
type SPCache struct {
	slots []spSlot
	shift uint // a key's home slot is the top bits of its hash
	probe int  // probe window length: spProbe, or the table size if smaller

	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
}

// spSlot is one table slot, 24 bytes.
type spSlot struct {
	// seq is 0 for a slot never written, odd while a writer holds it,
	// and even otherwise. After 2³¹ writes it wraps to 0 and the slot
	// reads as empty, which costs at most a miss.
	seq atomic.Uint32
	key atomic.Uint64
	// val holds the bits of an exact distance d ≥ 0, or of −b for a
	// marker of a pair unreached within bound b > 0.
	val atomic.Uint64
}

// DefaultSPCacheEntries is the table size used when
// SPCacheOptions.Capacity is zero: 65,536 slots of 24 bytes, 1.5 MiB,
// sized for city-scale candidate-node working sets.
const DefaultSPCacheEntries = 1 << 16

// spProbe is the length of a key's probe window. A store whose window
// is full overwrites one of its slots.
const spProbe = 8

// SPCacheOptions configures NewSPCache. Counter fields may be nil; the
// cache then keeps private counters.
type SPCacheOptions struct {
	// Capacity is the number of table slots, rounded down to a power of
	// two (0 uses DefaultSPCacheEntries; minimum one slot).
	Capacity int
	// Hits, Misses and Evictions, when non-nil, are incremented on the
	// corresponding cache events — pass counters from a metrics.Registry to
	// expose roadnet_sp_cache_{hits,misses,evictions}_total.
	Hits, Misses, Evictions *metrics.Counter
}

// NewSPCache builds an SPCache.
func NewSPCache(opts SPCacheOptions) *SPCache {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultSPCacheEntries
	}
	size := 1 << (bits.Len(uint(capacity)) - 1)
	c := &SPCache{
		slots:     make([]spSlot, size),
		shift:     uint(65 - bits.Len(uint(capacity))),
		probe:     min(spProbe, size),
		hits:      opts.Hits,
		misses:    opts.Misses,
		evictions: opts.Evictions,
	}
	if c.hits == nil {
		c.hits = &metrics.Counter{}
	}
	if c.misses == nil {
		c.misses = &metrics.Counter{}
	}
	if c.evictions == nil {
		c.evictions = &metrics.Counter{}
	}
	return c
}

// makeSPKey packs a (src, dst) node pair into one key.
func makeSPKey(src, dst NodeID) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// window returns the first slot of k's probe window and the offset,
// within the window, of the slot a full window gives up to k. Both come
// from a Fibonacci hash, so pairs that share a source still spread over
// the table.
func (c *SPCache) window(k uint64) (home uint64, victim int) {
	h := k * 0x9E3779B97F4A7C15
	// A shift of 64 (a one-slot table) yields 0, as Go defines it.
	return h >> c.shift, int(h>>29) & (c.probe - 1)
}

func (c *SPCache) slot(home uint64, i int) *spSlot {
	return &c.slots[(home+uint64(i))&uint64(len(c.slots)-1)]
}

// lookup returns the cached shortest distance from src to dst, if the
// cache can answer for the given search bound. On a hit, dist is either
// the exact distance (possibly greater than bound — callers enforce their
// own bound) or +Inf, meaning "known unreached within a bound >= bound".
// It loads and compares and writes nothing, not even a hit count: the
// HMM matcher adds its counts once per MatchPoints call. A nil cache
// always misses.
func (c *SPCache) lookup(src, dst NodeID, bound float64) (float64, bool) {
	if c == nil {
		return 0, false
	}
	k := makeSPKey(src, dst)
	home, _ := c.window(k)
	for i := 0; i < c.probe; i++ {
		s := c.slot(home, i)
		seq := s.seq.Load()
		if seq == 0 {
			// Stores fill a window front to back and never empty a
			// slot, so k lies in no later slot.
			return 0, false
		}
		if s.key.Load() != k {
			continue
		}
		v := math.Float64frombits(s.val.Load())
		if seq&1 != 0 || s.seq.Load() != seq {
			return 0, false // the read overlapped a write
		}
		if !math.Signbit(v) {
			return v, true
		}
		if -v >= bound {
			return math.Inf(1), true
		}
		return 0, false
	}
	return 0, false
}

// count adds a decode's lookup outcomes to the counters.
func (c *SPCache) count(hits, misses int64) {
	if c == nil {
		return
	}
	if hits != 0 {
		c.hits.Add(hits)
	}
	if misses != 0 {
		c.misses.Add(misses)
	}
}

// Store records the outcome of a bounded search for the (src, dst) pair:
// dist is the exact shortest distance when finite, or +Inf meaning the
// search's bound was exhausted without settling dst. Exact distances
// always overwrite; an unreached marker only widens a previous marker's
// bound, never replaces an exact distance. A store into a full probe
// window overwrites one of its slots and counts an eviction. A store that
// meets a slot another writer holds stores nothing, as do a negative or
// NaN distance and a marker whose bound is not positive, which no
// search produces.
func (c *SPCache) Store(src, dst NodeID, dist, bound float64) {
	if c == nil {
		return
	}
	var v float64
	switch {
	case dist >= 0 && !math.IsInf(dist, 1):
		v = math.Abs(dist) // +0 for −0: the sign bit marks a marker
	case math.IsInf(dist, 1) && bound > 0:
		v = -bound
	default:
		return
	}
	k := makeSPKey(src, dst)
	home, victim := c.window(k)
	var victimSeq uint32
	for i := 0; i < c.probe; i++ {
		s := c.slot(home, i)
		seq := s.seq.Load()
		switch {
		case seq&1 != 0:
			return // another writer holds the slot
		case seq == 0:
			s.write(seq, k, v)
			return
		case s.key.Load() == k:
			old := math.Float64frombits(s.val.Load())
			if math.Signbit(v) && !(math.Signbit(old) && v < old) {
				return // a marker only widens a narrower marker
			}
			s.write(seq, k, v)
			return
		}
		if i == victim {
			victimSeq = seq
		}
	}
	if c.slot(home, victim).write(victimSeq, k, v) {
		c.evictions.Inc()
	}
}

// write takes the slot if its counter still reads seq, so that nothing
// read from the slot since has changed, stores the entry and releases
// the slot. It reports false, storing nothing, if the counter moved.
func (s *spSlot) write(seq uint32, k uint64, v float64) bool {
	if !s.seq.CompareAndSwap(seq, seq+1) {
		return false
	}
	s.key.Store(k)
	s.val.Store(math.Float64bits(v))
	s.seq.Store(seq + 2)
	return true
}
