package od

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/subspace"
)

// DefaultSharedCacheCapacity is the entry bound NewSharedCache applies
// when the caller passes 0. At 16 bytes of payload per entry (plus map
// overhead) the default keeps a batch's memo comfortably under a few
// MiB.
const DefaultSharedCacheCapacity = 1 << 16

// sharedShards is the fixed shard count of a SharedCache. Sharding by
// key hash keeps concurrent batch workers from serialising on one
// mutex.
const sharedShards = 16

// sharedKey identifies one memoised OD entry: the query point's
// identity (see pointIdentity) plus the subspace it was evaluated in.
// Dataset rows are keyed by index alone so the hot batch-by-index path
// builds keys without allocating; external points carry their
// coordinate bit pattern.
type sharedKey struct {
	row   int    // dataset row index, or -1 for external points
	point string // coordinate bits for external points, "" for rows
	mask  subspace.Mask
}

type sharedShard struct {
	mu sync.Mutex
	m  map[sharedKey]entry
}

// SharedCache is a bounded, concurrency-safe memo of OD evaluations
// keyed by (point, subspace mask), shared by the Query instances of
// one batch. Duplicate queries — the common shape of multi-user
// traffic — then pay for each distinct (point, subspace) evaluation
// once per batch instead of once per request.
//
// The cache stores what a Query learned about OD — the value itself
// (the reduction of the point's k-NN neighbourhood in that subspace)
// or a verdict against a threshold (see Query.Exceeds); since OD is
// the only consumer of neighbourhoods on the query path, memoising it
// subsumes memoising the neighbour set. Eviction is random-replacement
// per shard: cheap, concurrency-friendly, and — because OD values are
// deterministic — only ever a performance concern, never a
// correctness one.
type SharedCache struct {
	shards    [sharedShards]sharedShard
	shardCap  int
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewSharedCache builds a cache bounded to roughly capacity entries
// (0 selects DefaultSharedCacheCapacity, negative returns nil —
// caching disabled; a nil *SharedCache is valid everywhere one is
// accepted).
func NewSharedCache(capacity int) *SharedCache {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = DefaultSharedCacheCapacity
	}
	per := (capacity + sharedShards - 1) / sharedShards
	if per < 1 {
		per = 1
	}
	c := &SharedCache{shardCap: per}
	for i := range c.shards {
		c.shards[i].m = make(map[sharedKey]entry)
	}
	return c
}

// Reset clears all entries and counters and re-bounds the cache to
// roughly capacity entries (0 selects DefaultSharedCacheCapacity),
// retaining each shard's map buckets so a pooled cache reaches an
// allocation-free steady state. It must not be called while any
// goroutine is still using the cache.
func (c *SharedCache) Reset(capacity int) {
	if c == nil {
		return
	}
	if capacity <= 0 {
		capacity = DefaultSharedCacheCapacity
	}
	per := (capacity + sharedShards - 1) / sharedShards
	if per < 1 {
		per = 1
	}
	c.shardCap = per
	for i := range c.shards {
		clear(c.shards[i].m)
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

// shardFor hashes the key onto a shard (FNV-1a over the row index,
// the point bytes and the mask).
func (c *SharedCache) shardFor(k sharedKey) *sharedShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(int64(k.row))) * prime64
	for i := 0; i < len(k.point); i++ {
		h = (h ^ uint64(k.point[i])) * prime64
	}
	h = (h ^ uint64(k.mask)) * prime64
	return &c.shards[h%sharedShards]
}

// lookup returns the resident entry for k, if any.
func (c *SharedCache) lookup(k sharedKey) (entry, bool) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	en, ok := sh.m[k]
	sh.mu.Unlock()
	return en, ok
}

// count records a lookup outcome: a hit only when the entry answered
// the question asked, so Misses stays the number of computations.
func (c *SharedCache) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// get looks up an exact OD value; a verdict-only entry is a miss.
func (c *SharedCache) get(k sharedKey) (float64, bool) {
	if c == nil {
		return 0, false
	}
	en, ok := c.lookup(k)
	ok = ok && en.kind == exactOD
	c.count(ok)
	return en.v, ok
}

// decide answers OD ≥ T from a memoised entry when it settles it.
func (c *SharedCache) decide(k sharedKey, T float64) (yes, ok bool) {
	en, found := c.lookup(k)
	if found {
		yes, ok = en.decide(T)
	}
	c.count(ok)
	return yes, ok
}

// put memoises an exact OD value.
func (c *SharedCache) put(k sharedKey, v float64) {
	if c == nil {
		return
	}
	c.store(k, entry{v: v})
}

// store memoises an entry, evicting an arbitrary resident entry when
// the shard is full. A verdict never displaces a resident exact value.
func (c *SharedCache) store(k sharedKey, en entry) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	old, ok := sh.m[k]
	switch {
	case ok && old.kind == exactOD && en.kind != exactOD:
		sh.mu.Unlock()
		return
	case !ok && len(sh.m) >= c.shardCap:
		for victim := range sh.m {
			delete(sh.m, victim)
			break
		}
		c.evictions.Add(1)
	}
	sh.m[k] = en
	sh.mu.Unlock()
}

// SharedCacheStats is a point-in-time counter snapshot of a
// SharedCache.
type SharedCacheStats struct {
	// Hits and Misses count lookups by Query instances attached to the
	// cache (a hit is an entry that answered the lookup: a value for
	// OD, a settling value or verdict for Exceeds); Misses therefore
	// equals the number of OD computations and threshold decisions the
	// batch actually performed through shared queries.
	Hits   int64
	Misses int64
	// Evictions counts entries displaced by the capacity bound.
	Evictions int64
	// Entries is the current resident entry count.
	Entries int
}

// Stats snapshots the cache counters. A nil cache reports zeros.
func (c *SharedCache) Stats() SharedCacheStats {
	if c == nil {
		return SharedCacheStats{}
	}
	st := SharedCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
		st.Entries += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return st
}

// pointIdentity derives a query point's shared-cache identity.
// Dataset members are identified by their row index alone (which also
// pins the self-exclusion semantics) — an integer, so the hot
// batch-by-index path allocates nothing. External points are
// identified by the exact bit pattern of their coordinates — the same
// exactness-over-cleverness rule as the server's result-cache key —
// with row = -1 so they can never collide with a dataset row.
func pointIdentity(point []float64, exclude int) (row int, key string) {
	if exclude >= 0 {
		return exclude, ""
	}
	buf := make([]byte, 8*len(point))
	for i, v := range point {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return -1, string(buf)
}
