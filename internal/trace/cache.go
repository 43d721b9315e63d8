package trace

import "tracep/internal/cache"

// CacheConfig sizes the trace cache. Table 1: 128 kB, 4-way, LRU, 32-inst
// lines. 128 kB / (32 insts x 4 B) = 1024 lines; 4-way gives 256 sets.
type CacheConfig struct {
	Sets  int
	Assoc int
}

// DefaultCacheConfig matches Table 1.
func DefaultCacheConfig() CacheConfig { return CacheConfig{Sets: 256, Assoc: 4} }

// Cache is the trace cache: low-latency, high-bandwidth storage for
// pre-renamed traces, indexed by trace descriptor. Timing (sets/ways/LRU)
// is modelled by a SetAssoc; contents live in a map kept in sync with the
// timing array.
type Cache struct {
	timing cache.SetAssoc
	store  map[uint64]*Trace //tracep:nostats resident traces survive stat resets
}

// NewCache builds a trace cache.
func NewCache(cfg CacheConfig) *Cache { return new(Cache).Reset(cfg, nil) }

// Reset empties the cache in place into the state NewCache(cfg) builds,
// reusing its arrays and content index, and returns c. Each trace the cache
// stopped holding is passed to drop (when non-nil), in set and way order,
// so the caller can release the cache's reference to it — as it does for
// the trace Insert displaces.
func (c *Cache) Reset(cfg CacheConfig, drop func(*Trace)) *Cache {
	if cfg.Sets == 0 {
		cfg = DefaultCacheConfig()
	}
	if c.store == nil {
		c.store = make(map[uint64]*Trace)
	}
	if drop != nil {
		// Every resident trace has a valid timing line (eviction deletes
		// the content), so walking the lines visits each trace once in a
		// deterministic order.
		tags, valid, _ := c.timing.ExportState()
		for i, v := range valid {
			if tr, ok := c.store[tags[i]]; v && ok {
				drop(tr)
			}
		}
	}
	clear(c.store)
	c.timing.Reset(cfg.Sets, cfg.Assoc)
	return c
}

// Lookup searches for the trace identified by d. A miss does not allocate;
// the line is filled when the constructed trace is Inserted.
//
//tracep:noalloc
func (c *Cache) Lookup(d Descriptor) (*Trace, bool) {
	key := d.ID()
	if c.timing.Touch(key) {
		//tracep:allow map access: the trace cache content index is cold (one probe per fetch, gated by the timing hit)
		if tr, ok := c.store[key]; ok {
			return tr, true
		}
		// Timing hit with missing content can only follow an external
		// inconsistency; treat as miss.
		c.timing.Misses++
		c.timing.Accesses++
		return nil, false
	}
	return nil, false
}

// Insert fills the cache with tr, evicting an LRU victim if needed. It
// returns the trace the cache stopped holding — the LRU victim, or a
// different trace previously stored under the same key — so the caller can
// drop the cache's reference to it (nil when nothing was displaced). fresh
// is false when tr itself was already resident under its key, in which case
// the cache's reference count for tr is unchanged.
//
//tracep:noalloc
func (c *Cache) Insert(tr *Trace) (evicted *Trace, fresh bool) {
	key := tr.Desc.ID()
	//tracep:allow map access: the trace cache content index is cold (one probe per construction, not per cycle)
	if old, ok := c.store[key]; ok {
		if old == tr {
			c.timing.Fill(key)
			return nil, false
		}
		evicted = old
	}
	if victim, evict := c.timing.Fill(key); evict {
		//tracep:allow map access: the trace cache content index is cold (one probe per construction, not per cycle)
		if vtr, ok := c.store[victim]; ok {
			evicted = vtr
		}
		//tracep:allow map access: the trace cache content index is cold (one probe per construction, not per cycle)
		delete(c.store, victim)
	}
	//tracep:allow map access: the trace cache content index is cold (one probe per construction, not per cycle)
	c.store[key] = tr
	return evicted, true
}

// Clone returns a deep copy of the cache's timing state and content index.
func (c *Cache) Clone() *Cache { return new(Cache).CopyFrom(c) }

// CopyFrom overwrites c with a deep copy of src's timing state and content
// index, reusing c's storage, and returns c; traces c held before are
// dropped without release. The *Trace values themselves are shared: traces
// are immutable once inserted (repairs construct new traces rather than
// editing resident ones), so copies may alias them safely. Shared traces
// are pinned immortal — neither holder may recycle storage the other still
// reads.
func (c *Cache) CopyFrom(src *Cache) *Cache {
	c.timing.CopyFrom(&src.timing)
	if c.store == nil {
		c.store = make(map[uint64]*Trace, len(src.store))
	}
	clear(c.store)
	for k, tr := range src.store { //tracep:orderinvariant map-to-map copy
		tr.refs = -1
		c.store[k] = tr
	}
	return c
}

// ResetStats zeroes the lookup/miss counters, keeping resident traces.
func (c *Cache) ResetStats() { c.timing.ResetStats() }

// Stats returns lookup and miss counts.
func (c *Cache) Stats() (lookups, misses uint64) {
	return c.timing.Accesses, c.timing.Misses
}

// Resident reports whether the trace identified by d is currently cached
// (no LRU update; for tests).
func (c *Cache) Resident(d Descriptor) bool {
	return c.timing.Probe(d.ID())
}
