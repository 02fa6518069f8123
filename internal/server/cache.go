package server

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/amr"
	"repro/internal/grid"
	"repro/internal/sz"
)

// Key identifies one decoded block batch: frame Batch of level Level of
// member Member in the archive registered under Archive. It mirrors the
// seekable container's own frame granularity (archive.LevelIndex.BatchSpan),
// so a cache entry is exactly one independently decodable unit of the
// on-disk format.
type Key struct {
	Archive string
	Member  int
	Level   int
	Batch   int
}

// blocks is the cached value: the decoded unit blocks of one frame, in
// row-major mask order. Entries are shared between requests concurrently
// and must never be mutated after insertion; the assembly paths only copy
// out of them.
type blocks = []*grid.Grid3[amr.Value]

// CacheStats is a point-in-time snapshot of cache behavior. A batch
// answered from a live archive's tail view (archiveState.tail) never
// reaches the cache: it is neither a hit nor a miss nor a decode here, and
// is counted by IngestStats.TailBatchesServed instead.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget_bytes"`
	// Decodes counts fills that actually executed. Misses collapsed by
	// singleflight share one decode, so Decodes ≤ Misses; the gap is the
	// thundering-herd work the collapse saved.
	Decodes int64 `json:"decodes"`
}

// HitRatio returns Hits / (Hits + Misses), 0 when idle.
func (s CacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a sharded, byte-budgeted LRU over decoded block batches. Each
// shard owns an independent lock, hash ring and budget slice, so lookups
// from concurrent request goroutines contend only when they land on the
// same shard; fills are collapsed per key by a singleflight group that
// lives outside the shard locks, so a slow decode never blocks unrelated
// lookups.
type Cache struct {
	shards  []cacheShard
	seed    maphash.Seed
	flight  group[Key, blocks]
	decodes atomic.Int64
}

// cacheEntry is an intrusive LRU node; root.next is most recent.
type cacheEntry struct {
	key        Key
	val        blocks
	cost       int64
	prev, next *cacheEntry
}

type cacheShard struct {
	mu     sync.Mutex
	m      map[Key]*cacheEntry
	root   cacheEntry // sentinel of the recency ring
	bytes  int64
	budget int64

	hits, misses, evictions int64
}

// NewCache returns a cache budgeted at budgetBytes of decoded data split
// evenly across shards (shards ≤ 0 means DefaultCacheShards; a single
// shard makes eviction order fully deterministic, which the tests use).
func NewCache(budgetBytes int64, shards int) *Cache {
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	c := &Cache{shards: make([]cacheShard, shards), seed: maphash.MakeSeed()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.m = make(map[Key]*cacheEntry)
		sh.root.prev, sh.root.next = &sh.root, &sh.root
		sh.budget = budgetBytes / int64(shards)
	}
	return c
}

// shard maps a key to its shard by hashing every field.
func (c *Cache) shard(k Key) *cacheShard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(k.Archive)
	var num [24]byte
	for i, v := range [3]int{k.Member, k.Level, k.Batch} {
		u := uint64(v)
		for j := 0; j < 8; j++ {
			num[i*8+j] = byte(u >> (8 * j))
		}
	}
	h.Write(num[:])
	return &c.shards[h.Sum64()%uint64(len(c.shards))]
}

// GetOrFill returns the cached batch for k, or runs fill — once per key
// across all concurrent callers — and caches its result. fill returns the
// decoded blocks and their byte cost against the budget.
func (c *Cache) GetOrFill(k Key, fill func() (blocks, int64, error)) (blocks, error) {
	sh := c.shard(k)
	if v, ok := sh.get(k); ok {
		return v, nil
	}
	v, _, err := c.flight.Do(k, func() (blocks, error) {
		// Re-check under the flight: a previous flight for this key may
		// have landed between our miss and this call.
		if v, ok := sh.peek(k); ok {
			return v, nil
		}
		c.decodes.Add(1)
		v, cost, err := fill()
		if err != nil {
			return nil, err
		}
		sh.insert(k, v, cost)
		return v, nil
	})
	return v, err
}

// Purge drops every resident entry (counters are kept). Server.Close
// uses it so a registry reset cannot leave batches of a closed archive
// resident under a name a later Add might reuse.
func (c *Cache) Purge() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m = make(map[Key]*cacheEntry)
		sh.root.prev, sh.root.next = &sh.root, &sh.root
		sh.bytes = 0
		sh.mu.Unlock()
	}
}

// PurgeMember drops every resident entry of one member of one archive —
// the repair path calls it after resplicing the member's frames on disk,
// so blocks decoded while the member was damaged cannot outlive the
// repair.
func (c *Cache) PurgeMember(name string, mi int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if k.Archive == name && k.Member == mi {
				sh.unlink(e)
				delete(sh.m, k)
				sh.bytes -= e.cost
			}
		}
		sh.mu.Unlock()
	}
}

// Stats sums the shard counters.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Entries += int64(len(sh.m))
		st.Bytes += sh.bytes
		st.Budget += sh.budget
		sh.mu.Unlock()
	}
	st.Decodes = c.decodes.Load()
	return st
}

// get looks k up, bumping recency and the hit/miss counters.
func (sh *cacheShard) get(k Key) (blocks, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[k]
	if !ok {
		sh.misses++
		return nil, false
	}
	sh.hits++
	sh.moveToFront(e)
	return e.val, true
}

// peek is get without counters: the double-check inside a fill is not a
// new request, so it must not skew the hit ratio.
func (sh *cacheShard) peek(k Key) (blocks, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[k]; ok {
		sh.moveToFront(e)
		return e.val, true
	}
	return nil, false
}

// insert adds the entry at the front and evicts from the tail until the
// shard fits its budget again. An entry larger than the whole budget is
// still admitted (and everything else evicted): repeated requests for one
// oversized frame must hit, not thrash.
func (sh *cacheShard) insert(k Key, v blocks, cost int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[k]; ok {
		// Lost a race with another insert of the same key; keep the
		// resident entry.
		sh.moveToFront(e)
		return
	}
	e := &cacheEntry{key: k, val: v, cost: cost}
	sh.m[k] = e
	sh.pushFront(e)
	sh.bytes += cost
	for sh.bytes > sh.budget && sh.root.prev != e {
		old := sh.root.prev
		sh.unlink(old)
		delete(sh.m, old.key)
		sh.bytes -= old.cost
		sh.evictions++
	}
}

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev = &sh.root
	e.next = sh.root.next
	e.prev.next = e
	e.next.prev = e
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (sh *cacheShard) moveToFront(e *cacheEntry) {
	sh.unlink(e)
	sh.pushFront(e)
}

// batchCost prices a decoded batch for the byte budget: the data slab
// (sz's own costing of a decoded frame) plus per-block header overhead.
func batchCost(v blocks) int64 {
	if len(v) == 0 {
		return 0
	}
	const hdr = 64 // Grid3 header + pointer, amortized
	info := sz.BatchInfo{BlockDims: v[0].Dim, Blocks: len(v)}
	return info.DecodedBytes(amr.ValueBytes) + int64(len(v))*hdr
}

// String implements fmt.Stringer for log lines.
func (k Key) String() string {
	return fmt.Sprintf("%s/m%d/l%d/b%d", k.Archive, k.Member, k.Level, k.Batch)
}
