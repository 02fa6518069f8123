package server

import (
	"hash/maphash"

	"repro/internal/amr"
	"repro/internal/grid"
	"repro/internal/lru"
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

// Cache is the block cache: an lru.Cache over decoded block batches, so
// lookups from concurrent request goroutines contend only when they land
// on the same shard, and concurrent misses on one frame share one decode
// that runs with no lock held.
type Cache struct {
	c *lru.Cache[Key, blocks]
}

// NewCache returns a cache budgeted at budgetBytes of decoded data split
// evenly across DefaultCacheShards shards. A key's shard comes from a hash
// of every field.
func NewCache(budgetBytes int64) *Cache {
	seed := maphash.MakeSeed()
	return &Cache{lru.New[Key, blocks](budgetBytes, DefaultCacheShards, func(k Key) uint64 {
		return maphash.Comparable(seed, k)
	})}
}

// GetOrFill returns the cached batch for k, or runs fill — once per key
// across all concurrent callers — and caches its result. fill returns the
// decoded blocks and their byte cost against the budget.
func (c *Cache) GetOrFill(k Key, fill func() (blocks, int64, error)) (blocks, error) {
	return c.c.GetOrFill(k, fill)
}

// Purge drops every resident entry (counters are kept). Server.Close
// uses it so a registry reset cannot leave batches of a closed archive
// resident under a name a later Add might reuse.
func (c *Cache) Purge() { c.c.Purge() }

// PurgeMember drops every resident entry of one member of one archive —
// the repair path calls it after resplicing the member's frames on disk,
// so blocks decoded while the member was damaged cannot outlive the
// repair, whether they are resident or still being decoded.
func (c *Cache) PurgeMember(name string, mi int) {
	c.c.PurgeFunc(func(k Key) bool { return k.Archive == name && k.Member == mi })
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	st := c.c.Stats()
	return CacheStats{
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		Entries: st.Entries, Bytes: st.Bytes, Budget: st.Budget, Decodes: st.Fills,
	}
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
