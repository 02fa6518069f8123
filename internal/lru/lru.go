// Package lru is the one cache of the serving stack: a sharded,
// byte-budgeted LRU whose concurrent misses on a key share one fill. tacd's
// block cache (decoded frames, internal/server) and a remote mount's
// segment cache (fetched byte ranges, internal/remote) are both instances.
//
// A lookup, its miss and the registration of the fill that answers it are
// one hold of the key's shard lock; the fill itself runs with no lock
// held, so a slow fill delays only callers that want its key, and a fill
// may call GetOrFill on another key, of the same shard or not. Errors
// reach every waiter and are never cached.
package lru

import (
	"errors"
	"sync"
)

// ErrFillPanicked is what the waiters of a fill that panicked get: the
// panic propagates on the goroutine that ran the fill (net/http turns it
// into a 500 for that one request), and everyone who piggybacked gets an
// error instead of a zero value or a wait that never ends.
var ErrFillPanicked = errors.New("lru: fill panicked")

// Stats is a point-in-time sum of the shard counters.
type Stats struct {
	Hits      int64 // lookups answered by a resident entry
	Misses    int64 // lookups that ran a fill or waited for one
	Fills     int64 // fills that ran (≤ Misses: concurrent misses share one)
	Evictions int64 // entries dropped to fit the budget
	Entries   int64 // resident entries
	Bytes     int64 // their summed cost
	Budget    int64 // summed shard budgets
}

// Cache maps K to V. It is safe for concurrent use; cached values are
// shared between callers and must not be mutated.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	hash   func(K) uint64
}

// entry is an intrusive node of a shard's recency ring.
type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// flight is a fill in progress; done closes once val and err are set.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

type shard[K comparable, V any] struct {
	mu      sync.Mutex
	m       map[K]*entry[K, V]
	root    entry[K, V] // sentinel of the recency ring; root.next is most recent
	flights map[K]*flight[V]
	bytes   int64
	budget  int64

	hits, misses, fills, evictions int64
}

// New returns a cache of budget bytes split evenly over shards ≥ 1, each with
// its own lock, recency order and share of the budget; hash picks a key's
// shard and is not called when there is one shard, which also makes
// eviction order deterministic. A budget ≤ 0 keeps nothing resident and
// still collapses concurrent fills.
func New[K comparable, V any](budget int64, shards int, hash func(K) uint64) *Cache[K, V] {
	c := &Cache[K, V]{shards: make([]shard[K, V], shards), hash: hash}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.budget = budget / int64(shards)
		sh.reset()
	}
	return c
}

func (c *Cache[K, V]) shard(k K) *shard[K, V] {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[c.hash(k)%uint64(len(c.shards))]
}

// GetOrFill returns the value cached under k, or runs fill — once across
// all concurrent callers of k — and caches what it returns at the byte
// cost it reports. An entry larger than the whole budget is still admitted
// (and everything older evicted): repeated requests for one oversized
// value must hit, not thrash. A fill that Purge or PurgeFunc overtook is
// returned to the callers already waiting for it and not cached.
func (c *Cache[K, V]) GetOrFill(k K, fill func() (V, int64, error)) (V, error) {
	sh := c.shard(k)
	sh.mu.Lock()
	if e, ok := sh.m[k]; ok {
		sh.hits++
		sh.moveToFront(e)
		sh.mu.Unlock()
		return e.val, nil
	}
	sh.misses++
	if f, ok := sh.flights[k]; ok {
		sh.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{}), err: ErrFillPanicked}
	sh.flights[k] = f
	sh.fills++
	sh.mu.Unlock()

	var cost int64
	defer func() {
		sh.mu.Lock()
		if sh.flights[k] == f {
			delete(sh.flights, k)
			if f.err == nil && sh.budget > 0 {
				sh.insert(k, f.val, cost)
			}
		}
		sh.mu.Unlock()
		close(f.done)
	}()
	f.val, cost, f.err = fill()
	return f.val, f.err
}

// Purge drops every resident entry and disowns every fill in flight
// (counters are kept).
func (c *Cache[K, V]) Purge() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.reset()
		sh.mu.Unlock()
	}
}

// PurgeFunc drops every resident entry whose key drop reports true, and
// disowns the fills in flight for such keys. drop runs under a shard lock
// and must not call into the cache.
func (c *Cache[K, V]) PurgeFunc(drop func(K) bool) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			if drop(k) {
				sh.remove(e)
			}
		}
		for k := range sh.flights {
			if drop(k) {
				delete(sh.flights, k)
			}
		}
		sh.mu.Unlock()
	}
}

// Stats sums the shard counters.
func (c *Cache[K, V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Fills += sh.fills
		st.Evictions += sh.evictions
		st.Entries += int64(len(sh.m))
		st.Bytes += sh.bytes
		st.Budget += sh.budget
		sh.mu.Unlock()
	}
	return st
}

// reset empties the shard's resident set and forgets its flights. Caller
// holds sh.mu.
func (sh *shard[K, V]) reset() {
	sh.m = make(map[K]*entry[K, V])
	sh.flights = make(map[K]*flight[V])
	sh.root.prev, sh.root.next = &sh.root, &sh.root
	sh.bytes = 0
}

// insert adds the entry at the front and evicts from the tail until the
// shard fits its budget again or only the new entry is left. Caller holds
// sh.mu, and k is not resident: its flight was registered until now.
func (sh *shard[K, V]) insert(k K, v V, cost int64) {
	e := &entry[K, V]{key: k, val: v, cost: cost}
	sh.m[k] = e
	sh.pushFront(e)
	sh.bytes += cost
	for sh.bytes > sh.budget && sh.root.prev != e {
		sh.remove(sh.root.prev)
		sh.evictions++
	}
}

func (sh *shard[K, V]) remove(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	delete(sh.m, e.key)
	sh.bytes -= e.cost
}

func (sh *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &sh.root
	e.next = sh.root.next
	e.prev.next = e
	e.next.prev = e
}

func (sh *shard[K, V]) moveToFront(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	sh.pushFront(e)
}
