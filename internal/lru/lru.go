// Package lru is the one cache of the serving stack: a sharded,
// byte-budgeted LRU whose concurrent misses on a key share one fill. tacd's
// block cache (decoded frames, internal/server) and a remote mount's
// segment cache (fetched byte ranges, internal/remote) are both instances.
//
// A lookup, its miss and the registration of the fill that answers it are
// one hold of the key's shard lock; the fill itself runs with no lock
// held, so a slow fill delays only callers that want its key, and a fill
// may call GetOrFill on another key, of the same shard or not. A run of
// keys that are cheaper to fill together (a remote mount's adjacent
// segments, fetched in one range request) is registered as one fill that
// every caller of any of its keys shares. Errors reach every waiter and
// are never cached.
package lru

import (
	"errors"
	"fmt"
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
	e, f, own := sh.lookup(k)
	if e != nil {
		return e.val, nil
	}
	if !own {
		<-f.done
		return f.val, f.err
	}
	var cost int64
	defer func() { sh.land(k, f, cost) }()
	f.val, cost, f.err = fill()
	return f.val, f.err
}

// GetOrFillRun is GetOrFill over a sequence of keys that are cheaper to fill
// together than one by one. It returns the values of keys, in order. Each
// maximal run of consecutive keys that are neither resident nor being
// filled is registered as one fill, shared by every concurrent caller of
// any of its keys: fill(lo, hi) runs once for keys[lo:hi] and returns one
// value and one cost per key. A key another caller is filling is waited
// for, and a resident key is a hit; each key counts as one lookup and each
// key a run fills as one fill. A run that fails hands its error to the
// waiters of every one of its keys and caches none of them, and the call
// returns that error at once. Every fill of a call has landed before it
// waits on another caller's, so callers whose runs overlap cannot wait on
// each other in a cycle.
func (c *Cache[K, V]) GetOrFillRun(keys []K, fill func(lo, hi int) ([]V, []int64, error)) ([]V, error) {
	vals := make([]V, len(keys))
	for i := 0; i < len(keys); {
		e, f, own := c.shard(keys[i]).lookup(keys[i])
		switch {
		case e != nil:
			vals[i] = e.val
			i++
		case !own:
			<-f.done
			if f.err != nil {
				return nil, f.err
			}
			vals[i] = f.val
			i++
		default:
			run := []*flight[V]{f}
			for j := i + 1; j < len(keys); j++ {
				f := c.shard(keys[j]).claim(keys[j])
				if f == nil {
					break
				}
				run = append(run, f)
			}
			lo, hi := i, i+len(run)
			if err := c.fillRun(keys[lo:hi], run, func() ([]V, []int64, error) { return fill(lo, hi) }); err != nil {
				return nil, err
			}
			for k, f := range run {
				vals[lo+k] = f.val
			}
			i = hi
		}
	}
	return vals, nil
}

// fillRun runs fill for the flights of keys, which the caller registered,
// and lands each one, with its value or with the run's error.
func (c *Cache[K, V]) fillRun(keys []K, run []*flight[V], fill func() ([]V, []int64, error)) error {
	var costs []int64
	defer func() {
		for k, f := range run {
			var cost int64
			if f.err == nil {
				cost = costs[k]
			}
			c.shard(keys[k]).land(keys[k], f, cost)
		}
	}()
	vals, costs, err := fill()
	if err == nil && (len(vals) != len(run) || len(costs) != len(run)) {
		err = fmt.Errorf("lru: run fill returned %d values and %d costs for %d keys", len(vals), len(costs), len(run))
	}
	for k, f := range run {
		if f.err = err; err == nil {
			f.val = vals[k]
		}
	}
	return err
}

// Get returns the value resident under k, counting a hit and making it
// the most recent entry. A key that is not resident counts nothing, and a
// fill in flight for it is not waited for: a caller that goes on to
// GetOrFill k has its miss counted there, once.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	sh.hits++
	sh.moveToFront(e)
	return e.val, true
}

// Has reports whether k is resident or being filled, without counting a
// lookup or touching its recency: a caller planning work that a miss on k
// would cause asks it first.
func (c *Cache[K, V]) Has(k K) bool {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.has(k)
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

// lookup is a lookup of k and, on a miss, the registration of the fill
// that answers it, in one hold of the lock. It returns the resident entry
// (a hit), or the fill in flight to wait for, or a fill registered for the
// caller to run and land (own).
func (sh *shard[K, V]) lookup(k K) (e *entry[K, V], f *flight[V], own bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[k]; ok {
		sh.hits++
		sh.moveToFront(e)
		return e, nil, false
	}
	sh.misses++
	if f, ok := sh.flights[k]; ok {
		return nil, f, false
	}
	return nil, sh.register(k), true
}

// claim registers a fill of k for the caller to run and land, counted as a
// miss, if k is neither resident nor being filled; otherwise it returns
// nil and counts nothing.
func (sh *shard[K, V]) claim(k K) *flight[V] {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.has(k) {
		return nil
	}
	sh.misses++
	return sh.register(k)
}

// has reports whether k is resident or being filled. Caller holds sh.mu.
func (sh *shard[K, V]) has(k K) bool {
	_, resident := sh.m[k]
	_, filling := sh.flights[k]
	return resident || filling
}

// register records a fill of k in flight. Until it lands, its waiters see
// ErrFillPanicked. Caller holds sh.mu.
func (sh *shard[K, V]) register(k K) *flight[V] {
	f := &flight[V]{done: make(chan struct{}), err: ErrFillPanicked}
	sh.flights[k] = f
	sh.fills++
	return f
}

// land ends fill f of k: unless a purge disowned it, k leaves the flights
// and, filled without error, enters at cost. Its waiters are released
// last.
func (sh *shard[K, V]) land(k K, f *flight[V], cost int64) {
	sh.mu.Lock()
	if sh.flights[k] == f {
		delete(sh.flights, k)
		if f.err == nil && sh.budget > 0 {
			sh.insert(k, f.val, cost)
		}
	}
	sh.mu.Unlock()
	close(f.done)
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
