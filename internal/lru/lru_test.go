package lru

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// TestCache drives the sequential promises of one shard from a table: what
// a lookup finds, what an insert evicts, what never enters. Every fill
// returns its key as the value.
func TestCache(t *testing.T) {
	type op struct {
		key    int
		cost   int64
		fail   bool // the fill, if it runs, returns errBoom
		filled bool // want the fill to run
	}
	cases := []struct {
		name   string
		budget int64
		ops    []op
		want   Stats
	}{
		{
			// Every insert after the first evicts its predecessor; the
			// survivor is the most recent key.
			name: "tiny budget", budget: 100,
			ops: []op{
				{key: 0, cost: 60, filled: true}, {key: 1, cost: 60, filled: true}, {key: 2, cost: 60, filled: true},
				{key: 3, cost: 60, filled: true}, {key: 4, cost: 60, filled: true}, {key: 4, cost: 60},
			},
			want: Stats{Hits: 1, Misses: 5, Fills: 5, Evictions: 4, Entries: 1, Bytes: 60, Budget: 100},
		},
		{
			// Touching 0 makes 1 the eviction victim of 2; then 1 refills
			// and evicts 2, never the twice-touched 0.
			name: "recency order", budget: 130,
			ops: []op{
				{key: 0, cost: 60, filled: true}, {key: 1, cost: 60, filled: true}, {key: 0, cost: 60},
				{key: 2, cost: 60, filled: true}, {key: 0, cost: 60}, {key: 1, cost: 60, filled: true},
				{key: 0, cost: 60}, {key: 2, cost: 60, filled: true},
			},
			want: Stats{Hits: 3, Misses: 5, Fills: 5, Evictions: 3, Entries: 2, Bytes: 120, Budget: 130},
		},
		{
			// Larger than the whole budget, still admitted: repeats hit.
			name: "oversized entry", budget: 10,
			ops:  []op{{key: 0, cost: 1000, filled: true}, {key: 0, cost: 1000}, {key: 0, cost: 1000}},
			want: Stats{Hits: 2, Misses: 1, Fills: 1, Entries: 1, Bytes: 1000, Budget: 10},
		},
		{
			name: "oversized entry evicts all older", budget: 100,
			ops: []op{
				{key: 0, cost: 40, filled: true}, {key: 1, cost: 40, filled: true},
				{key: 2, cost: 1000, filled: true}, {key: 2, cost: 1000}, {key: 0, cost: 40, filled: true},
			},
			want: Stats{Hits: 1, Misses: 4, Fills: 4, Evictions: 3, Entries: 1, Bytes: 40, Budget: 100},
		},
		{
			// Errors are returned, never cached; the key fills again.
			name: "fill error", budget: 1000,
			ops: []op{
				{key: 0, cost: 10, fail: true, filled: true}, {key: 0, cost: 10, fail: true, filled: true},
				{key: 0, cost: 10, filled: true}, {key: 0, cost: 10},
			},
			want: Stats{Hits: 1, Misses: 3, Fills: 3, Entries: 1, Bytes: 10, Budget: 1000},
		},
		{
			name: "zero budget keeps nothing", budget: 0,
			ops:  []op{{key: 0, cost: 10, filled: true}, {key: 0, cost: 10, filled: true}, {key: 1, filled: true}},
			want: Stats{Misses: 3, Fills: 3},
		},
		{
			name: "negative budget keeps nothing", budget: -1,
			ops:  []op{{key: 0, cost: 10, filled: true}, {key: 0, cost: 10, filled: true}},
			want: Stats{Misses: 2, Fills: 2, Budget: -1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache := New[int, int](c.budget, 1, nil)
			for i, o := range c.ops {
				ran := false
				v, err := cache.GetOrFill(o.key, func() (int, int64, error) {
					ran = true
					if o.fail {
						return 0, 0, errBoom
					}
					return o.key, o.cost, nil
				})
				if ran != o.filled {
					t.Fatalf("op %d (key %d): fill ran = %v, want %v", i, o.key, ran, o.filled)
				}
				if failed := o.fail && o.filled; failed != errors.Is(err, errBoom) || (!failed && (err != nil || v != o.key)) {
					t.Fatalf("op %d (key %d): got (%d, %v)", i, o.key, v, err)
				}
			}
			if got := cache.Stats(); got != c.want {
				t.Fatalf("stats %+v, want %+v", got, c.want)
			}
		})
	}
}

// stalled is a fill for one key parked inside its fill function.
type stalled struct {
	release chan struct{} // close to let the fill return
	done    chan struct{} // closed once the leader's GetOrFill returned
	val     int
	err     error
	panicv  any
}

// stall starts a goroutine whose fill for k blocks until release is
// closed, then returns (v, cost, nil) or panics with panicv if that is
// non-nil. It returns once the fill is running.
func stall(c *Cache[int, int], k, v int, cost int64, panicv any) *stalled {
	s := &stalled{release: make(chan struct{}), done: make(chan struct{})}
	started := make(chan struct{})
	go func() {
		defer close(s.done)
		defer func() { s.panicv = recover() }()
		s.val, s.err = c.GetOrFill(k, func() (int, int64, error) {
			close(started)
			<-s.release
			if panicv != nil {
				panic(panicv)
			}
			return v, cost, nil
		})
	}()
	<-started
	return s
}

// follow starts n callers of k whose own fill must never run, and returns
// once all of them are counted as misses — that is, once each has found
// the flight (or will find the entry) and none can start a fill of its own
// unless the flight is disowned. wait collects their results.
func follow(t *testing.T, c *Cache[int, int], k, n int) (wait func() ([]int, []error)) {
	t.Helper()
	base := c.Stats().Misses
	vals, errs := make([]int, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], errs[i] = c.GetOrFill(k, func() (int, int64, error) {
				t.Errorf("follower %d of key %d ran a fill of its own", i, k)
				return -1, 0, nil
			})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Misses < base+int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("followers of key %d never reached the flight", k)
		}
		time.Sleep(time.Millisecond)
	}
	return func() ([]int, []error) { wg.Wait(); return vals, errs }
}

func constFill(v int, cost int64, calls *atomic.Int64) func() (int, int64, error) {
	return func() (int, int64, error) {
		calls.Add(1)
		return v, cost, nil
	}
}

// TestCollapse: a parked leader, piggybacking followers, one fill — with a
// budget and without one.
func TestCollapse(t *testing.T) {
	for _, budget := range []int64{1000, 0, -1} {
		t.Run(fmt.Sprintf("budget %d", budget), func(t *testing.T) {
			c := New[int, int](budget, 1, nil)
			lead := stall(c, 7, 42, 10, nil)
			wait := follow(t, c, 7, 4)
			close(lead.release)
			vals, errs := wait()
			<-lead.done
			for i := range vals {
				if vals[i] != 42 || errs[i] != nil {
					t.Fatalf("follower %d got (%d, %v), want (42, nil)", i, vals[i], errs[i])
				}
			}
			if lead.val != 42 || lead.err != nil {
				t.Fatalf("leader got (%d, %v)", lead.val, lead.err)
			}
			st := c.Stats()
			want := Stats{Misses: 5, Fills: 1, Budget: budget}
			if budget > 0 {
				want.Entries, want.Bytes = 1, 10
			}
			if st != want {
				t.Fatalf("stats %+v, want %+v: nothing resident without a budget", st, want)
			}
		})
	}
}

// TestFillPanic: the panic surfaces on the goroutine that ran the fill,
// every waiter gets ErrFillPanicked instead of hanging, nothing is cached,
// and the next caller runs a fresh fill.
func TestFillPanic(t *testing.T) {
	c := New[int, int](1000, 1, nil)
	lead := stall(c, 1, 0, 0, "kaboom")
	wait := follow(t, c, 1, 3)
	close(lead.release)
	_, errs := wait()
	<-lead.done
	if lead.panicv != "kaboom" {
		t.Fatalf("leader recovered %v, want the fill's panic", lead.panicv)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrFillPanicked) {
			t.Fatalf("follower %d err = %v, want ErrFillPanicked", i, err)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("panicked fill left %d entries", st.Entries)
	}
	var calls atomic.Int64
	if v, err := c.GetOrFill(1, constFill(5, 1, &calls)); v != 5 || err != nil || calls.Load() != 1 {
		t.Fatalf("after the panic: (%d, %v) from %d fills, want a fresh fill", v, err, calls.Load())
	}
}

// TestPurgeOvertakesFill: a fill that Purge or PurgeFunc overtook still
// answers the callers that were waiting for it, but a caller arriving
// after the purge starts a fill of its own without waiting, and the
// overtaken result never enters the cache — not over the newer entry, and
// not into an empty slot.
func TestPurgeOvertakesFill(t *testing.T) {
	purges := map[string]func(*Cache[int, int]){
		"Purge":     func(c *Cache[int, int]) { c.Purge() },
		"PurgeFunc": func(c *Cache[int, int]) { c.PurgeFunc(func(k int) bool { return k == 1 }) },
	}
	for name, purge := range purges {
		t.Run(name, func(t *testing.T) {
			c := New[int, int](1000, 1, nil)
			var calls atomic.Int64
			if _, err := c.GetOrFill(0, constFill(0, 10, &calls)); err != nil {
				t.Fatal(err)
			}
			old := stall(c, 1, 111, 10, nil)
			wait := follow(t, c, 1, 2)
			purge(c)

			// The old fill is still parked: this returns only if it does
			// not wait on it.
			if v, err := c.GetOrFill(1, constFill(222, 10, &calls)); v != 222 || err != nil {
				t.Fatalf("caller after the purge got (%d, %v), want its own fill's 222", v, err)
			}
			close(old.release)
			vals, errs := wait()
			<-old.done
			for i := range vals {
				if vals[i] != 111 || errs[i] != nil {
					t.Fatalf("waiter %d of the overtaken fill got (%d, %v), want (111, nil)", i, vals[i], errs[i])
				}
			}
			if v, _ := c.GetOrFill(1, constFill(-1, 10, &calls)); v != 222 {
				t.Fatalf("resident value %d, want 222: the overtaken fill entered the cache", v)
			}

			// Again with nobody refilling: the slot stays empty.
			old = stall(c, 2, 333, 10, nil)
			if name == "Purge" {
				c.Purge()
			} else {
				c.PurgeFunc(func(k int) bool { return k == 2 })
			}
			close(old.release)
			<-old.done
			if old.val != 333 || old.err != nil {
				t.Fatalf("overtaken leader got (%d, %v)", old.val, old.err)
			}
			before := calls.Load()
			if v, _ := c.GetOrFill(2, constFill(444, 10, &calls)); v != 444 || calls.Load() != before+1 {
				t.Fatalf("key 2 answered %d without a fresh fill: the overtaken fill was cached", v)
			}

			// PurgeFunc drops only what it was asked to.
			before = calls.Load()
			_, _ = c.GetOrFill(0, constFill(-1, 10, &calls))
			if kept := calls.Load() == before; kept != (name == "PurgeFunc") {
				t.Fatalf("key 0 resident after %s = %v", name, kept)
			}
		})
	}
}

// TestFillRecursesIntoSameShard: a fill may call GetOrFill on another key
// of its own shard (the block cache resolves a delta chain that way).
func TestFillRecursesIntoSameShard(t *testing.T) {
	c := New[int, int](1000, 1, nil)
	var chain func(k int) (int, error)
	chain = func(k int) (int, error) {
		return c.GetOrFill(k, func() (int, int64, error) {
			if k == 0 {
				return 1, 8, nil
			}
			ref, err := chain(k - 1)
			return ref + 1, 8, err
		})
	}
	got := make(chan int, 1)
	go func() {
		v, _ := chain(5)
		got <- v
	}()
	select {
	case v := <-got:
		if v != 6 {
			t.Fatalf("chain of 6 returned %d", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a fill calling GetOrFill on its own shard deadlocked")
	}
	if st := c.Stats(); st.Entries != 6 || st.Fills != 6 {
		t.Fatalf("stats %+v, want every link of the chain resident once", st)
	}
}

// TestConcurrentDistinctKeys runs concurrent fills over many keys through
// many shards (race coverage for the shard locks and the flight maps) and
// checks the counters add up.
func TestConcurrentDistinctKeys(t *testing.T) {
	c := New[int, int](1<<20, 8, func(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 >> 32 })
	const keys, rounds, workers = 32, 4, 8
	var calls atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					if v, err := c.GetOrFill(k, constFill(k, 64, &calls)); err != nil || v != k {
						t.Errorf("key %d returned (%d, %v)", k, v, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Fills != keys || calls.Load() != keys {
		t.Fatalf("fills %d (ran %d), want %d: the budget fits everything, each key fills once", st.Fills, calls.Load(), keys)
	}
	if st.Hits+st.Misses != keys*rounds*workers {
		t.Fatalf("hits %d + misses %d != %d requests", st.Hits, st.Misses, keys*rounds*workers)
	}
	if st.Entries != keys || st.Bytes != keys*64 || st.Budget != 1<<20 {
		t.Fatalf("resident %+v, want %d entries of 64 bytes under the whole budget", st, keys)
	}
}

// runFill is a GetOrFillRun fill that records the runs it was asked for
// and returns each key as its value, at cost 10.
func runFill(keys []int, runs *[][2]int) func(lo, hi int) ([]int, []int64, error) {
	return func(lo, hi int) ([]int, []int64, error) {
		*runs = append(*runs, [2]int{lo, hi})
		vals, costs := make([]int, hi-lo), make([]int64, hi-lo)
		for i := range vals {
			vals[i], costs[i] = keys[lo+i], 10
		}
		return vals, costs, nil
	}
}

// TestFillRun drives GetOrFillRun sequentially: each maximal run of keys
// that are neither resident nor being filled is one fill; resident keys
// are hits that split runs; a failed or malformed run caches nothing.
func TestFillRun(t *testing.T) {
	keys := []int{0, 1, 2, 3}
	cases := []struct {
		name     string
		resident []int
		want     [][2]int
		stats    Stats
	}{
		{"cold", nil, [][2]int{{0, 4}}, Stats{Misses: 4, Fills: 4, Entries: 4, Bytes: 40, Budget: 1000}},
		{"middle resident", []int{1}, [][2]int{{0, 1}, {2, 4}}, Stats{Hits: 1, Misses: 4, Fills: 4, Entries: 4, Bytes: 40, Budget: 1000}},
		{"ends resident", []int{0, 3}, [][2]int{{1, 3}}, Stats{Hits: 2, Misses: 4, Fills: 4, Entries: 4, Bytes: 40, Budget: 1000}},
		{"all resident", keys, nil, Stats{Hits: 4, Misses: 4, Fills: 4, Entries: 4, Bytes: 40, Budget: 1000}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache := New[int, int](1000, 1, nil)
			var calls atomic.Int64
			for _, k := range c.resident {
				if _, err := cache.GetOrFill(k, constFill(k, 10, &calls)); err != nil {
					t.Fatal(err)
				}
			}
			var runs [][2]int
			vals, err := cache.GetOrFillRun(keys, runFill(keys, &runs))
			if err != nil || !slices.Equal(vals, keys) {
				t.Fatalf("GetOrFillRun = %v, %v; want %v", vals, err, keys)
			}
			if !slices.Equal(runs, c.want) {
				t.Fatalf("filled runs %v, want %v", runs, c.want)
			}
			for _, k := range keys {
				if !cache.Has(k) {
					t.Fatalf("key %d not resident after its run", k)
				}
			}
			if st := cache.Stats(); st != c.stats {
				t.Fatalf("stats %+v, want %+v", st, c.stats)
			}
		})
	}

	t.Run("failed run", func(t *testing.T) {
		cache := New[int, int](1000, 1, nil)
		for _, fill := range []func(lo, hi int) ([]int, []int64, error){
			func(lo, hi int) ([]int, []int64, error) { return nil, nil, errBoom },
			func(lo, hi int) ([]int, []int64, error) { return make([]int, hi-lo-1), make([]int64, hi-lo), nil },
		} {
			if _, err := cache.GetOrFillRun(keys, fill); err == nil {
				t.Fatal("a failed run returned no error")
			}
			if st := cache.Stats(); st.Entries != 0 {
				t.Fatalf("a failed run cached %d entries", st.Entries)
			}
		}
		var runs [][2]int
		if _, err := cache.GetOrFillRun(keys, runFill(keys, &runs)); err != nil || len(runs) != 1 {
			t.Fatalf("after failed runs: %v, runs %v; want one fresh run", err, runs)
		}
	})
}

// TestFillRunSharedFlight parks one run fill over keys 0–3 and asks for
// each key alone, and for keys 2–5 as a run, while it is out. Every key of
// the run is one shared flight: nobody fills it again, a success reaches
// every waiter and caches the run, and a failure or a panic reaches every
// waiter of every key and caches none of them.
func TestFillRunSharedFlight(t *testing.T) {
	outcomes := []struct {
		name    string
		err     error // the run's error
		panicv  any
		wantErr error
	}{
		{"success", nil, nil, nil},
		{"failure", errBoom, nil, errBoom},
		{"panic", nil, "kaboom", ErrFillPanicked},
	}
	for _, o := range outcomes {
		t.Run(o.name, func(t *testing.T) {
			c := New[int, int](1000, 1, nil)
			release, started, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				defer func() { recover() }()
				c.GetOrFillRun([]int{0, 1, 2, 3}, func(lo, hi int) ([]int, []int64, error) {
					close(started)
					<-release
					if o.panicv != nil {
						panic(o.panicv)
					}
					return []int{0, 1, 2, 3}, []int64{10, 10, 10, 10}, o.err
				})
			}()
			<-started
			var waits []func() ([]int, []error)
			for k := 0; k < 4; k++ {
				waits = append(waits, follow(t, c, k, 2))
			}
			var ran [][2]int
			runVals, runErr := make(chan []int, 1), make(chan error, 1)
			go func() {
				vals, err := c.GetOrFillRun([]int{2, 3, 4, 5}, func(lo, hi int) ([]int, []int64, error) {
					ran = append(ran, [2]int{lo, hi})
					return []int{4, 5}[lo-2 : hi-2], []int64{10, 10}[lo-2 : hi-2], nil
				})
				runVals <- vals
				runErr <- err
			}()
			deadline := time.Now().Add(10 * time.Second)
			for c.Stats().Misses < 4+8+1 {
				if time.Now().After(deadline) {
					t.Fatal("the overlapping run never reached the flight of key 2")
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			<-done
			for k, wait := range waits {
				vals, errs := wait()
				for i := range vals {
					if errs[i] != o.wantErr || (o.wantErr == nil && vals[i] != k) {
						t.Fatalf("waiter %d of key %d got (%d, %v), want (%d, %v)", i, k, vals[i], errs[i], k, o.wantErr)
					}
				}
			}
			vals, err := <-runVals, <-runErr
			switch {
			case !errors.Is(err, o.wantErr):
				t.Fatalf("overlapping run err = %v, want %v", err, o.wantErr)
			case o.wantErr == nil && (!slices.Equal(vals, []int{2, 3, 4, 5}) || !slices.Equal(ran, [][2]int{{2, 4}})):
				t.Fatalf("overlapping run = %v after filling %v; want [2 3 4 5] after filling only [2 4]", vals, ran)
			case o.wantErr != nil && len(ran) != 0:
				t.Fatalf("overlapping run filled %v after the run it waited on failed", ran)
			}
			want := int64(6)
			if o.wantErr != nil {
				want = 0
			}
			if st := c.Stats(); st.Entries != want || st.Fills > st.Misses {
				t.Fatalf("stats %+v, want %d entries and fills <= misses", st, want)
			}
		})
	}
}

// TestFillRunConcurrentOverlap reads overlapping spans of 64 keys from
// eight goroutines: every key is filled exactly once, and each reader gets
// its keys' values in order.
func TestFillRunConcurrentOverlap(t *testing.T) {
	c := New[int, int](1<<20, 1, nil)
	const keys, workers = 64, 8
	var fills [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := w; lo < keys; lo += 5 {
				span := make([]int, 0, 16)
				for k := lo; k < min(lo+16, keys); k++ {
					span = append(span, k)
				}
				vals, err := c.GetOrFillRun(span, func(a, b int) ([]int, []int64, error) {
					costs := make([]int64, b-a)
					for _, k := range span[a:b] {
						fills[k].Add(1)
					}
					for i := range costs {
						costs[i] = 8
					}
					return slices.Clone(span[a:b]), costs, nil
				})
				if err != nil || !slices.Equal(vals, span) {
					t.Errorf("span from %d = %v, %v", lo, vals, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := range fills {
		if n := fills[k].Load(); n != 1 {
			t.Fatalf("key %d filled %d times, want once", k, n)
		}
	}
	if st := c.Stats(); st.Fills != keys || st.Fills > st.Misses || st.Entries != keys {
		t.Fatalf("stats %+v, want %d fills and entries, fills <= misses", st, keys)
	}
}

// TestGet: Get answers from a resident entry only, counting it a hit and
// making it the most recent entry; an absent key and a key being filled
// count nothing and return at once, so the caller's GetOrFill counts the
// miss once.
func TestGet(t *testing.T) {
	c := New[int, int](20, 1, nil)
	var calls atomic.Int64
	if v, ok := c.Get(1); ok || v != 0 {
		t.Fatalf("Get(1) on an empty cache = %d, %v", v, ok)
	}
	for _, k := range []int{1, 2} {
		if _, err := c.GetOrFill(k, constFill(10*k, 10, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %d, %v; want 10, true", v, ok)
	}
	if st := c.Stats(); st.Hits != before.Hits+1 || st.Misses != before.Misses {
		t.Fatalf("stats after a resident Get: %+v, before %+v", st, before)
	}
	// Key 1 is now the most recent, so key 3 evicts key 2.
	if _, err := c.GetOrFill(3, constFill(30, 10, &calls)); err != nil {
		t.Fatal(err)
	}
	if !c.Has(1) || c.Has(2) {
		t.Fatalf("after Get(1) and a fill of 3: resident 1 %v, 2 %v; want true, false", c.Has(1), c.Has(2))
	}
	s := stall(c, 4, 40, 10, nil)
	before = c.Stats()
	if _, ok := c.Get(4); ok {
		t.Fatal("Get answered a key whose fill is in flight")
	}
	if st := c.Stats(); st != before {
		t.Fatalf("Get of a key in flight counted: %+v, before %+v", st, before)
	}
	close(s.release)
	<-s.done
	if v, ok := c.Get(4); !ok || v != 40 {
		t.Fatalf("Get(4) after its fill landed = %d, %v", v, ok)
	}
}
