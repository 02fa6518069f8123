package server

import (
	"testing"

	"repro/internal/amr"
	"repro/internal/grid"
)

// The LRU itself — budget, recency, oversized entries, fill errors,
// collapse, purges — is tested where it lives, in internal/lru; PurgeMember
// is driven end to end by the repair suite. What is left here is what the
// block cache adds: its key, its hash and its pricing.

// fakeBlocks makes a distinguishable batch of n blocks of edge dim.
func fakeBlocks(tag amr.Value, n, dim int) blocks {
	v := make(blocks, n)
	for i := range v {
		v[i] = grid.NewCube[amr.Value](dim)
		v[i].Fill(tag)
	}
	return v
}

// TestCacheKeyFields: keys that differ in any one field are distinct
// entries, whichever shards they hash to; the same key hits; a fill that
// ran is a decode in CacheStats; PurgeMember drops one member's keys only.
func TestCacheKeyFields(t *testing.T) {
	c := NewCache(1 << 20)
	base := Key{Archive: "a", Member: 1, Level: 2, Batch: 3}
	keys := []Key{
		base,
		{Archive: "b", Member: 1, Level: 2, Batch: 3},
		{Archive: "a", Member: 2, Level: 2, Batch: 3},
		{Archive: "a", Member: 1, Level: 3, Batch: 3},
		{Archive: "a", Member: 1, Level: 2, Batch: 4},
		{Archive: "a", Member: 3, Level: 2, Batch: 1}, // the fields of base, permuted
	}
	get := func(k Key, tag amr.Value) amr.Value {
		t.Helper()
		v, err := c.GetOrFill(k, func() (blocks, int64, error) {
			b := fakeBlocks(tag, 1, 2)
			return b, batchCost(b), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v[0].Data[0]
	}
	for round := 0; round < 2; round++ {
		for i, k := range keys {
			// The second round offers another tag; a hit returns the first.
			if got := get(k, amr.Value(i+100*round)); got != amr.Value(i) {
				t.Fatalf("round %d: key %v returned the batch tagged %g, want %d", round, k, got, i)
			}
		}
	}
	n := int64(len(keys))
	want := CacheStats{Hits: n, Misses: n, Entries: n, Bytes: n * batchCost(fakeBlocks(0, 1, 2)), Budget: 1 << 20, Decodes: n}
	if st := c.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}

	c.PurgeMember("a", 1)
	for i, k := range keys {
		wantTag := amr.Value(i)
		if k.Archive == "a" && k.Member == 1 {
			wantTag += 200 // purged: this lookup decodes again
		}
		if got := get(k, amr.Value(i+200)); got != wantTag {
			t.Fatalf("after PurgeMember(a, 1): key %v returned the batch tagged %g, want %g", k, got, wantTag)
		}
	}
}

// TestBatchCost: a batch is priced at its decoded cells plus a fixed
// header per block, and an empty one at nothing.
func TestBatchCost(t *testing.T) {
	for _, c := range []struct {
		n, dim int
		want   int64
	}{
		{0, 0, 0},
		{1, 2, 8*amr.ValueBytes + 64},
		{5, 8, 5 * (512*amr.ValueBytes + 64)},
	} {
		if got := batchCost(fakeBlocks(1, c.n, c.dim)); got != c.want {
			t.Errorf("batchCost(%d blocks of %d³) = %d, want %d", c.n, c.dim, got, c.want)
		}
	}
}
