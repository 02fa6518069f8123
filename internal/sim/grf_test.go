package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/grid"
)

// fieldHash is the SHA-256 of g's values as little-endian float64 bits.
func fieldHash(g *grid.Grid3[float64]) string {
	buf := make([]byte, 8*len(g.Data))
	for i, v := range g.Data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestGRFMatchesParent pins GaussianRandomField at the bench corpus's
// scale: the 128³ fields of the six seeds the scale-4 Run1 and Run2_T3
// snapshots draw (driver, independent density component and temperature
// of each) must hash to what testdata/parent_grf.txt says, written by the
// per-line FFT and per-cell spectrum before either was reworked. Never
// rewrite the file with the current generator.
func TestGRFMatchesParent(t *testing.T) {
	text, err := os.ReadFile("testdata/parent_grf.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(text)), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d fixture lines, want 6", len(lines))
	}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("fixture line %q: want seed, sha256", line)
		}
		seed, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := f[1]
		t.Run(f[0], func(t *testing.T) {
			t.Parallel()
			if got := fieldHash(GaussianRandomField(128, seed)); got != want {
				t.Errorf("GaussianRandomField(128, %d): sha256 %s, the parent generated %s", seed, got, want)
			}
		})
	}
}

// TestSharedFieldsConcurrent generates every scale-16 catalog dataset ×
// field at once, from an emptied cache, so goroutines race to fill and
// read the same fields: every result must still hash to the
// parent-written fixture, and each (n, seed) must have been filled once.
func TestSharedFieldsConcurrent(t *testing.T) {
	text, err := os.ReadFile("testdata/parent_generate.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			want[f[0]] = f[1]
		}
	}
	specs, err := Catalog(16)
	if err != nil {
		t.Fatal(err)
	}
	shared.lru.Purge()
	before := shared.lru.Stats()
	keys := map[fieldKey]bool{}
	var wg sync.WaitGroup
	var mu sync.Mutex
	got := map[string]string{}
	for _, spec := range specs {
		keys[fieldKey{spec.FinestN, spec.Seed + 101}] = true
		for _, f := range Fields() {
			keys[fieldKey{spec.FinestN, spec.Seed + fieldSeedOffset(f)}] = true
			wg.Add(1)
			go func(spec Spec, f Field) {
				defer wg.Done()
				ds, err := Generate(spec, f)
				if err != nil {
					t.Error(err)
					return
				}
				h := sha256.New()
				if err := ds.Write(h); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				got[spec.Name+"/"+string(f)] = hex.EncodeToString(h.Sum(nil))
				mu.Unlock()
			}(spec, f)
		}
	}
	wg.Wait()
	if len(got) != len(want) {
		t.Fatalf("%d datasets for %d fixtures", len(got), len(want))
	}
	for name, sum := range got {
		if sum != want[name] {
			t.Errorf("%s: sha256 %s, the parent generated %s", name, sum, want[name])
		}
	}
	st := shared.lru.Stats()
	if fills := st.Fills - before.Fills; fills != int64(len(keys)) {
		t.Errorf("%d fills for %d distinct fields", fills, len(keys))
	}
	if st.Bytes > sharedBudget || st.Budget != sharedBudget {
		t.Errorf("cache holds %d B under a budget of %d B, want ≤ %d", st.Bytes, st.Budget, sharedBudget)
	}
}

// TestGaussianRandomFieldIsCallersOwn scribbles over the grid
// GaussianRandomField returns for a field the cache already holds: a later
// Generate must not see it.
func TestGaussianRandomFieldIsCallersOwn(t *testing.T) {
	spec := Spec{
		Name: "own", FinestN: 16, Levels: 2, UnitBlock: 4, Seed: 31,
		LeafFractions: []float64{0.4, 0.6},
	}
	hash := func() string {
		ds, err := Generate(spec, BaryonDensity)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := ds.Write(h); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	first := hash()
	for _, seed := range []int64{spec.Seed, spec.Seed + 101} {
		g := GaussianRandomField(spec.FinestN, seed)
		for i := range g.Data {
			g.Data[i] = float64(i)
		}
	}
	if again := hash(); again != first {
		t.Fatalf("Generate changed after a caller wrote to its own field: %s, then %s", first, again)
	}
}

// TestFieldCacheBudget checks that a field over the budget is computed but
// never retained, and that what is retained never passes the budget.
func TestFieldCacheBudget(t *testing.T) {
	const budget = 8 * 16 * 16 * 16 // one 16³ field
	fc := newFieldCache(budget)
	big, err := fc.get(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fieldHash(big) != fieldHash(GaussianRandomField(32, 1)) {
		t.Fatal("an uncached field differs from GaussianRandomField")
	}
	if st := fc.lru.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Fills != 0 {
		t.Fatalf("after an oversized field: %d entries, %d B, %d fills; want none", st.Entries, st.Bytes, st.Fills)
	}
	for _, seed := range []int64{1, 2, 1, 3} {
		if _, err := fc.get(16, seed); err != nil {
			t.Fatal(err)
		}
		if st := fc.lru.Stats(); st.Entries != 1 || st.Bytes != budget {
			t.Fatalf("seed %d: %d entries, %d B; want one field of %d B", seed, st.Entries, st.Bytes, budget)
		}
	}
	if st := shared.lru.Stats(); st.Budget != 64<<20 {
		t.Fatalf("shared cache budget %d B, want 64 MiB", st.Budget)
	}
}
