// Package sim synthesizes Nyx-like cosmology AMR snapshots. It substitutes
// for the proprietary LANL Nyx runs the paper evaluates on (Table 1): a
// Gaussian random field with a power-law spectrum is transformed into a
// heavy-tailed log-normal density field, and a value-threshold refinement
// criterion (refine a block when its maximum exceeds a threshold, as in the
// paper's Sec. 2.2) carves it into tree-structured AMR levels whose
// per-level densities match the paper's datasets.
package sim

import (
	"math"
	"math/rand"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/lru"
)

// The spectrum every generated field shares: P(k) ∝ k^spectralIndex ·
// exp(−(k/cutoff)²) with cutoff = N/cutoffDiv. Cosmological matter at these
// scales has a falling spectrum; the damping scale keeps features several
// cells wide.
const (
	spectralIndex = -3.2
	cutoffDiv     = 12
)

// GaussianRandomField returns a zero-mean, unit-variance real n³ field (n a
// power of two) with the generator's spectrum, deterministic in seed: white
// noise is generated in real space, transformed, shaped by √P(k), and
// transformed back. Filtering white noise guarantees the result is real
// without Hermitian bookkeeping. Every call computes the field afresh and
// returns a grid the caller owns; Generate's shared fields are separate.
func GaussianRandomField(n int, seed int64) *grid.Grid3[float64] {
	if !fft.IsPow2(n) {
		panic("sim: GRF size must be a power of two")
	}
	cutoff := float64(n) / cutoffDiv
	rng := rand.New(rand.NewSource(seed))
	c := fft.NewGrid3C(n)
	for i := range c.Data {
		c.Data[i] = complex(rng.NormFloat64(), 0)
	}
	fft.Forward3(c)
	// The amplitude depends on a bin only through the integer |k|² =
	// fx²+fy²+fz² ≤ 3·(n/2)², so it is evaluated once per value of it.
	f2 := make([]int, n) // squared signed frequency of each bin index
	for i := range f2 {
		f := fft.FreqIndex(i, n)
		f2[i] = f * f
	}
	amps := make([]float64, 3*(n/2)*(n/2)+1)
	for k2 := 1; k2 < len(amps); k2++ {
		k2f := float64(k2)
		amps[k2] = math.Pow(math.Sqrt(k2f), spectralIndex/2) * math.Exp(-k2f/(2*cutoff*cutoff))
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			row := c.Data[(x*n+y)*n:][:n]
			for z := range row {
				k2 := f2[x] + f2[y] + f2[z]
				if k2 == 0 {
					row[z] = 0 // remove the mean mode
					continue
				}
				row[z] *= complex(amps[k2], 0)
			}
		}
	}
	fft.Inverse3(c)
	out := grid.NewCube[float64](n)
	for i, v := range c.Data {
		out.Data[i] = real(v)
	}
	normalize(out)
	return out
}

// normalize rescales the field in place to zero mean and unit variance.
func normalize(g *grid.Grid3[float64]) {
	var sum, sum2 float64
	for _, v := range g.Data {
		sum += v
	}
	mean := sum / float64(len(g.Data))
	for _, v := range g.Data {
		d := v - mean
		sum2 += d * d
	}
	std := math.Sqrt(sum2 / float64(len(g.Data)))
	if std == 0 {
		std = 1
	}
	inv := 1 / std
	for i, v := range g.Data {
		g.Data[i] = (v - mean) * inv
	}
}

// sharedBudget bounds the bytes of fields the shared cache keeps: four
// 128³ fields, which at catalog scale 4 is a Run1 snapshot's driver,
// independent density component and temperature, plus one more field.
const sharedBudget = 64 << 20

// fieldKey names one GRF: its edge and its seed.
type fieldKey struct {
	n    int
	seed int64
}

// fieldCache computes each GRF once per (n, seed) for every Generate that
// needs it: catalog specs that model timesteps of one run share their
// seed, and a spec's fields share its refinement driver.
type fieldCache struct {
	budget int64
	lru    *lru.Cache[fieldKey, *grid.Grid3[float64]]
}

func newFieldCache(budget int64) *fieldCache {
	return &fieldCache{budget: budget, lru: lru.New[fieldKey, *grid.Grid3[float64]](budget, 1, nil)}
}

// shared is the cache Generate draws its fields from.
var shared = newFieldCache(sharedBudget)

// get returns GaussianRandomField(n, seed), shared with every other caller
// of the same key: it must not be modified. A field larger than the whole
// budget is computed for this caller alone, since the cache would admit
// it and evict everything else.
func (fc *fieldCache) get(n int, seed int64) (*grid.Grid3[float64], error) {
	cost := 8 * int64(n) * int64(n) * int64(n)
	if cost > fc.budget {
		return GaussianRandomField(n, seed), nil
	}
	return fc.lru.GetOrFill(fieldKey{n, seed}, func() (*grid.Grid3[float64], int64, error) {
		return GaussianRandomField(n, seed), cost, nil
	})
}
