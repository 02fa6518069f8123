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
// without Hermitian bookkeeping.
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
	for x := 0; x < n; x++ {
		fx := float64(fft.FreqIndex(x, n))
		for y := 0; y < n; y++ {
			fy := float64(fft.FreqIndex(y, n))
			base := (x*n + y) * n
			for z := 0; z < n; z++ {
				fz := float64(fft.FreqIndex(z, n))
				k2 := fx*fx + fy*fy + fz*fz
				if k2 == 0 {
					c.Data[base+z] = 0 // remove the mean mode
					continue
				}
				k := math.Sqrt(k2)
				amp := math.Pow(k, spectralIndex/2) * math.Exp(-k2/(2*cutoff*cutoff))
				c.Data[base+z] *= complex(amp, 0)
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
