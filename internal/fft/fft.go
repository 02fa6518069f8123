// Package fft implements radix-2 complex FFTs in one and three dimensions.
// It backs two substrates of the TAC reproduction: the Gaussian-random-field
// generator in internal/sim (synthesizing Nyx-like cosmology fields) and the
// matter power spectrum P(k) in internal/analysis (paper metric 5).
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// plan caches twiddle factors for a given transform size.
type plan struct {
	n    int
	w    []complex128 // w[k] = exp(-2πik/n), k < n/2
	winv []complex128 // conjugates, for the inverse transform
}

func newPlan(n int) *plan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: size %d is not a power of two", n))
	}
	p := &plan{n: n, w: make([]complex128, n/2), winv: make([]complex128, n/2)}
	for k := 0; k < n/2; k++ {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.w[k] = complex(c, s)
		p.winv[k] = complex(c, -s)
	}
	return p
}

// transform runs an in-place iterative Cooley–Tukey FFT on x.
func (p *plan) transform(x []complex128, inverse bool) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: input length %d != plan size %d", len(x), n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.w
	if inverse {
		tw = p.winv
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			k := 0
			for i := start; i < start+half; i++ {
				u := x[i]
				v := x[i+half] * tw[k]
				x[i] = u + v
				x[i+half] = u - v
				k += step
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// Grid3C is a cube of complex values used for 3D transforms, stored with z
// varying fastest, matching grid.Grid3 layout.
type Grid3C struct {
	N    int
	Data []complex128
}

// NewGrid3C allocates a zeroed n×n×n complex cube (n a power of two).
func NewGrid3C(n int) *Grid3C {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: grid size %d is not a power of two", n))
	}
	return &Grid3C{N: n, Data: make([]complex128, n*n*n)}
}

// Forward3 computes the in-place 3D forward DFT of g by transforming along
// z, then y, then x.
func Forward3(g *Grid3C) { transform3(g, false) }

// Inverse3 computes the in-place 3D inverse DFT (normalized by 1/n³).
func Inverse3(g *Grid3C) { transform3(g, true) }

func transform3(g *Grid3C, inverse bool) {
	n := g.N
	p := newPlan(n)
	// Along z: contiguous rows.
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			base := (x*n + y) * n
			p.transform(g.Data[base:base+n], inverse)
		}
	}
	// Along y and x: gather strided lines into a scratch buffer.
	line := make([]complex128, n)
	for x := 0; x < n; x++ {
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				line[y] = g.Data[(x*n+y)*n+z]
			}
			p.transform(line, inverse)
			for y := 0; y < n; y++ {
				g.Data[(x*n+y)*n+z] = line[y]
			}
		}
	}
	for y := 0; y < n; y++ {
		for z := 0; z < n; z++ {
			for x := 0; x < n; x++ {
				line[x] = g.Data[(x*n+y)*n+z]
			}
			p.transform(line, inverse)
			for x := 0; x < n; x++ {
				g.Data[(x*n+y)*n+z] = line[x]
			}
		}
	}
}

// FreqIndex maps a DFT bin index to its signed frequency in [-n/2, n/2).
func FreqIndex(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}
