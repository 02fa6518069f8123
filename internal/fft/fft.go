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

// plan caches twiddle factors and the bit-reversal permutation for a
// given transform size.
type plan struct {
	n     int
	w     []complex128 // w[k] = exp(-2πik/n), k < n/2
	winv  []complex128 // conjugates, for the inverse transform
	swaps [][2]int     // index pairs i < j with j the bit reversal of i
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
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); i < j {
			p.swaps = append(p.swaps, [2]int{i, j})
		}
	}
	return p
}

// transform runs an in-place iterative Cooley–Tukey FFT on x.
func (p *plan) transform(x []complex128, inverse bool) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: input length %d != plan size %d", len(x), n))
	}
	for _, s := range p.swaps {
		x[s[0]], x[s[1]] = x[s[1]], x[s[0]]
	}
	tw := p.w
	if inverse {
		tw = p.winv
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			a, b := x[start:start+half], x[start+half:start+size]
			for i := range a {
				u := a[i]
				v := b[i] * tw[i*step]
				a[i] = u + v
				b[i] = u - v
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

// band is how many columns the x pass transforms together: n rows of 256
// complex values stay in cache through all of its stages.
const band = 256

func transform3(g *Grid3C, inverse bool) {
	n := g.N
	p := newPlan(n)
	// Along z: contiguous lines.
	for base := 0; base < len(g.Data); base += n {
		p.transform(g.Data[base:base+n], inverse)
	}
	// Along y: each x-plane is n rows of n z-values, its y-lines the
	// columns.
	plane := n * n
	for base := 0; base < len(g.Data); base += plane {
		p.columns(g.Data[base:base+plane], n, 0, n, inverse)
	}
	// Along x: the cube is n rows of n² values, its x-lines the columns.
	for c0 := 0; c0 < plane; c0 += band {
		p.columns(g.Data, plane, c0, min(band, plane-c0), inverse)
	}
}

// columns transforms, in place, the width columns from c0 of the n rows
// that start stride apart in x. Each butterfly runs across a whole row
// pair, and every column sees exactly the operations transform applies to
// a line, so the result is the per-line one bit for bit.
func (p *plan) columns(x []complex128, stride, c0, width int, inverse bool) {
	n := p.n
	row := func(i int) []complex128 {
		o := i*stride + c0
		return x[o : o+width]
	}
	for _, s := range p.swaps {
		a, b := row(s[0]), row(s[1])
		for c := range a {
			a[c], b[c] = b[c], a[c]
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
				t := tw[k]
				a, b := row(i), row(i+half)
				b = b[:len(a)]
				for c := range a {
					u := a[c]
					v := b[c] * t
					a[c] = u + v
					b[c] = u - v
				}
				k += step
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := 0; i < n; i++ {
			r := row(i)
			for c := range r {
				r[c] *= inv
			}
		}
	}
}

// FreqIndex maps a DFT bin index to its signed frequency in (-n/2, n/2]:
// the Nyquist bin i = n/2 maps to +n/2.
func FreqIndex(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}
