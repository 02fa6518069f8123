package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Forward computes the in-place forward DFT of x (len must be a power of 2).
func Forward(x []complex128) { newPlan(len(x)).transform(x, false) }

// Inverse computes the in-place inverse DFT of x, normalized by 1/n.
func Inverse(x []complex128) { newPlan(len(x)).transform(x, true) }

// Set stores v at (x,y,z).
func (g *Grid3C) Set(x, y, z int, v complex128) { g.Data[(x*g.N+y)*g.N+z] = v }

func TestForwardInverse1D(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 64, 1024} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		Forward(x)
		Inverse(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: index %d: got %v, want %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestKnownDFT(t *testing.T) {
	// DFT of [1,0,0,0] is [1,1,1,1].
	x := []complex128{1, 0, 0, 0}
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
	// DFT of a pure tone lands in one bin.
	n := 16
	y := make([]complex128, n)
	for i := range y {
		angle := 2 * math.Pi * 3 * float64(i) / float64(n)
		y[i] = cmplx.Exp(complex(0, angle))
	}
	Forward(y)
	for i, v := range y {
		want := 0.0
		if i == 3 {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("tone bin %d = %v, want magnitude %v", i, cmplx.Abs(v), want)
		}
	}
}

func TestParseval1D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 256
	x := make([]complex128, n)
	var timeE float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeE += real(x[i]) * real(x[i])
	}
	Forward(x)
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqE/float64(n)-timeE) > 1e-6*timeE {
		t.Fatalf("Parseval violated: time %v vs freq/n %v", timeE, freqE/float64(n))
	}
}

func TestForwardInverse3D(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := NewGrid3C(8)
	orig := make([]complex128, len(g.Data))
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
		orig[i] = g.Data[i]
	}
	Forward3(g)
	Inverse3(g)
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-orig[i]) > 1e-9 {
			t.Fatalf("index %d: got %v, want %v", i, g.Data[i], orig[i])
		}
	}
}

func TestForward3Separability(t *testing.T) {
	// A delta at the origin transforms to all-ones.
	g := NewGrid3C(4)
	g.Set(0, 0, 0, 1)
	Forward3(g)
	for i, v := range g.Data {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("index %d = %v, want 1", i, v)
		}
	}
}

func TestFreqIndex(t *testing.T) {
	cases := []struct{ i, n, want int }{
		{0, 8, 0}, {1, 8, 1}, {4, 8, 4}, {5, 8, -3}, {7, 8, -1},
	}
	for _, c := range cases {
		if got := FreqIndex(c.i, c.n); got != c.want {
			t.Fatalf("FreqIndex(%d,%d) = %d, want %d", c.i, c.n, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Fatalf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12, 1000} {
		if IsPow2(n) {
			t.Fatalf("IsPow2(%d) = true", n)
		}
	}
}

func TestNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Forward on non-pow2 length should panic")
		}
	}()
	Forward(make([]complex128, 3))
}

// lineTransform3 is the 3D transform as it was before the y and x passes
// ran on whole rows: every line along every axis gathered into a scratch
// buffer and transformed on its own. It is the oracle Forward3 and
// Inverse3 are held to, bit for bit.
func lineTransform3(g *Grid3C, inverse bool) {
	n := g.N
	p := newPlan(n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			base := (x*n + y) * n
			p.transform(g.Data[base:base+n], inverse)
		}
	}
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

// TestTransform3MatchesLineOracle holds Forward3 and Inverse3 to the
// per-line transform by the bits of every real and imaginary part, on
// seeded input with +0 and −0 parts mixed in, for every size up to 128.
func TestTransform3MatchesLineOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for n := 1; n <= 128; n *= 2 {
		rng := rand.New(rand.NewSource(int64(n)))
		in := make([]complex128, n*n*n)
		for i := range in {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			switch rng.Intn(8) {
			case 0:
				re = 0
			case 1:
				im = negZero
			case 2:
				re, im = negZero, negZero
			case 3:
				re, im = 0, negZero
			}
			in[i] = complex(re, im)
		}
		for _, inverse := range []bool{false, true} {
			got := &Grid3C{N: n, Data: append([]complex128(nil), in...)}
			want := &Grid3C{N: n, Data: append([]complex128(nil), in...)}
			if inverse {
				Inverse3(got)
			} else {
				Forward3(got)
			}
			lineTransform3(want, inverse)
			for i := range want.Data {
				g, w := got.Data[i], want.Data[i]
				if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
					t.Fatalf("n=%d inverse=%v: index %d is %v, the per-line transform gives %v", n, inverse, i, g, w)
				}
			}
		}
	}
}
