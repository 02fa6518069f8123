package grid

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDimsIndexCoordsInverse(t *testing.T) {
	d := Dims{X: 5, Y: 7, Z: 3}
	for i := 0; i < d.Count(); i++ {
		x, y, z := d.Coords(i)
		if !d.Contains(x, y, z) {
			t.Fatalf("Coords(%d) = (%d,%d,%d) outside grid", i, x, y, z)
		}
		if j := d.Index(x, y, z); j != i {
			t.Fatalf("Index(Coords(%d)) = %d", i, j)
		}
	}
}

func TestDimsHelpers(t *testing.T) {
	d := Dims{X: 8, Y: 8, Z: 8}
	if !d.IsCube() {
		t.Fatal("8x8x8 should be a cube")
	}
	if (Dims{X: 8, Y: 8, Z: 4}).IsCube() {
		t.Fatal("8x8x4 is not a cube")
	}
	if got := d.Scale(2); got != (Dims{16, 16, 16}) {
		t.Fatalf("Scale: %v", got)
	}
	if got := (Dims{X: 9, Y: 8, Z: 7}).Div(4); got != (Dims{3, 2, 2}) {
		t.Fatalf("Div rounds up: %v", got)
	}
	if d.String() != "8x8x8" {
		t.Fatalf("String: %q", d.String())
	}
}

func TestExtractSetRegionRoundTrip(t *testing.T) {
	d := Dims{X: 10, Y: 12, Z: 8}
	g := New[float64](d)
	rng := rand.New(rand.NewSource(1))
	for i := range g.Data {
		g.Data[i] = rng.Float64()
	}
	r := Region{X0: 2, Y0: 3, Z0: 1, X1: 9, Y1: 11, Z1: 6}
	sub := g.Extract(r)
	if sub.Dim != r.Dims() {
		t.Fatalf("extracted dims %v, want %v", sub.Dim, r.Dims())
	}
	for x := r.X0; x < r.X1; x++ {
		for y := r.Y0; y < r.Y1; y++ {
			for z := r.Z0; z < r.Z1; z++ {
				if sub.At(x-r.X0, y-r.Y0, z-r.Z0) != g.At(x, y, z) {
					t.Fatalf("extract mismatch at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
	out := New[float64](d)
	out.SetRegion(r, sub.Data)
	for x := r.X0; x < r.X1; x++ {
		for y := r.Y0; y < r.Y1; y++ {
			for z := r.Z0; z < r.Z1; z++ {
				if out.At(x, y, z) != g.At(x, y, z) {
					t.Fatalf("set mismatch at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

func TestFillRegion(t *testing.T) {
	g := New[float32](Dims{X: 4, Y: 4, Z: 4})
	g.FillRegion(Region{X0: 1, Y0: 1, Z0: 1, X1: 3, Y1: 3, Z1: 3}, 7)
	if g.At(0, 0, 0) != 0 || g.At(1, 1, 1) != 7 || g.At(2, 2, 2) != 7 || g.At(3, 3, 3) != 0 {
		t.Fatal("FillRegion wrote wrong cells")
	}
}

func TestRegionHelpers(t *testing.T) {
	r := Region{X0: -2, Y0: 0, Z0: 3, X1: 100, Y1: 4, Z1: 5}
	c := r.Intersect(Dims{X: 8, Y: 8, Z: 8})
	if c.X0 != 0 || c.X1 != 8 || c.Y1 != 4 || c.Z0 != 3 {
		t.Fatalf("Intersect: %+v", c)
	}
	if (Region{X0: 3, X1: 3, Y1: 1, Z1: 1}).Empty() != true {
		t.Fatal("degenerate region should be empty")
	}
	if RegionOf(Dims{X: 2, Y: 3, Z: 4}).Count() != 24 {
		t.Fatal("RegionOf count")
	}
}

func TestUpsampleDownsampleInverse(t *testing.T) {
	g := New[float64](Dims{X: 4, Y: 4, Z: 4})
	rng := rand.New(rand.NewSource(2))
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	// Downsample of g injected into 2×2×2 blocks is g exactly (the mean
	// of eight copies).
	up := New[float64](g.Dim.Scale(2))
	for i := range up.Data {
		x, y, z := up.Dim.Coords(i)
		up.Data[i] = g.At(x/2, y/2, z/2)
	}
	down := up.Downsample(2)
	if MaxAbsDiff(g, down) > 1e-12 {
		t.Fatalf("down(up(g)) != g: %v", MaxAbsDiff(g, down))
	}
}

func TestDownsampleAverages(t *testing.T) {
	g := New[float64](Dims{X: 2, Y: 2, Z: 2})
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	d := g.Downsample(2)
	if d.Dim.Count() != 1 || d.Data[0] != 3.5 {
		t.Fatalf("mean of 0..7 should be 3.5, got %v", d.Data[0])
	}
}

func TestMinMaxMean(t *testing.T) {
	g := New[float32](Dims{X: 2, Y: 2, Z: 1})
	copy(g.Data, []float32{3, -1, 7, 5})
	lo, hi := g.MinMax()
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
	if g.Mean() != 3.5 {
		t.Fatalf("Mean = %v", g.Mean())
	}
}

func TestMaskBasics(t *testing.T) {
	m := NewMask(Dims{X: 4, Y: 4, Z: 4})
	if m.Count() != 0 || m.Density() != 0 {
		t.Fatal("new mask should be empty")
	}
	m.Set(1, 2, 3, true)
	if !m.At(1, 2, 3) || m.Count() != 1 {
		t.Fatal("Set/At broken")
	}
	m.Fill(true)
	if m.Density() != 1 {
		t.Fatal("Fill(true) should give density 1")
	}
	m.FillRegion(Region{X0: 0, Y0: 0, Z0: 0, X1: 2, Y1: 4, Z1: 4}, false)
	if m.Count() != 32 {
		t.Fatalf("FillRegion(false): count %d, want 32", m.Count())
	}
	if m.CountRegion(Region{X0: 0, Y0: 0, Z0: 0, X1: 4, Y1: 4, Z1: 4}) != 32 {
		t.Fatal("CountRegion mismatch")
	}
}

func TestSumTableMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Dims{X: rng.Intn(7) + 1, Y: rng.Intn(7) + 1, Z: rng.Intn(7) + 1}
		m := NewMask(d)
		for i := 0; i < m.Len(); i++ {
			m.SetIndex(i, rng.Intn(2) == 0)
		}
		st := NewSumTable(m)
		for trial := 0; trial < 20; trial++ {
			x0, x1 := rng.Intn(d.X+1), rng.Intn(d.X+1)
			y0, y1 := rng.Intn(d.Y+1), rng.Intn(d.Y+1)
			z0, z1 := rng.Intn(d.Z+1), rng.Intn(d.Z+1)
			if x0 > x1 {
				x0, x1 = x1, x0
			}
			if y0 > y1 {
				y0, y1 = y1, y0
			}
			if z0 > z1 {
				z0, z1 = z1, z0
			}
			r := Region{X0: x0, Y0: y0, Z0: z0, X1: x1, Y1: y1, Z1: z1}
			if st.Count(r) != int64(m.CountRegion(r)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSumTableFullEmpty(t *testing.T) {
	m := NewMask(Dims{X: 4, Y: 4, Z: 4})
	m.FillRegion(Region{X1: 2, Y1: 4, Z1: 4}, true)
	st := NewSumTable(m)
	if full := (Region{X1: 2, Y1: 4, Z1: 4}); st.Count(full) != int64(full.Count()) {
		t.Fatal("filled half should count every cell")
	}
	if part := (Region{X1: 3, Y1: 4, Z1: 4}); st.Count(part) == int64(part.Count()) {
		t.Fatal("partly-filled region counted full")
	}
	if st.Count(Region{X0: 2, X1: 4, Y1: 4, Z1: 4}) != 0 {
		t.Fatal("unfilled half should count zero")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New[float32](Dims{X: 2, Y: 2, Z: 2})
	g.Fill(1)
	c := g.Clone()
	c.Fill(2)
	if g.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
	m := NewMask(Dims{X: 2, Y: 2, Z: 2})
	mc := m.Clone()
	mc.Fill(true)
	if m.Count() != 0 {
		t.Fatal("Mask.Clone shares storage")
	}
}

func TestRegionClip(t *testing.T) {
	a := Region{X0: 1, Y0: 2, Z0: 3, X1: 8, Y1: 9, Z1: 10}
	b := Region{X0: 4, Y0: 0, Z0: 5, X1: 12, Y1: 6, Z1: 7}
	got := a.Clip(b)
	want := Region{X0: 4, Y0: 2, Z0: 5, X1: 8, Y1: 6, Z1: 7}
	if got != want {
		t.Fatalf("Clip = %v, want %v", got, want)
	}
	if got != b.Clip(a) {
		t.Fatal("Clip is not symmetric")
	}
	if !a.Clip(Region{X0: 20, X1: 22, Y1: 1, Z1: 1}).Empty() {
		t.Fatal("disjoint regions should clip to empty")
	}
}

// TestCopyRegionOverlap scatters blocks into an ROI buffer and checks
// every cell against a reference assembled through a full-size grid.
func TestCopyRegionOverlap(t *testing.T) {
	d := Dims{X: 8, Y: 8, Z: 8}
	full := New[float32](d)
	for i := range full.Data {
		full.Data[i] = float32(i)
	}
	roi := Region{X0: 2, Y0: 3, Z0: 1, X1: 7, Y1: 8, Z1: 6}
	// Assemble the ROI from 4x4x4 blocks of the full grid.
	got := make([]float32, roi.Count())
	for bx := 0; bx < 2; bx++ {
		for by := 0; by < 2; by++ {
			for bz := 0; bz < 2; bz++ {
				br := Region{
					X0: bx * 4, Y0: by * 4, Z0: bz * 4,
					X1: bx*4 + 4, Y1: by*4 + 4, Z1: bz*4 + 4,
				}
				block := full.Extract(br)
				CopyRegionOverlap(got, roi, block.Data, br)
			}
		}
	}
	want := make([]float32, roi.Count())
	full.CopyRegionTo(roi, want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: got %g, want %g", i, got[i], want[i])
		}
	}
	// A source entirely outside the ROI must leave dst untouched.
	before := append([]float32(nil), got...)
	outside := New[float32](Dims{X: 1, Y: 1, Z: 1})
	outside.Data[0] = 999
	CopyRegionOverlap(got, roi, outside.Data, Region{X0: 7, Y0: 0, Z0: 0, X1: 8, Y1: 1, Z1: 1})
	for i := range got {
		if got[i] != before[i] {
			t.Fatalf("disjoint copy mutated cell %d", i)
		}
	}
}

// TestBlocksCoversRegion holds Blocks to its definition: the window holds
// exactly the n-cell blocks whose BlockRegion meets r.
func TestBlocksCoversRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		var r Region
		r.X0, r.Y0, r.Z0 = rng.Intn(20), rng.Intn(20), rng.Intn(20)
		r.X1, r.Y1, r.Z1 = r.X0+1+rng.Intn(12), r.Y0+1+rng.Intn(12), r.Z0+1+rng.Intn(12)
		w := r.Blocks(n)
		for bx := 0; bx < 40/n+1; bx++ {
			for by := 0; by < 40/n+1; by++ {
				for bz := 0; bz < 40/n+1; bz++ {
					in := bx >= w.X0 && bx < w.X1 && by >= w.Y0 && by < w.Y1 && bz >= w.Z0 && bz < w.Z1
					if meets := !BlockRegion(bx, by, bz, n).Clip(r).Empty(); in != meets {
						t.Fatalf("%v.Blocks(%d) = %v: block (%d,%d,%d) in window %v, meets region %v", r, n, w, bx, by, bz, in, meets)
					}
				}
			}
		}
	}
}

// TestCheckedCount pins the overflow guard on header-supplied geometry,
// at the sz header's 2^40 cap (2^30 where an int has 32 bits).
func TestCheckedCount(t *testing.T) {
	const limit = 1 << min(40, bits.UintSize-2)
	cases := []struct {
		d  Dims
		n  int
		ok bool
	}{
		{Dims{X: 4, Y: 5, Z: 6}, 120, true},
		{Dims{X: 1 << 20, Y: 1, Z: 1}, 1 << 20, true},
		{Dims{X: 1 << 21, Y: 1, Z: 1}, 1 << 21, true}, // block counts beyond the old 2^20 cap stay decodable
		{Dims{X: limit, Y: 1, Z: 1}, limit, true},
		{Dims{X: limit, Y: 2, Z: 1}, 0, false},
		{Dims{X: limit, Y: limit, Z: limit}, 0, false}, // would overflow naive multiplication
		{Dims{X: -1, Y: 1, Z: 1}, 0, false},
	}
	for _, c := range cases {
		n, ok := c.d.CheckedCount(limit)
		if ok != c.ok || (ok && n != c.n) {
			t.Fatalf("CheckedCount(%v, %d) = (%d,%v), want (%d,%v)", c.d, limit, n, ok, c.n, c.ok)
		}
	}
}
