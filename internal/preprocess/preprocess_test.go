package preprocess

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/kdtree"
)

// CoveredExactlyOnce verifies that boxes tile precisely the occupied blocks
// of the mask — the invariant every sparse extraction must satisfy.
func CoveredExactlyOnce(mask *grid.Mask, boxes []kdtree.Box) error {
	cover := make([]int, mask.Dim.Count())
	for _, b := range boxes {
		r := b.Region().Intersect(mask.Dim)
		if r.Count() != b.Blocks() {
			return fmt.Errorf("preprocess: box %+v leaves the domain %v", b, mask.Dim)
		}
		for x := r.X0; x < r.X1; x++ {
			for y := r.Y0; y < r.Y1; y++ {
				for z := r.Z0; z < r.Z1; z++ {
					cover[mask.Dim.Index(x, y, z)]++
				}
			}
		}
	}
	for i, c := range cover {
		want := 0
		if mask.AtIndex(i) {
			want = 1
		}
		if c != want {
			x, y, z := mask.Dim.Coords(i)
			return fmt.Errorf("preprocess: block (%d,%d,%d) covered %d times, want %d", x, y, z, c, want)
		}
	}
	return nil
}

func randomMask(d grid.Dims, density float64, seed int64) *grid.Mask {
	rng := rand.New(rand.NewSource(seed))
	m := grid.NewMask(d)
	for i := 0; i < m.Len(); i++ {
		m.SetIndex(i, rng.Float64() < density)
	}
	return m
}

// clusteredMask builds a blobby mask, closer to AMR refinement patterns
// than i.i.d. noise.
func clusteredMask(d grid.Dims, blobs int, r int, seed int64) *grid.Mask {
	rng := rand.New(rand.NewSource(seed))
	m := grid.NewMask(d)
	for b := 0; b < blobs; b++ {
		cx, cy, cz := rng.Intn(d.X), rng.Intn(d.Y), rng.Intn(d.Z)
		reg := grid.Region{
			X0: cx - r, Y0: cy - r, Z0: cz - r,
			X1: cx + r, Y1: cy + r, Z1: cz + r,
		}.Intersect(d)
		m.FillRegion(reg, true)
	}
	return m
}

func TestOpSTCoversExactly(t *testing.T) {
	for _, density := range []float64{0, 0.05, 0.23, 0.5, 0.9, 1} {
		m := randomMask(grid.Dims{X: 12, Y: 10, Z: 14}, density, int64(density*100)+1)
		boxes := OpST(m)
		if err := CoveredExactlyOnce(m, boxes); err != nil {
			t.Fatalf("density %v: %v", density, err)
		}
		for _, b := range boxes {
			if b.DX != b.DY || b.DY != b.DZ {
				t.Fatalf("OpST produced non-cube box %+v", b)
			}
		}
	}
}

func TestOpSTClusteredProducesLargeCubes(t *testing.T) {
	m := clusteredMask(grid.Dims{X: 24, Y: 24, Z: 24}, 4, 7, 3)
	boxes := OpST(m)
	if err := CoveredExactlyOnce(m, boxes); err != nil {
		t.Fatal(err)
	}
	maxSide := 0
	for _, b := range boxes {
		if b.DX > maxSide {
			maxSide = b.DX
		}
	}
	if maxSide < 4 {
		t.Fatalf("clustered mask yielded max cube side %d; expected large cubes", maxSide)
	}
	// OpST must produce far fewer boxes than NaST on clustered data.
	if nast := NaST(m); len(boxes) >= len(nast) {
		t.Fatalf("OpST %d boxes, NaST %d — no consolidation", len(boxes), len(nast))
	}
}

func TestOpSTFullMaskSingleScan(t *testing.T) {
	// A fully occupied cube should be extracted as few large cubes, the
	// largest spanning the full edge.
	m := grid.NewMask(grid.Dims{X: 8, Y: 8, Z: 8})
	m.Fill(true)
	boxes := OpST(m)
	if err := CoveredExactlyOnce(m, boxes); err != nil {
		t.Fatal(err)
	}
	if boxes[0].DX != 8 {
		t.Fatalf("first extracted cube side %d, want 8", boxes[0].DX)
	}
}

func TestNaSTCoversExactly(t *testing.T) {
	m := randomMask(grid.Dims{X: 9, Y: 7, Z: 5}, 0.4, 2)
	boxes := NaST(m)
	if err := CoveredExactlyOnce(m, boxes); err != nil {
		t.Fatal(err)
	}
	if len(boxes) != m.Count() {
		t.Fatalf("NaST %d boxes, mask count %d", len(boxes), m.Count())
	}
}

func TestQuickOpSTCoverage(t *testing.T) {
	f := func(seed int64, density uint8) bool {
		m := randomMask(grid.Dims{X: 8, Y: 8, Z: 8}, float64(density%101)/100, seed)
		return CoveredExactlyOnce(m, OpST(m)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOpSTDeterministic(t *testing.T) {
	m := clusteredMask(grid.Dims{X: 16, Y: 16, Z: 16}, 3, 5, 9)
	a := OpST(m)
	b := OpST(m)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic box count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("box %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	d := grid.Dims{X: 16, Y: 16, Z: 16}
	ub := 4
	m := clusteredMask(d.Div(ub), 3, 2, 4)
	g := grid.New[float32](d)
	rng := rand.New(rand.NewSource(8))
	for i := range g.Data {
		g.Data[i] = float32(rng.NormFloat64())
	}
	ZeroUnmasked(g, m, ub)

	boxes := OpST(m)
	grids := Gather(g, boxes, ub)
	out := grid.New[float32](d)
	if err := Scatter(out, boxes, ub, grids); err != nil {
		t.Fatal(err)
	}
	if mad := grid.MaxAbsDiff(g, out); mad != 0 {
		t.Fatalf("gather/scatter not lossless: max diff %v", mad)
	}
}

func TestScatterRejectsMismatch(t *testing.T) {
	d := grid.Dims{X: 8, Y: 8, Z: 8}
	out := grid.New[float32](d)
	boxes := []kdtree.Box{{X: 0, Y: 0, Z: 0, DX: 1, DY: 1, DZ: 1}}
	bad := []*grid.Grid3[float32]{grid.New[float32](grid.Dims{X: 2, Y: 2, Z: 2})}
	if err := Scatter(out, boxes, 4, bad); err == nil {
		t.Fatal("mismatched grid dims should error")
	}
	if err := Scatter(out, boxes, 4, nil); err == nil {
		t.Fatal("mismatched lengths should error")
	}
}

func TestGroupBoxes(t *testing.T) {
	boxes := []kdtree.Box{
		{DX: 2, DY: 2, DZ: 2},
		{X: 4, DX: 1, DY: 1, DZ: 1},
		{X: 8, DX: 2, DY: 2, DZ: 2},
		{X: 12, DX: 2, DY: 1, DZ: 1},
	}
	groups := GroupBoxes(boxes)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	// Sorted by volume: 1, 2, 8.
	if groups[0].Shape.Count() != 1 || groups[1].Shape.Count() != 2 || groups[2].Shape.Count() != 8 {
		t.Fatalf("group order wrong: %+v", groups)
	}
	if len(groups[2].Boxes) != 2 {
		t.Fatalf("cube group has %d boxes, want 2", len(groups[2].Boxes))
	}
}

func TestGSPFillsNeighborsOfOccupied(t *testing.T) {
	d := grid.Dims{X: 12, Y: 4, Z: 4}
	ub := 4
	m := grid.NewMask(d.Div(ub)) // 3×1×1 blocks
	m.Set(0, 0, 0, true)
	g := grid.New[float32](d)
	g.FillRegion(grid.Region{X0: 0, Y0: 0, Z0: 0, X1: 4, Y1: 4, Z1: 4}, 5)

	GSP(g, m, ub, GSPOptions{})
	// Middle block (empty, neighbor occupied) should be padded with ~5.
	if v := g.At(5, 1, 1); v != 5 {
		t.Fatalf("padded cell = %v, want 5", v)
	}
	// Far block has no occupied neighbor: stays zero.
	if v := g.At(9, 1, 1); v != 0 {
		t.Fatalf("isolated empty block cell = %v, want 0", v)
	}
}

func TestGSPAveragesMultipleNeighbors(t *testing.T) {
	d := grid.Dims{X: 12, Y: 12, Z: 4}
	ub := 4
	m := grid.NewMask(d.Div(ub)) // 3×3×1 blocks
	// Two occupied blocks flanking the center block along x and y.
	m.Set(0, 1, 0, true)
	m.Set(1, 0, 0, true)
	g := grid.New[float32](d)
	g.FillRegion(grid.Region{X0: 0, Y0: 4, Z0: 0, X1: 4, Y1: 8, Z1: 4}, 2)  // value 2
	g.FillRegion(grid.Region{X0: 4, Y0: 0, Z0: 0, X1: 8, Y1: 4, Z1: 4}, 10) // value 10

	GSP(g, m, ub, GSPOptions{})
	// Center block (1,1,0) receives pads from both neighbors over its full
	// depth; every cell gets both contributions → mean of 2 and 10.
	if v := g.At(5, 5, 1); v != 6 {
		t.Fatalf("doubly-padded cell = %v, want 6", v)
	}
}

func TestGSPPartialLayers(t *testing.T) {
	d := grid.Dims{X: 8, Y: 4, Z: 4}
	ub := 4
	m := grid.NewMask(d.Div(ub))
	m.Set(0, 0, 0, true)
	g := grid.New[float32](d)
	g.FillRegion(grid.Region{X1: 4, Y1: 4, Z1: 4}, 3)

	GSP(g, m, ub, GSPOptions{PadLayers: 1})
	if v := g.At(4, 0, 0); v != 3 { // first layer next to the face
		t.Fatalf("pad layer cell = %v, want 3", v)
	}
	if v := g.At(6, 0, 0); v != 0 { // beyond PadLayers
		t.Fatalf("deep cell = %v, want 0", v)
	}
}

// refGSP is the original map-accumulated GSP, kept verbatim as the
// reference for TestGSPDenseScratchEquivalence: the block-local dense
// scratch rewrite must pad bit-identically.
func refGSP[T grid.Float](g *grid.Grid3[T], mask *grid.Mask, unitBlock int, opts GSPOptions) {
	opts = opts.withDefaults(unitBlock)
	md := mask.Dim
	ub := unitBlock
	blockRegion := func(bx, by, bz int) grid.Region {
		return grid.Region{
			X0: bx * ub, Y0: by * ub, Z0: bz * ub,
			X1: (bx + 1) * ub, Y1: (by + 1) * ub, Z1: (bz + 1) * ub,
		}
	}
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for bx := 0; bx < md.X; bx++ {
		for by := 0; by < md.Y; by++ {
			for bz := 0; bz < md.Z; bz++ {
				if mask.At(bx, by, bz) {
					continue
				}
				for _, f := range faces {
					nx, ny, nz := bx+f[0], by+f[1], bz+f[2]
					if !md.Contains(nx, ny, nz) || !mask.At(nx, ny, nz) {
						continue
					}
					eb, nb := blockRegion(bx, by, bz), blockRegion(nx, ny, nz)
					refPadFromNeighbor(g, eb, nb, f, opts, sum, cnt)
				}
			}
		}
	}
	for i, s := range sum {
		g.Data[i] = T(s / float64(cnt[i]))
	}
}

func refPadFromNeighbor[T grid.Float](g *grid.Grid3[T], eb, nb grid.Region, f [3]int, opts GSPOptions, sum map[int]float64, cnt map[int]int) {
	d := g.Dim
	ubx := eb.X1 - eb.X0
	axis := 0
	if f[1] != 0 {
		axis = 1
	} else if f[2] != 0 {
		axis = 2
	}
	dir := f[axis]
	for u := 0; u < ubx; u++ {
		for v := 0; v < ubx; v++ {
			var acc float64
			for s := 0; s < opts.AvgSlices; s++ {
				var x, y, z int
				switch axis {
				case 0:
					if dir > 0 {
						x = nb.X0 + s
					} else {
						x = nb.X1 - 1 - s
					}
					y, z = eb.Y0+u, eb.Z0+v
				case 1:
					if dir > 0 {
						y = nb.Y0 + s
					} else {
						y = nb.Y1 - 1 - s
					}
					x, z = eb.X0+u, eb.Z0+v
				default:
					if dir > 0 {
						z = nb.Z0 + s
					} else {
						z = nb.Z1 - 1 - s
					}
					x, y = eb.X0+u, eb.Y0+v
				}
				acc += float64(g.At(x, y, z))
			}
			pad := acc / float64(opts.AvgSlices)
			for l := 0; l < opts.PadLayers; l++ {
				var x, y, z int
				switch axis {
				case 0:
					if dir > 0 {
						x = eb.X1 - 1 - l
					} else {
						x = eb.X0 + l
					}
					y, z = eb.Y0+u, eb.Z0+v
				case 1:
					if dir > 0 {
						y = eb.Y1 - 1 - l
					} else {
						y = eb.Y0 + l
					}
					x, z = eb.X0+u, eb.Z0+v
				default:
					if dir > 0 {
						z = eb.Z1 - 1 - l
					} else {
						z = eb.Z0 + l
					}
					x, y = eb.X0+u, eb.Y0+v
				}
				i := d.Index(x, y, z)
				sum[i] += pad
				cnt[i]++
			}
		}
	}
}

// TestGSPDenseScratchEquivalence property-tests the dense-scratch GSP
// against the retained map reference over random masks and option
// combinations: every padded cell must match bit-for-bit.
func TestGSPDenseScratchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		ub := []int{2, 4}[trial%2]
		bd := grid.Dims{X: 2 + rng.Intn(3), Y: 2 + rng.Intn(3), Z: 2 + rng.Intn(3)}
		d := bd.Scale(ub)
		m := grid.NewMask(bd)
		g := grid.New[float32](d)
		for bx := 0; bx < bd.X; bx++ {
			for by := 0; by < bd.Y; by++ {
				for bz := 0; bz < bd.Z; bz++ {
					m.Set(bx, by, bz, rng.Float64() < 0.5)
				}
			}
		}
		for i := range g.Data {
			g.Data[i] = float32(rng.NormFloat64() * 100)
		}
		ZeroUnmasked(g, m, ub)
		opts := GSPOptions{PadLayers: rng.Intn(ub + 1), AvgSlices: rng.Intn(ub + 1)}

		want := g.Clone()
		refGSP(want, m, ub, opts)
		got := g.Clone()
		GSP(got, m, ub, opts)
		for i := range got.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				x, y, z := d.Coords(i)
				t.Fatalf("trial %d (ub=%d opts=%+v): cell (%d,%d,%d) = %v, reference %v",
					trial, ub, opts, x, y, z, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestZeroUnmasked(t *testing.T) {
	d := grid.Dims{X: 8, Y: 8, Z: 8}
	ub := 4
	m := grid.NewMask(d.Div(ub))
	m.Set(0, 0, 0, true)
	g := grid.New[float32](d)
	g.Fill(9)
	ZeroUnmasked(g, m, ub)
	if g.At(1, 1, 1) != 9 {
		t.Fatal("masked block was cleared")
	}
	if g.At(5, 5, 5) != 0 {
		t.Fatal("unmasked block was not cleared")
	}
}

func TestCoveredExactlyOnceDetectsOverlap(t *testing.T) {
	m := grid.NewMask(grid.Dims{X: 2, Y: 2, Z: 2})
	m.Fill(true)
	boxes := []kdtree.Box{
		{DX: 2, DY: 2, DZ: 2},
		{DX: 1, DY: 1, DZ: 1}, // overlaps
	}
	if err := CoveredExactlyOnce(m, boxes); err == nil {
		t.Fatal("overlap should be detected")
	}
}
