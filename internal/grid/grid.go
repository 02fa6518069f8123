// Package grid provides dense 3D tensors and the block-level geometry
// helpers used throughout the TAC pipeline: sub-grid extraction, coarse/fine
// resampling, and 3D summed-area tables for O(1) occupancy queries.
//
// Grids are stored in row-major order with z varying fastest, i.e. the
// linear index of cell (x, y, z) on an (Nx, Ny, Nz) grid is
// (x*Ny+y)*Nz + z. This matches the memory layout the SZ-style compressor
// assumes for its 3D Lorenzo predictor.
package grid

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Float is the element constraint for grids: the single- and
// double-precision floating point types scientific datasets use.
type Float interface {
	~float32 | ~float64
}

// Dims describes the extent of a 3D grid.
type Dims struct {
	X, Y, Z int
}

// Count returns the total number of cells, X*Y*Z.
func (d Dims) Count() int { return d.X * d.Y * d.Z }

// CheckedCount is Count for dims read from untrusted input: it reports
// false for a negative extent or a product above limit, where Count could
// wrap to any value at all.
func (d Dims) CheckedCount(limit int) (int, bool) {
	if d.X < 0 || d.Y < 0 || d.Z < 0 || limit < 0 {
		return 0, false
	}
	hi, p := bits.Mul64(uint64(d.X), uint64(d.Y))
	if hi != 0 || p > uint64(limit) {
		return 0, false
	}
	hi, p = bits.Mul64(p, uint64(d.Z))
	if hi != 0 || p > uint64(limit) {
		return 0, false
	}
	return int(p), true
}

// String implements fmt.Stringer.
func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z) }

// IsCube reports whether all three extents are equal.
func (d Dims) IsCube() bool { return d.X == d.Y && d.Y == d.Z }

// Scale returns the dims multiplied by factor f in every dimension.
func (d Dims) Scale(f int) Dims { return Dims{d.X * f, d.Y * f, d.Z * f} }

// Div returns the dims divided by factor f in every dimension, rounding up.
func (d Dims) Div(f int) Dims {
	return Dims{ceilDiv(d.X, f), ceilDiv(d.Y, f), ceilDiv(d.Z, f)}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Contains reports whether cell (x,y,z) lies inside the grid extent.
func (d Dims) Contains(x, y, z int) bool {
	return x >= 0 && x < d.X && y >= 0 && y < d.Y && z >= 0 && z < d.Z
}

// Index returns the linear index of cell (x,y,z).
func (d Dims) Index(x, y, z int) int { return (x*d.Y+y)*d.Z + z }

// Coords is the inverse of Index.
func (d Dims) Coords(i int) (x, y, z int) {
	z = i % d.Z
	i /= d.Z
	y = i % d.Y
	x = i / d.Y
	return
}

// Grid3 is a dense 3D tensor of floating point values.
type Grid3[T Float] struct {
	Dim  Dims
	Data []T // len == Dim.Count(), layout (x*Ny+y)*Nz+z
}

// New allocates a zeroed grid with the given dims.
func New[T Float](d Dims) *Grid3[T] {
	return &Grid3[T]{Dim: d, Data: make([]T, d.Count())}
}

// NewCube allocates a zeroed n×n×n grid.
func NewCube[T Float](n int) *Grid3[T] { return New[T](Dims{n, n, n}) }

// NewBlocks allocates count zeroed grids of identical dims backed by one
// data slab and one header array — three allocations total instead of
// 2×count. Batch decoders use it: a batch of a thousand small unit blocks
// would otherwise pay a thousand allocations (and their GC scan cost) per
// payload. Each grid's Data is capacity-clipped to its own window, so
// appends cannot bleed into a neighbor. The slab stays reachable while
// any one block is.
func NewBlocks[T Float](d Dims, count int) []*Grid3[T] {
	per := d.Count()
	slab := make([]T, per*count)
	hdrs := make([]Grid3[T], count)
	out := make([]*Grid3[T], count)
	for i := range out {
		hdrs[i] = Grid3[T]{Dim: d, Data: slab[i*per : (i+1)*per : (i+1)*per]}
		out[i] = &hdrs[i]
	}
	return out
}

// At returns the value at (x,y,z).
func (g *Grid3[T]) At(x, y, z int) T { return g.Data[g.Dim.Index(x, y, z)] }

// Set stores v at (x,y,z).
func (g *Grid3[T]) Set(x, y, z int, v T) { g.Data[g.Dim.Index(x, y, z)] = v }

// Clone returns a deep copy of the grid.
func (g *Grid3[T]) Clone() *Grid3[T] {
	out := New[T](g.Dim)
	copy(out.Data, g.Data)
	return out
}

// Fill sets every cell to v.
func (g *Grid3[T]) Fill(v T) {
	for i := range g.Data {
		g.Data[i] = v
	}
}

// Region is an axis-aligned box of cells, half-open: [X0,X1)×[Y0,Y1)×[Z0,Z1).
type Region struct {
	X0, Y0, Z0 int
	X1, Y1, Z1 int
}

// RegionOf returns the region covering the whole of dims d.
func RegionOf(d Dims) Region { return Region{0, 0, 0, d.X, d.Y, d.Z} }

// BlockRegion returns the cell region of unit block (bx,by,bz), whose
// edge is ub cells.
func BlockRegion(bx, by, bz, ub int) Region {
	return Region{
		X0: bx * ub, Y0: by * ub, Z0: bz * ub,
		X1: (bx + 1) * ub, Y1: (by + 1) * ub, Z1: (bz + 1) * ub,
	}
}

// Blocks returns the window of n-cell blocks that covers r: lower bounds
// round down and upper bounds round outward.
func (r Region) Blocks(n int) Region {
	return Region{
		X0: r.X0 / n, Y0: r.Y0 / n, Z0: r.Z0 / n,
		X1: (r.X1 + n - 1) / n, Y1: (r.Y1 + n - 1) / n, Z1: (r.Z1 + n - 1) / n,
	}
}

// Dims returns the extents of the region.
func (r Region) Dims() Dims { return Dims{r.X1 - r.X0, r.Y1 - r.Y0, r.Z1 - r.Z0} }

// Count returns the number of cells in the region.
func (r Region) Count() int { return r.Dims().Count() }

// Empty reports whether the region contains no cells.
func (r Region) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 || r.Z1 <= r.Z0 }

// ParseRegion parses the "x0:x1,y0:y1,z0:z1" region syntax shared by the
// tacc -roi flag and the serving layer's roi query parameter, so the two
// surfaces cannot drift apart.
func ParseRegion(s string) (Region, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return Region{}, fmt.Errorf("grid: bad region %q (want x0:x1,y0:y1,z0:z1)", s)
	}
	var lo, hi [3]int
	for i, p := range parts {
		a, b, ok := strings.Cut(p, ":")
		if !ok {
			return Region{}, fmt.Errorf("grid: bad region axis %q", p)
		}
		var err error
		if lo[i], err = strconv.Atoi(a); err != nil {
			return Region{}, fmt.Errorf("grid: bad region bound %q", a)
		}
		if hi[i], err = strconv.Atoi(b); err != nil {
			return Region{}, fmt.Errorf("grid: bad region bound %q", b)
		}
	}
	return Region{X0: lo[0], Y0: lo[1], Z0: lo[2], X1: hi[0], Y1: hi[1], Z1: hi[2]}, nil
}

// Clip returns the intersection of r and o (possibly empty).
func (r Region) Clip(o Region) Region {
	c := r
	if c.X0 < o.X0 {
		c.X0 = o.X0
	}
	if c.Y0 < o.Y0 {
		c.Y0 = o.Y0
	}
	if c.Z0 < o.Z0 {
		c.Z0 = o.Z0
	}
	if c.X1 > o.X1 {
		c.X1 = o.X1
	}
	if c.Y1 > o.Y1 {
		c.Y1 = o.Y1
	}
	if c.Z1 > o.Z1 {
		c.Z1 = o.Z1
	}
	return c
}

// Intersect clips the region to the grid extent d.
func (r Region) Intersect(d Dims) Region {
	c := r
	if c.X0 < 0 {
		c.X0 = 0
	}
	if c.Y0 < 0 {
		c.Y0 = 0
	}
	if c.Z0 < 0 {
		c.Z0 = 0
	}
	if c.X1 > d.X {
		c.X1 = d.X
	}
	if c.Y1 > d.Y {
		c.Y1 = d.Y
	}
	if c.Z1 > d.Z {
		c.Z1 = d.Z
	}
	return c
}

// String implements fmt.Stringer.
func (r Region) String() string {
	return fmt.Sprintf("[%d:%d,%d:%d,%d:%d]", r.X0, r.X1, r.Y0, r.Y1, r.Z0, r.Z1)
}

// Extract copies the region r of g into a new dense grid of r.Dims().
func (g *Grid3[T]) Extract(r Region) *Grid3[T] {
	out := New[T](r.Dims())
	g.CopyRegionTo(r, out.Data)
	return out
}

// CopyRegionTo copies region r of g into dst (row-major, z fastest). dst
// must have length r.Count().
func (g *Grid3[T]) CopyRegionTo(r Region, dst []T) {
	d := r.Dims()
	if len(dst) != d.Count() {
		panic(fmt.Sprintf("grid: dst length %d does not match region %v (%d cells)", len(dst), r, d.Count()))
	}
	nz := d.Z
	di := 0
	for x := r.X0; x < r.X1; x++ {
		for y := r.Y0; y < r.Y1; y++ {
			src := g.Dim.Index(x, y, r.Z0)
			copy(dst[di:di+nz], g.Data[src:src+nz])
			di += nz
		}
	}
}

// SetRegion copies src (a dense block of r.Dims() cells) into region r of g.
func (g *Grid3[T]) SetRegion(r Region, src []T) {
	d := r.Dims()
	if len(src) != d.Count() {
		panic(fmt.Sprintf("grid: src length %d does not match region %v (%d cells)", len(src), r, d.Count()))
	}
	nz := d.Z
	si := 0
	for x := r.X0; x < r.X1; x++ {
		for y := r.Y0; y < r.Y1; y++ {
			dst := g.Dim.Index(x, y, r.Z0)
			copy(g.Data[dst:dst+nz], src[si:si+nz])
			si += nz
		}
	}
}

// CopyRegionOverlap copies the cells where the source region sr and the
// destination region dr overlap. Both buffers are dense row-major (z
// fastest) over their own region's dims and both regions live in the same
// coordinate space; dst cells outside sr are left untouched. This is the
// region-assembly primitive of the serving layer: a response buffer dense
// over a requested ROI is filled directly from independently decoded unit
// blocks, with no intermediate level-sized grid.
func CopyRegionOverlap[T Float](dst []T, dr Region, src []T, sr Region) {
	dd, sd := dr.Dims(), sr.Dims()
	if len(dst) != dd.Count() {
		panic(fmt.Sprintf("grid: dst length %d does not match region %v (%d cells)", len(dst), dr, dd.Count()))
	}
	if len(src) != sd.Count() {
		panic(fmt.Sprintf("grid: src length %d does not match region %v (%d cells)", len(src), sr, sd.Count()))
	}
	ov := dr.Clip(sr)
	if ov.Empty() {
		return
	}
	nz := ov.Z1 - ov.Z0
	for x := ov.X0; x < ov.X1; x++ {
		di := ((x-dr.X0)*dd.Y+(ov.Y0-dr.Y0))*dd.Z + (ov.Z0 - dr.Z0)
		si := ((x-sr.X0)*sd.Y+(ov.Y0-sr.Y0))*sd.Z + (ov.Z0 - sr.Z0)
		for y := ov.Y0; y < ov.Y1; y++ {
			copy(dst[di:di+nz], src[si:si+nz])
			di += dd.Z
			si += sd.Z
		}
	}
}

// FillRegion sets every cell in region r to v.
func (g *Grid3[T]) FillRegion(r Region, v T) {
	for x := r.X0; x < r.X1; x++ {
		for y := r.Y0; y < r.Y1; y++ {
			base := g.Dim.Index(x, y, r.Z0)
			row := g.Data[base : base+(r.Z1-r.Z0)]
			for i := range row {
				row[i] = v
			}
		}
	}
}

// Downsample returns a grid coarsened by integer factor f, each coarse cell
// holding the arithmetic mean of its f×f×f fine children (the conservative
// restriction AMR codes use). Dims must be divisible by f.
func (g *Grid3[T]) Downsample(f int) *Grid3[T] {
	if f == 1 {
		return g.Clone()
	}
	if g.Dim.X%f != 0 || g.Dim.Y%f != 0 || g.Dim.Z%f != 0 {
		panic(fmt.Sprintf("grid: dims %v not divisible by %d", g.Dim, f))
	}
	cd := Dims{g.Dim.X / f, g.Dim.Y / f, g.Dim.Z / f}
	out := New[T](cd)
	inv := 1.0 / float64(f*f*f)
	for cx := 0; cx < cd.X; cx++ {
		for cy := 0; cy < cd.Y; cy++ {
			for cz := 0; cz < cd.Z; cz++ {
				var sum float64
				for dx := 0; dx < f; dx++ {
					for dy := 0; dy < f; dy++ {
						base := g.Dim.Index(cx*f+dx, cy*f+dy, cz*f)
						row := g.Data[base : base+f]
						for _, v := range row {
							sum += float64(v)
						}
					}
				}
				out.Set(cx, cy, cz, T(sum*inv))
			}
		}
	}
	return out
}

// MinMax returns the smallest and largest values in the grid. It returns
// (0, 0) for an empty grid.
func (g *Grid3[T]) MinMax() (min, max T) {
	if len(g.Data) == 0 {
		return 0, 0
	}
	min, max = g.Data[0], g.Data[0]
	for _, v := range g.Data[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return
}

// Mean returns the arithmetic mean of all cells (0 for an empty grid).
func (g *Grid3[T]) Mean() float64 {
	if len(g.Data) == 0 {
		return 0
	}
	var sum float64
	for _, v := range g.Data {
		sum += float64(v)
	}
	return sum / float64(len(g.Data))
}

// MaxAbsDiff returns the largest absolute difference between two grids of
// identical dims.
func MaxAbsDiff[T Float](a, b *Grid3[T]) float64 {
	if a.Dim != b.Dim {
		panic(fmt.Sprintf("grid: dims mismatch %v vs %v", a.Dim, b.Dim))
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}
