// Package amr models tree-structured adaptive-mesh-refinement datasets of
// the kind Nyx/AMReX produce: a stack of levels at power-of-ratio
// resolutions where every physical cell is stored exactly once, at the
// level of its finest refinement (Sec. 1 and Fig. 2 of the TAC paper).
//
// Each level is a dense 3D grid plus an occupancy mask at unit-block
// granularity; only cells inside occupied unit blocks carry data. Masks of
// different levels are disjoint when projected onto the finest resolution,
// and together they tile the whole domain.
package amr

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/grid"
)

// Value is the element type of AMR fields. Nyx stores single precision; the
// paper's bit-rates are quoted against 32 bits/value.
type Value = float32

// ValueBytes is the uncompressed storage width of one Value, the unit all
// compression-ratio accounting in this repository divides by.
const ValueBytes = 4

// Level is one refinement level of a dataset.
type Level struct {
	// Grid holds the level's values on its full extent. Cells outside
	// occupied unit blocks are zero and carry no information.
	Grid *grid.Grid3[Value]
	// UnitBlock is the edge length, in cells, of the refinement unit: the
	// granularity at which the simulation refines and at which TAC's
	// pre-process strategies operate.
	UnitBlock int
	// Mask records which unit blocks hold valid data. Its dims are
	// Grid.Dim / UnitBlock.
	Mask *grid.Mask
}

// NewLevel allocates an empty level of the given cell dims and unit block.
func NewLevel(d grid.Dims, unitBlock int) *Level {
	if unitBlock <= 0 || d.X%unitBlock != 0 || d.Y%unitBlock != 0 || d.Z%unitBlock != 0 {
		panic(fmt.Sprintf("amr: dims %v not divisible by unit block %d", d, unitBlock))
	}
	return &Level{
		Grid:      grid.New[Value](d),
		UnitBlock: unitBlock,
		Mask:      grid.NewMask(d.Div(unitBlock)),
	}
}

// maxLevelCells caps the cells of a level, and the finest-cell edge of a
// coarsest-level cell, at 2^31, or math.MaxInt where int is 32 bits.
const maxLevelCells = min(1<<31, math.MaxInt)

// CheckLevel is the level rule, the geometry — cell dims d and unit block
// — every reader of a skeleton (.amr stream, codec container, TACA footer)
// accepts and every writer keeps to: 1 to maxLevelCells cells, no extent
// past 2^20, a unit block of at least 1 that divides every extent, and at
// most 2^26 unit blocks. Readers call it before they size anything by d.
func CheckLevel(d grid.Dims, unitBlock int) error {
	if n, ok := d.CheckedCount(maxLevelCells); !ok || n == 0 || max(d.X, d.Y, d.Z) > 1<<20 {
		return fmt.Errorf("amr: implausible level dims %v", d)
	}
	if unitBlock < 1 || d.X%unitBlock != 0 || d.Y%unitBlock != 0 || d.Z%unitBlock != 0 {
		return fmt.Errorf("amr: unit block %d does not divide dims %v", unitBlock, d)
	}
	if _, ok := d.Div(unitBlock).CheckedCount(1 << 26); !ok {
		return fmt.Errorf("amr: implausible %d unit blocks in dims %v", d.Div(unitBlock).Count(), d)
	}
	return nil
}

// CheckHierarchy is the rule for a dataset's levels together: at least
// one, a refinement ratio of at least 2, and ratio^(levels−1), by which
// region reads scale coordinates, at most maxLevelCells.
func CheckHierarchy(ratio, levels int) error {
	if levels < 1 || ratio < 2 {
		return fmt.Errorf("amr: %d levels at refinement ratio %d", levels, ratio)
	}
	scale := 1
	for range levels - 1 {
		if scale > maxLevelCells/ratio {
			return fmt.Errorf("amr: refinement ratio %d over %d levels, past 2^31", ratio, levels)
		}
		scale *= ratio
	}
	return nil
}

// Density returns the fraction of the level's unit blocks that hold data,
// the quantity TAC's density filter switches on.
func (l *Level) Density() float64 { return l.Mask.Density() }

// StoredCells returns the number of cells actually stored at this level.
func (l *Level) StoredCells() int {
	ub := l.UnitBlock
	return l.Mask.Count() * ub * ub * ub
}

// BlockRegion returns the cell-space region of unit block (bx,by,bz).
func (l *Level) BlockRegion(bx, by, bz int) grid.Region {
	return grid.BlockRegion(bx, by, bz, l.UnitBlock)
}

// Clone returns a deep copy of the level.
func (l *Level) Clone() *Level {
	return &Level{Grid: l.Grid.Clone(), UnitBlock: l.UnitBlock, Mask: l.Mask.Clone()}
}

// MaskedValues appends the values of all occupied unit blocks (block by
// block, row-major over blocks) to dst and returns it. This is the "stored
// data" of the level — what the original AMR file holds.
func (l *Level) MaskedValues(dst []Value) []Value {
	per := l.UnitBlock * l.UnitBlock * l.UnitBlock
	dst = slices.Grow(dst, l.StoredCells())
	for _, ord := range l.Mask.OccupiedIndices() {
		n := len(dst)
		dst = dst[:n+per]
		l.Grid.CopyRegionTo(l.BlockRegion(l.Mask.Dim.Coords(ord)), dst[n:])
	}
	return dst
}

// SetMaskedValues is the inverse of MaskedValues: it scatters src back into
// the occupied unit blocks in the same order and returns the remaining
// slice of src.
func (l *Level) SetMaskedValues(src []Value) []Value {
	per := l.UnitBlock * l.UnitBlock * l.UnitBlock
	for _, ord := range l.Mask.OccupiedIndices() {
		l.Grid.SetRegion(l.BlockRegion(l.Mask.Dim.Coords(ord)), src[:per])
		src = src[per:]
	}
	return src
}

// Dataset is a complete tree-structured AMR snapshot of one field.
type Dataset struct {
	// Name identifies the dataset (e.g. "Run1_Z10").
	Name string
	// Field names the physical quantity (e.g. "baryon_density").
	Field string
	// Ratio is the refinement ratio between adjacent levels (2 for Nyx).
	Ratio int
	// Levels is ordered fine to coarse: Levels[0] is the finest level,
	// matching Table 1's "Fine to Coarse" presentation.
	Levels []*Level
}

// FinestDims returns the cell dims of the finest level.
func (ds *Dataset) FinestDims() grid.Dims { return ds.Levels[0].Grid.Dim }

// LevelScale returns the up-sampling factor from level li to the finest
// resolution: Ratio^li.
func (ds *Dataset) LevelScale(li int) int {
	f := 1
	for i := 0; i < li; i++ {
		f *= ds.Ratio
	}
	return f
}

// StoredCells returns the total number of cells stored across all levels —
// the size of the original AMR data that compressors are measured against.
func (ds *Dataset) StoredCells() int {
	n := 0
	for _, l := range ds.Levels {
		n += l.StoredCells()
	}
	return n
}

// OriginalBytes returns the uncompressed size in bytes (ValueBytes per stored
// single-precision cell), the numerator of every compression ratio.
func (ds *Dataset) OriginalBytes() int { return ValueBytes * ds.StoredCells() }

// Densities returns the per-level densities, fine to coarse.
func (ds *Dataset) Densities() []float64 {
	out := make([]float64, len(ds.Levels))
	for i, l := range ds.Levels {
		out[i] = l.Density()
	}
	return out
}

// Clone returns a deep copy of the dataset.
func (ds *Dataset) Clone() *Dataset {
	out := &Dataset{Name: ds.Name, Field: ds.Field, Ratio: ds.Ratio}
	out.Levels = make([]*Level, len(ds.Levels))
	for i, l := range ds.Levels {
		out.Levels[i] = l.Clone()
	}
	return out
}

// Validate checks the structural invariants: level dims shrink by Ratio
// (ValidateDims), unit blocks divide dims, and the levels' masks tile the
// domain exactly (every finest-resolution cell covered exactly once).
func (ds *Dataset) Validate() error {
	if err := ds.ValidateDims(); err != nil {
		return err
	}
	// Coverage check at finest-level unit-block granularity.
	fbd := ds.Levels[0].Mask.Dim
	cover := make([]int, fbd.Count())
	for li, l := range ds.Levels {
		s := ds.LevelScale(li)
		md := l.Mask.Dim
		for bx := 0; bx < md.X; bx++ {
			for by := 0; by < md.Y; by++ {
				for bz := 0; bz < md.Z; bz++ {
					if !l.Mask.At(bx, by, bz) {
						continue
					}
					for dx := 0; dx < s; dx++ {
						for dy := 0; dy < s; dy++ {
							for dz := 0; dz < s; dz++ {
								cover[fbd.Index(bx*s+dx, by*s+dy, bz*s+dz)]++
							}
						}
					}
				}
			}
		}
	}
	for i, c := range cover {
		if c != 1 {
			x, y, z := fbd.Coords(i)
			return fmt.Errorf("amr: finest block (%d,%d,%d) covered %d times, want exactly 1", x, y, z, c)
		}
	}
	return nil
}

// ValidateDims checks the level-dims rule alone: the hierarchy rule
// (CheckHierarchy), and level li's dims are the finest's divided by
// Ratio^li. Once it holds, no LevelScale exceeds the finest extent, and a
// level's cells times its scale index inside the finest grid.
func (ds *Dataset) ValidateDims() error {
	if err := CheckHierarchy(ds.Ratio, len(ds.Levels)); err != nil {
		return fmt.Errorf("amr: dataset %q: %w", ds.Name, err)
	}
	fd := ds.FinestDims()
	s := 1
	for li, l := range ds.Levels {
		want := grid.Dims{X: fd.X / s, Y: fd.Y / s, Z: fd.Z / s}
		if fd.X%s != 0 || l.Grid.Dim != want {
			return fmt.Errorf("amr: level %d dims %v, want %v (finest %v / %d)", li, l.Grid.Dim, want, fd, s)
		}
		// Past the finest extent no level can match: stop there rather
		// than let a hostile Ratio's powers wrap.
		if s > fd.X/ds.Ratio {
			s = fd.X + 1
		} else {
			s *= ds.Ratio
		}
	}
	return nil
}

// FlattenToUniform converts the dataset to a single uniform-resolution grid
// at the finest resolution by up-sampling each coarse level (piecewise-
// constant injection) and merging, exactly the post-analysis conversion of
// Fig. 2. The result is what the power spectrum and halo finder consume and
// what the 3D baseline compresses.
func (ds *Dataset) FlattenToUniform() *grid.Grid3[Value] {
	out := grid.New[Value](ds.FinestDims())
	for li, l := range ds.Levels {
		s := ds.LevelScale(li)
		md := l.Mask.Dim
		ub := l.UnitBlock
		for bx := 0; bx < md.X; bx++ {
			for by := 0; by < md.Y; by++ {
				for bz := 0; bz < md.Z; bz++ {
					if !l.Mask.At(bx, by, bz) {
						continue
					}
					// Up-sample this unit block into the output.
					for cx := bx * ub; cx < (bx+1)*ub; cx++ {
						for cy := by * ub; cy < (by+1)*ub; cy++ {
							for cz := bz * ub; cz < (bz+1)*ub; cz++ {
								v := l.Grid.At(cx, cy, cz)
								out.FillRegion(grid.Region{
									X0: cx * s, Y0: cy * s, Z0: cz * s,
									X1: (cx + 1) * s, Y1: (cy + 1) * s, Z1: (cz + 1) * s,
								}, v)
							}
						}
					}
				}
			}
		}
	}
	return out
}
