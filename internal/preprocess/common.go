package preprocess

import (
	"fmt"
	"sort"

	"repro/internal/grid"
	"repro/internal/kdtree"
)

// Group is a batch of equally-shaped sub-blocks destined for one
// sz.CompressBlocks call — the "4D array" of the paper's NaST/OpST
// description. Shape is in unit blocks; Boxes lists the member sub-blocks
// in a deterministic order.
type Group struct {
	Shape grid.Dims // in unit blocks
	Boxes []kdtree.Box
}

// GroupBoxes buckets boxes by shape, ordering groups by (volume, X, Y, Z)
// and preserving the boxes' extraction order within each group. Both sides
// of the codec derive identical grouping from the same box list.
func GroupBoxes(boxes []kdtree.Box) []Group {
	byShape := make(map[grid.Dims]*Group)
	var order []grid.Dims
	for _, b := range boxes {
		s := grid.Dims{X: b.DX, Y: b.DY, Z: b.DZ}
		g, ok := byShape[s]
		if !ok {
			g = &Group{Shape: s}
			byShape[s] = g
			order = append(order, s)
		}
		g.Boxes = append(g.Boxes, b)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if av, bv := a.Count(), b.Count(); av != bv {
			return av < bv
		}
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
	out := make([]Group, len(order))
	for i, s := range order {
		out[i] = *byShape[s]
	}
	return out
}

// CellRegion converts a unit-block box to the cell-space region it covers.
func CellRegion(b kdtree.Box, unitBlock int) grid.Region {
	return grid.Region{
		X0: b.X * unitBlock, Y0: b.Y * unitBlock, Z0: b.Z * unitBlock,
		X1: (b.X + b.DX) * unitBlock, Y1: (b.Y + b.DY) * unitBlock, Z1: (b.Z + b.DZ) * unitBlock,
	}
}

// Gather copies each box's cells out of src into its own dense grid.
func Gather[T grid.Float](src *grid.Grid3[T], boxes []kdtree.Box, unitBlock int) []*grid.Grid3[T] {
	out := make([]*grid.Grid3[T], len(boxes))
	for i, b := range boxes {
		out[i] = src.Extract(CellRegion(b, unitBlock))
	}
	return out
}

// Scatter writes the grids back into dst at their boxes' positions; it is
// the inverse of Gather.
func Scatter[T grid.Float](dst *grid.Grid3[T], boxes []kdtree.Box, unitBlock int, grids []*grid.Grid3[T]) error {
	if len(boxes) != len(grids) {
		return fmt.Errorf("preprocess: %d boxes but %d grids", len(boxes), len(grids))
	}
	for i, b := range boxes {
		r := CellRegion(b, unitBlock)
		if grids[i].Dim != r.Dims() {
			return fmt.Errorf("preprocess: box %d region %v does not match grid dims %v", i, r, grids[i].Dim)
		}
		dst.SetRegion(r, grids[i].Data)
	}
	return nil
}

// ZeroUnmasked clears every cell of g that lies in an unoccupied unit
// block. Used after decompressing ZF/GSP payloads to discard fill values,
// and when preparing a level grid for padding.
func ZeroUnmasked[T grid.Float](g *grid.Grid3[T], mask *grid.Mask, unitBlock int) {
	md := mask.Dim
	for bx := 0; bx < md.X; bx++ {
		for by := 0; by < md.Y; by++ {
			for bz := 0; bz < md.Z; bz++ {
				if mask.At(bx, by, bz) {
					continue
				}
				g.FillRegion(CellRegion(kdtree.Box{X: bx, Y: by, Z: bz, DX: 1, DY: 1, DZ: 1}, unitBlock), 0)
			}
		}
	}
}
