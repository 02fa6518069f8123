package preprocess

import (
	"repro/internal/grid"
)

// GSPOptions tunes ghost-shell padding. The zero value fills the whole of
// each padded block (PadLayers = unit block) from one boundary slice.
type GSPOptions struct {
	// PadLayers is the number of cell layers written into an empty block
	// from each contributing face (Algorithm 3's x). 0 means the full
	// unit-block depth.
	PadLayers int
	// AvgSlices is the number of neighbor boundary slices averaged to form
	// the pad slice (Algorithm 3's y). 0 means 1.
	AvgSlices int
}

func (o GSPOptions) withDefaults(ub int) GSPOptions {
	if o.PadLayers <= 0 || o.PadLayers > ub {
		o.PadLayers = ub
	}
	if o.AvgSlices <= 0 {
		o.AvgSlices = 1
	}
	if o.AvgSlices > ub {
		o.AvgSlices = ub
	}
	return o
}

// face enumerates the six axis-aligned neighbor directions.
var faces = [6][3]int{
	{-1, 0, 0}, {1, 0, 0},
	{0, -1, 0}, {0, 1, 0},
	{0, 0, -1}, {0, 0, 1},
}

// GSP pads the empty unit blocks of g that border occupied blocks with
// values diffused from the occupied neighbors' boundary slices
// (Algorithm 3). For each empty block and each occupied face neighbor, the
// AvgSlices boundary slices of the neighbor nearest the shared face are
// averaged into one 2D pad slice, which is replicated PadLayers deep into
// the empty block starting at the shared face. Cells written by several
// neighbors receive the mean of all contributions — Algorithm 3's pad/2 and
// pad/3 edge/corner halving generalized exactly.
//
// g is modified in place. Empty blocks with no occupied neighbor stay zero.
// Decompression simply discards padded blocks (the mask identifies them),
// so GSP needs no metadata.
//
// Contributions to a cell only ever come from the faces of the one empty
// block that owns it, so the sum/count accumulators are a ub³ scratch
// reused across blocks rather than grid-wide maps (the map-keyed
// accumulation used to dominate GSP's profile). Accumulation order per
// cell — face order, then (u,v,layer) within a face — is unchanged, so
// the padded values are bit-identical to the map implementation.
func GSP[T grid.Float](g *grid.Grid3[T], mask *grid.Mask, unitBlock int, opts GSPOptions) {
	opts = opts.withDefaults(unitBlock)
	md := mask.Dim
	ub := unitBlock

	// Accumulate contributions then divide, so overlap handling is exact.
	sum := make([]float64, ub*ub*ub)
	cnt := make([]uint8, ub*ub*ub)

	for bx := 0; bx < md.X; bx++ {
		for by := 0; by < md.Y; by++ {
			for bz := 0; bz < md.Z; bz++ {
				if mask.At(bx, by, bz) {
					continue
				}
				eb := grid.BlockRegion(bx, by, bz, ub)
				touched := false
				for _, f := range faces {
					nx, ny, nz := bx+f[0], by+f[1], bz+f[2]
					if !md.Contains(nx, ny, nz) || !mask.At(nx, ny, nz) {
						continue
					}
					if !touched {
						clear(sum)
						clear(cnt)
						touched = true
					}
					padFromNeighbor(g, eb, grid.BlockRegion(nx, ny, nz, ub), f, opts, sum, cnt)
				}
				if !touched {
					continue
				}
				// Write the block's padded cells back: scratch index
				// (u,v,w) maps to block-local (x,y,z).
				for i, c := range cnt {
					if c == 0 {
						continue
					}
					lz := i % ub
					ly := (i / ub) % ub
					lx := i / (ub * ub)
					g.Data[g.Dim.Index(eb.X0+lx, eb.Y0+ly, eb.Z0+lz)] = T(sum[i] / float64(c))
				}
			}
		}
	}
}

// padFromNeighbor accumulates the pad contribution of occupied block nb
// into empty block eb across face direction f (from eb's perspective:
// nb = eb + f). sum and cnt are indexed block-locally:
// ((x−eb.X0)·ub + (y−eb.Y0))·ub + (z−eb.Z0).
func padFromNeighbor[T grid.Float](g *grid.Grid3[T], eb, nb grid.Region, f [3]int, opts GSPOptions, sum []float64, cnt []uint8) {
	ubx := eb.X1 - eb.X0
	// Walk the face plane; u,v are the two in-plane axes, w the normal.
	axis := 0
	if f[1] != 0 {
		axis = 1
	} else if f[2] != 0 {
		axis = 2
	}
	dir := f[axis] // +1: neighbor is on the high side of eb

	// For each in-plane position, average the neighbor's AvgSlices cells
	// nearest the shared face, then deposit PadLayers cells into eb.
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
				var x, y, z int // block-local coordinates
				switch axis {
				case 0:
					if dir > 0 {
						x = ubx - 1 - l
					} else {
						x = l
					}
					y, z = u, v
				case 1:
					if dir > 0 {
						y = ubx - 1 - l
					} else {
						y = l
					}
					x, z = u, v
				default:
					if dir > 0 {
						z = ubx - 1 - l
					} else {
						z = l
					}
					x, y = u, v
				}
				i := (x*ubx+y)*ubx + z
				sum[i] += pad
				cnt[i]++
			}
		}
	}
}
