package experiments

import (
	"io"

	"repro/internal/amr"
	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/sim"
	"repro/internal/sz"
)

// Fig16 demonstrates the paper's Fig. 16 argument with measurements rather
// than a toy sketch: zMesh's cross-level interleaving helps only when the
// AMR data is *block-structured* (coarse levels redundantly store the
// values of refined regions), and hurts *tree-structured* data (each cell
// stored once). For both representations of the same snapshot we build the
// level-by-level 1D order and the zMesh interleaved order, then compare
// 1D-compressed sizes.
func Fig16(w io.Writer, env *Env) error {
	ds, err := env.Dataset("Run1_Z10", sim.BaryonDensity)
	if err != nil {
		return err
	}
	sk := codec.SkeletonOf(ds)

	// Tree-structured streams (the repository's native representation).
	var treeZ []amr.Value
	baseline.Walk(sk, func(li, idx int) {
		treeZ = append(treeZ, ds.Levels[li].Grid.Data[idx])
	})
	var treeL []amr.Value
	for _, l := range ds.Levels {
		treeL = l.MaskedValues(treeL)
	}

	// Block-structured variant: the coarse level also stores data under
	// refined regions (the restriction of the fine level), as patch-based
	// AMR codes do. The zMesh order emits the coarse value first, then
	// descends — so redundant neighbors sit adjacent, which is exactly
	// what zMesh exploits.
	blockCoarse := ds.Levels[0].Grid.Downsample(ds.Ratio)
	var blockZ []amr.Value
	cd := ds.Levels[1].Grid.Dim
	ub := ds.Levels[1].UnitBlock
	for x := 0; x < cd.X; x++ {
		for y := 0; y < cd.Y; y++ {
			for z := 0; z < cd.Z; z++ {
				if ds.Levels[1].Mask.At(x/ub, y/ub, z/ub) {
					blockZ = append(blockZ, ds.Levels[1].Grid.At(x, y, z))
					continue
				}
				blockZ = append(blockZ, blockCoarse.At(x, y, z))
				for dx := 0; dx < ds.Ratio; dx++ {
					for dy := 0; dy < ds.Ratio; dy++ {
						for dz := 0; dz < ds.Ratio; dz++ {
							blockZ = append(blockZ, ds.Levels[0].Grid.At(x*ds.Ratio+dx, y*ds.Ratio+dy, z*ds.Ratio+dz))
						}
					}
				}
			}
		}
	}
	var blockL []amr.Value
	for x := 0; x < cd.X; x++ { // level order: full coarse grid first
		for y := 0; y < cd.Y; y++ {
			for z := 0; z < cd.Z; z++ {
				if ds.Levels[1].Mask.At(x/ub, y/ub, z/ub) {
					blockL = append(blockL, ds.Levels[1].Grid.At(x, y, z))
				} else {
					blockL = append(blockL, blockCoarse.At(x, y, z))
				}
			}
		}
	}
	blockL = ds.Levels[0].MaskedValues(blockL)

	eb := 1e9
	size := func(vals []amr.Value) int {
		blob, _, err := sz.Compress1D(vals, sz.Options{ErrorBound: eb})
		if err != nil {
			return -1
		}
		return len(blob)
	}
	tz, tl := size(treeZ), size(treeL)
	bz, bl := size(blockZ), size(blockL)
	fprintf(w, "Fig 16: zMesh reordering vs level order, 1D-compressed size (eb %.0e)\n", eb)
	fprintf(w, "%-18s %-12s %-12s %-10s\n", "representation", "level order", "zMesh order", "zMesh gain")
	fprintf(w, "%-18s %-12d %-12d %+.1f%%\n", "tree-structured", tl, tz, 100*(float64(tl)-float64(tz))/float64(tl))
	fprintf(w, "%-18s %-12d %-12d %+.1f%%\n", "block-structured", bl, bz, 100*(float64(bl)-float64(bz))/float64(bl))
	fprintf(w, "(positive gain = zMesh order compresses smaller. The paper's argument is that\n")
	fprintf(w, " zMesh's reordering pays off only with the cross-level redundancy of\n")
	fprintf(w, " block-structured AMR; on tree-structured data its advantage shrinks toward —\n")
	fprintf(w, " and on the paper's high-contrast Nyx fields falls below — the 1D baseline.)\n")
	return nil
}
