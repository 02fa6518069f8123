package sz

import "repro/internal/grid"

// CompressSlices compresses a 3D grid as independent 2D slices along z —
// the natural way 2D compression is applied to 3D data (each x-y plane
// compressed separately), used by the dimensionality ablation. A slice is
// an X×Y×1 block, on which the 3D Lorenzo predictor reduces to the 2D one,
// f(x−1,y) + f(x,y−1) − f(x−1,y−1): the payload is the CompressBlocks
// batch of the grid's z-slices, and DecompressBlocks returns them in z
// order.
func CompressSlices[T grid.Float](g *grid.Grid3[T], opts Options) ([]byte, Stats, error) {
	d := g.Dim
	slices := grid.NewBlocks[T](grid.Dims{X: d.X, Y: d.Y, Z: 1}, d.Z)
	for i, v := range g.Data {
		slices[i%d.Z].Data[i/d.Z] = v
	}
	return CompressBlocks(slices, opts)
}
