//go:build !amd64 || purego

package sz

import "repro/internal/grid"

// No vector kernels in this build: every block goes through the Go kernels.
const haveAVX2 = false

type lanes struct{}

func (e *Encoder[T]) encodeGroups(blocks []*grid.Grid3[T], d grid.Dims, codes []uint32, eb float64, radius int64, rec func(i int) []T, keep bool) int {
	return 0
}

func (e *Encoder[T]) temporalEncode(src, ref, recon []T, codes []uint32, eb float64, radius int64) {
	encodeTemporalBlock(src, ref, recon, codes, eb, radius)
}

func (d *Decoder[T]) decodeGroups(b batch[T], want []int, dst []*grid.Grid3[T]) []int {
	return want
}

func (d *Decoder[T]) temporalDecode(out, ref []T, codes []uint32, lits []byte, twoEB float64, radius int64) int {
	return decodeTemporalBlock(out, ref, codes, lits, twoEB, radius)
}
