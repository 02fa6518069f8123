package sz

import (
	"math"

	"repro/internal/grid"
)

// Temporal (cross-snapshot) kernels. Where the Lorenzo kernels predict a
// cell from its already-reconstructed spatial neighbors, the temporal
// kernels predict it from the reconstructed value of the same cell in a
// reference block — the previous snapshot of a slowly-evolving campaign.
// Because the prediction never reads the block being encoded, every
// element is independent: there is no wavefront, no boundary peel, and no
// loop-carried dependency at all, so the straight-line loop below already
// exposes full instruction-level parallelism (the property the quad
// kernels had to manufacture for Lorenzo).
//
// The per-element quantization is the same inlined qstep the production
// Lorenzo kernels use (identical formulas and evaluation order), so the
// error-bound argument is unchanged: the residual is taken against the
// reference's RECONSTRUCTED value — exactly what the decoder holds — so
// |v − recon| ≤ eb holds per snapshot and error never accumulates along a
// reference chain. The scalar oracles encodeTemporalRef/decodeTemporalRef
// (temporal_test.go) route through quantizer/dequantizer; the equivalence
// suite compares the two element-for-element.

// encodeTemporalBlock encodes one block against its reference, writing
// the quantization codes, 0 for a literal, and reconstruction. codes and
// recon must be presized to len(src); ref must be the reference block's
// reconstructed values at the same shape. The literal pool is the seal's
// to build (appendLiterals).
func encodeTemporalBlock[T grid.Float](src, ref, recon []T, codes []uint32, eb float64, radius int64) {
	twoEB := 2 * eb
	radiusF := float64(radius)
	for i, v := range src {
		pred := ref[i]
		diff := float64(v) - float64(pred)
		qv := fastRound(diff / twoEB)
		c, r := uint32(0), v
		if math.Abs(qv) < radiusF {
			if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
				c, r = uint32(int64(qv)+radius), rr
			}
		}
		codes[i], recon[i] = c, r
	}
}

// decodeTemporalBlock decodes one block given the reconstructed reference
// block, returning the literal bytes consumed. out must be presized to
// len(codes); ref is read only.
func decodeTemporalBlock[T grid.Float](out, ref []T, codes []uint32, lits []byte, twoEB float64, radius int64) int {
	litSize := literalSize[T]()
	lp := 0
	for i, c := range codes {
		if c != 0 {
			out[i] = dqstep(c, ref[i], twoEB, radius)
		} else {
			out[i] = loadLiteral[T](lits[lp:])
			lp += litSize
		}
	}
	return lp
}
