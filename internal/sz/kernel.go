package sz

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/grid"
)

// Boundary-peeled, branch-free Lorenzo kernels.
//
// The reference kernels (encodeLorenzo3Ref and friends, kept as test
// oracles in oracle_test.go) pay seven boundary branches per element in
// lorenzoPred, a non-inlined quantizer.encode with append-grown code
// storage, and a per-element error-returning dequantizer.decode. The
// kernels below remove all of that without changing a single payload byte:
//
//   - each block is split into its x=0 face, the y=0 and z=0 boundary
//     lines of every plane, and a branch-free interior loop (z innermost,
//     walking precomputed sx/sy strides with all seven neighbor loads
//     unconditional);
//   - the quantizer is hand-inlined into every loop, codes are written by
//     index into a buffer presized to the block's cell count, and the
//     constants (eb, 2·eb, radius) live in locals;
//   - the decode side validates the code count and literal pool once up
//     front (openBatch, the literal pool through litOffsets), then consumes
//     codes by index with no per-element error return; literals stream
//     from a cursor. checkLiterals does the same for Reconstruct3D and is
//     the tests' oracle for litOffsets.
//
// There is one Lorenzo kernel pair for every payload kind: a 1D stream is a
// 1×1×n block, whose z-edge row is the order-1 predictor, and a 3D grid is
// a batch of one block.
//
// Byte-identity is load-bearing: the golden payload hash from PR 1 must
// not move. The float64 arithmetic of the reference quantizer is kept
// verbatim, and the peeled boundary predictors reproduce the reference's
// left-to-right summation over zero-valued absent neighbors exactly,
// including IEEE signed-zero behavior:
//
//   - subtracting an absent term (x − (+0)) is the identity for every x,
//     so absent negative terms are dropped;
//   - adding an absent term (x + (+0)) differs only when x is −0, which
//     the reference's running sum can reach only right after the first
//     two terms (fx+fy with both −0) or when the sum starts at +0 and
//     the first present term is −0 — so exactly the zero terms that
//     matter are kept (the `zero +` / `+ zero` below), and the rest are
//     provably identity and dropped;
//   - the z edge's prediction is the previous reconstruction alone. Its
//     zero term could only turn a −0 prediction into +0, and the
//     reconstruction does that anyway — the encoder adds + 0, the decoder
//     a step that is +0 for a zero residual (see dqstep) — so no code,
//     literal or output bit depends on it, and it is dropped too.
//
// kernel_test.go checks every case element-for-element against the
// reference kernels, on top of the payload-level golden tests.

// fastRound is math.Round — round half away from zero — computed through
// the math.RoundToEven hardware intrinsic (ROUNDSD on amd64; math.Round
// itself has no instruction and falls back to bit manipulation). The
// result is bit-identical to math.Round for every input:
//
//   - r := RoundToEven(x) is the nearest integer to x, so |x−r| ≤ 0.5 and
//     the subtraction x−r is exact (Sterbenz for |r| ≥ 1, trivial for
//     r = 0), which means x−r == ±0.5 exactly identifies the halfway
//     ties — the only inputs where the two rounding rules differ;
//   - at a tie RoundToEven picked the even neighbor; rounding half away
//     from zero wants the larger magnitude, so a +0.5 gap with r ≥ 0
//     bumps up and a −0.5 gap with r ≤ 0 bumps down (the sign conditions
//     keep ties that RoundToEven already moved away from zero fixed);
//   - NaN and ±Inf fall through (the gap is NaN). The one observable
//     difference from math.Round: the intrinsic quiets signaling-NaN
//     payloads. The quantizer never sees NaN payload bits — any NaN
//     fails the radius check and takes the literal path — so payloads
//     are unaffected.
//
// The tie branches are almost never taken and predict perfectly; the
// critical-path cost drops from ~20 cycles of integer bit twiddling to
// one 8-cycle instruction. kernel_test.go exercises the equivalence
// directly and every payload-identity test covers it end to end.
func fastRound(x float64) float64 {
	r := math.RoundToEven(x)
	d := x - r
	if d == 0.5 && r >= 0 {
		return r + 1
	}
	if d == -0.5 && r <= 0 {
		return r - 1
	}
	return r
}

// The quantizer step appears hand-inlined in every encode loop below
// rather than as a helper: gcshape-stenciled generic calls carry a
// dictionary argument that pushes the instantiation past the inlining
// budget, so a helper would cost a real function call per element. Each
// expansion is the same eight lines, mirroring quantizer.encode
// operation-for-operation:
//
//	diff := float64(v) - float64(pred)
//	qv := fastRound(diff / twoEB)
//	c, r := uint32(0), v                  // literal marker unless...
//	if math.Abs(qv) < radiusF {           // (range-check before the
//		if rr := T(float64(pred)+0+float64(twoEB*qv)); // int conv.: out-of-
//			math.Abs(float64(v)-float64(rr)) <= eb { // range conversions
//			c, r = uint32(int64(qv)+radius), rr      // are undefined)
//		}
//	}
//
// The + 0 reconstructs as the decoder does. A residual that rounds to −0
// steps by twoEB·(−0) = −0 here, while the decoder, dequantizing from a code
// that has no sign, steps by +0; on a −0 prediction the two would give −0
// and +0. (pred + 0) is +0 for a −0 prediction and exact for every other,
// so the sums agree bit for bit and no code, literal or payload byte
// depends on it. It is added to the prediction, not to the step, because
// the prediction is ready long before the step: the add stays off the
// dependency chain through the divide and the round.
//
// dqstep is the dequantizer twin; it is small enough to inline even as a
// shape instantiation.
func dqstep[T grid.Float](c uint32, pred T, twoEB float64, radius int64) T {
	return T(float64(pred) + float64(twoEB*float64(int64(c)-radius)))
}

// literalSize returns the byte width of one exact literal for T.
func literalSize[T grid.Float]() int {
	var zero T
	switch any(zero).(type) {
	case float32:
		return 4
	default:
		return 8
	}
}

// loadLiteral reads one exact literal from the front of b. The caller
// guarantees b holds at least one literal (checkLiterals ran).
func loadLiteral[T grid.Float](b []byte) T {
	var zero T
	switch any(zero).(type) {
	case float32:
		return T(math.Float32frombits(binary.LittleEndian.Uint32(b)))
	default:
		return T(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
}

// checkLiterals verifies once, up front, that the literal pool holds
// enough bytes for every literal marker (code 0) in codes, so the decode
// kernels can consume literals without per-element checks.
func checkLiterals[T grid.Float](codes []uint32, lits []byte) error {
	zeros := 0
	for _, c := range codes {
		if c == 0 {
			zeros++
		}
	}
	if need := zeros * literalSize[T](); need > len(lits) {
		return fmt.Errorf("sz: literal pool holds %d bytes, need %d", len(lits), need)
	}
	return nil
}

// encodeBlock3 runs the boundary-peeled 3D Lorenzo encode over src,
// writing the reconstruction into recon and one code per cell into codes,
// 0 for a literal; both have length d.Count(), and recon's old values are
// never read. The literal pool is the seal's to build (appendLiterals).
func encodeBlock3[T grid.Float](src, recon []T, d grid.Dims, codes []uint32, eb float64, radius int64) {
	nx, ny, nz := d.X, d.Y, d.Z
	if nx == 0 || ny == 0 || nz == 0 {
		return
	}
	twoEB := 2 * eb
	radiusF := float64(radius)
	var zero T
	sy := nz
	sx := ny * nz

	// Every row below follows the same shape: the quantizer body is
	// hand-inlined per element (see the package comment above on gcshape
	// calls), the previous reconstruction rolls through a local so the
	// store queue stays out of the dependency chain, and a literal is only
	// its marker code and its exact value in recon: the loops make no
	// calls and append nothing.

	// x = 0 face: a 2D Lorenzo in (y,z) with the x-side terms absent.
	{
		// Row (0,0,*): the z edge, and the whole of a 1×1×n block.
		row, srcRow, codeRow := recon[:nz], src[:nz], codes[:nz]
		var p T
		for z, v := range srcRow {
			diff := float64(v) - float64(p)
			qv := fastRound(diff / twoEB)
			c, r := uint32(0), v
			if math.Abs(qv) < radiusF {
				if rr := T(float64(p) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
					c, r = uint32(int64(qv)+radius), rr
				}
			}
			codeRow[z], row[z], p = c, r, r
		}
	}
	for y := 1; y < ny; y++ {
		base := y * sy
		row := recon[base : base+nz]
		rowY := recon[base-sy : base]
		srcRow := src[base : base+nz]
		codeRow := codes[base : base+nz]
		var p T
		{
			pred := zero + rowY[0]
			v := srcRow[0]
			diff := float64(v) - float64(pred)
			qv := fastRound(diff / twoEB)
			c, r := uint32(0), v
			if math.Abs(qv) < radiusF {
				if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
					c, r = uint32(int64(qv)+radius), rr
				}
			}
			codeRow[0], row[0], p = c, r, r
		}
		for z := 1; z < nz; z++ {
			pred := zero + rowY[z] + p - rowY[z-1]
			v := srcRow[z]
			diff := float64(v) - float64(pred)
			qv := fastRound(diff / twoEB)
			c, r := uint32(0), v
			if math.Abs(qv) < radiusF {
				if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
					c, r = uint32(int64(qv)+radius), rr
				}
			}
			codeRow[z], row[z], p = c, r, r
		}
	}

	for x := 1; x < nx; x++ {
		pbase := x * sx
		// Row (x,0,*): the y=0 boundary line of this plane.
		{
			row := recon[pbase : pbase+nz]
			rowX := recon[pbase-sx : pbase-sx+nz]
			srcRow := src[pbase : pbase+nz]
			codeRow := codes[pbase : pbase+nz]
			var p T
			{
				pred := rowX[0] + zero
				v := srcRow[0]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				codeRow[0], row[0], p = c, r, r
			}
			for z := 1; z < nz; z++ {
				pred := rowX[z] + zero + p - rowX[z-1]
				v := srcRow[z]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				codeRow[z], row[z], p = c, r, r
			}
		}
		// Interior rows. The per-element work is latency-bound on the
		// reconstruction chain (row[z-1] feeds the next prediction through
		// a divide, a round and two conversions), so rows are processed in
		// wavefront pairs: row y at z and row y+1 at z-2 are independent —
		// row y+1 only reads row y values finished two steps earlier — and
		// the two chains overlap in the pipeline for ~2× the throughput of
		// one. Codes and reconstructions land by index, so the order the
		// pair computes them in is invisible in the output.
		y := 1
		for ; y+1 < ny && nz >= 3; y += 2 {
			baseA := pbase + y*sy
			rowA := recon[baseA : baseA+nz]
			rowAY := recon[baseA-sy : baseA]
			rowAX := recon[baseA-sx : baseA-sx+nz]
			rowAXY := recon[baseA-sx-sy : baseA-sx-sy+nz]
			srcA := src[baseA : baseA+nz]
			codeA := codes[baseA : baseA+nz]
			baseB := baseA + sy
			rowB := recon[baseB : baseB+nz]
			// Row B's y-side neighbors are row A itself (same plane) and
			// rowAX (plane x-1, row y).
			rowBX := recon[baseB-sx : baseB-sx+nz]
			srcB := src[baseB : baseB+nz]
			codeB := codes[baseB : baseB+nz]

			// z = 0 boundary elements and row A's two-step head start.
			{
				pred := rowAX[0] + rowAY[0] + zero - rowAXY[0]
				v := srcA[0]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				codeA[0], rowA[0] = c, r
			}
			{
				pred := rowBX[0] + rowA[0] + zero - rowAX[0]
				v := srcB[0]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				codeB[0], rowB[0] = c, r
			}
			for z := 1; z < 3 && z < nz; z++ {
				pred := rowAX[z] + rowAY[z] + rowA[z-1] - rowAXY[z] - rowAX[z-1] - rowAY[z-1] + rowAXY[z-1]
				v := srcA[z]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				codeA[z], rowA[z] = c, r
			}
			// Steady state: element (y, t) and (y+1, t-2) per iteration,
			// quantizer hand-inlined, no calls, no appends. The previous
			// reconstruction and the z-1 neighbor loads roll through
			// locals, keeping the store queue out of the dependency chain.
			pA, fxA1, fyA1, fxyA1 := rowA[2], rowAX[2], rowAY[2], rowAXY[2]
			pB, fxB1, fyB1, fxyB1 := rowB[0], rowBX[0], rowA[0], rowAX[0]
			for t := 3; t < nz; t++ {
				fxA, fyA, fxyA := rowAX[t], rowAY[t], rowAXY[t]
				predA := fxA + fyA + pA - fxyA - fxA1 - fyA1 + fxyA1
				fxA1, fyA1, fxyA1 = fxA, fyA, fxyA
				vA := srcA[t]
				diffA := float64(vA) - float64(predA)
				qvA := fastRound(diffA / twoEB)
				okA := false
				if math.Abs(qvA) < radiusF {
					r := T(float64(predA) + 0 + float64(twoEB*qvA))
					if math.Abs(float64(vA)-float64(r)) <= eb {
						codeA[t] = uint32(int64(qvA) + radius)
						pA = r
						okA = true
					}
				}
				if !okA {
					codeA[t] = 0
					pA = vA
				}
				rowA[t] = pA

				zb := t - 2
				fxB, fyB, fxyB := rowBX[zb], rowA[zb], rowAX[zb]
				predB := fxB + fyB + pB - fxyB - fxB1 - fyB1 + fxyB1
				fxB1, fyB1, fxyB1 = fxB, fyB, fxyB
				vB := srcB[zb]
				diffB := float64(vB) - float64(predB)
				qvB := fastRound(diffB / twoEB)
				okB := false
				if math.Abs(qvB) < radiusF {
					r := T(float64(predB) + 0 + float64(twoEB*qvB))
					if math.Abs(float64(vB)-float64(r)) <= eb {
						codeB[zb] = uint32(int64(qvB) + radius)
						pB = r
						okB = true
					}
				}
				if !okB {
					codeB[zb] = 0
					pB = vB
				}
				rowB[zb] = pB
			}
			// Row B's two-step tail.
			for zb := nz - 2; zb < nz; zb++ {
				if zb < 1 {
					continue
				}
				pred := rowBX[zb] + rowA[zb] + rowB[zb-1] - rowAX[zb] - rowBX[zb-1] - rowA[zb-1] + rowAX[zb-1]
				v := srcB[zb]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				codeB[zb], rowB[zb] = c, r
			}
		}
		for ; y < ny; y++ {
			base := pbase + y*sy
			row := recon[base : base+nz]
			rowY := recon[base-sy : base]
			rowX := recon[base-sx : base-sx+nz]
			rowXY := recon[base-sx-sy : base-sx-sy+nz]
			srcRow := src[base : base+nz]
			codeRow := codes[base : base+nz]
			var p T
			// z = 0 boundary element of the interior row.
			{
				pred := rowX[0] + rowY[0] + zero - rowXY[0]
				v := srcRow[0]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				codeRow[0], row[0], p = c, r, r
			}
			// Branch-free interior: all seven neighbor loads unconditional.
			for z := 1; z < nz; z++ {
				pred := rowX[z] + rowY[z] + p - rowXY[z] - rowX[z-1] - rowY[z-1] + rowXY[z-1]
				v := srcRow[z]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				codeRow[z], row[z], p = c, r, r
			}
		}
	}
}

// appendLiterals appends to lits the exact value of every literal marker
// (code 0) in codes, in code order: the literal pool a decoder of codes
// reads. src holds the values coded, block after block, each
// len(codes)/len(src) of them. The kernels write codes only; this one pass,
// run by the seal once the Huffman count has found a marker in the stream,
// builds every pool.
func appendLiterals[T grid.Float](lits []byte, codes []uint32, src []*grid.Grid3[T]) []byte {
	per := len(codes) / len(src)
	for b, g := range src {
		codes := codes[b*per : (b+1)*per]
		switch data := any(g.Data[:per]).(type) {
		case []float32:
			for i, c := range codes {
				if c == 0 {
					lits = binary.LittleEndian.AppendUint32(lits, math.Float32bits(data[i]))
				}
			}
		case []float64:
			for i, c := range codes {
				if c == 0 {
					lits = binary.LittleEndian.AppendUint64(lits, math.Float64bits(data[i]))
				}
			}
		}
	}
	return lits
}

// decodeBlock3 is the decode twin of encodeBlock3: it reconstructs out
// (length d.Count()) from one code per cell, consuming literals from the
// front of lits. The caller has pre-validated the code count and literal
// pool (litOffsets, or checkLiterals for Reconstruct3D), so there are no
// per-element error paths. It returns the literal bytes consumed.
func decodeBlock3[T grid.Float](out []T, d grid.Dims, codes []uint32, lits []byte, twoEB float64, radius int64) int {
	nx, ny, nz := d.X, d.Y, d.Z
	if nx == 0 || ny == 0 || nz == 0 {
		return 0
	}
	litSize := literalSize[T]()
	lp := 0
	var zero T
	sy := nz
	sx := ny * nz

	{
		row, codeRow := out[:nz], codes[:nz]
		var p T
		for z, c := range codeRow {
			if c != 0 {
				p = dqstep(c, p, twoEB, radius)
			} else {
				p = loadLiteral[T](lits[lp:])
				lp += litSize
			}
			row[z] = p
		}
	}
	for y := 1; y < ny; y++ {
		base := y * sy
		row := out[base : base+nz]
		rowY := out[base-sy : base]
		codeRow := codes[base : base+nz]
		if c := codeRow[0]; c != 0 {
			row[0] = dqstep(c, zero+rowY[0], twoEB, radius)
		} else {
			row[0] = loadLiteral[T](lits[lp:])
			lp += litSize
		}
		for z := 1; z < nz; z++ {
			if c := codeRow[z]; c != 0 {
				pred := zero + rowY[z] + row[z-1] - rowY[z-1]
				row[z] = dqstep(c, pred, twoEB, radius)
			} else {
				row[z] = loadLiteral[T](lits[lp:])
				lp += litSize
			}
		}
	}

	for x := 1; x < nx; x++ {
		pbase := x * sx
		{
			row := out[pbase : pbase+nz]
			rowX := out[pbase-sx : pbase-sx+nz]
			codeRow := codes[pbase : pbase+nz]
			if c := codeRow[0]; c != 0 {
				row[0] = dqstep(c, rowX[0]+zero, twoEB, radius)
			} else {
				row[0] = loadLiteral[T](lits[lp:])
				lp += litSize
			}
			for z := 1; z < nz; z++ {
				if c := codeRow[z]; c != 0 {
					pred := rowX[z] + zero + row[z-1] - rowX[z-1]
					row[z] = dqstep(c, pred, twoEB, radius)
				} else {
					row[z] = loadLiteral[T](lits[lp:])
					lp += litSize
				}
			}
		}
		// Interior rows decode in the same wavefront pairs as the encode
		// kernel (see encodeBlock3): row y at t and row y+1 at t-2 form two
		// independent reconstruction chains. The literal pool is consumed
		// in scan order, so each row gets its own cursor — row y+1's
		// starts after every literal marker of row y, counted up front
		// from the code rows.
		y := 1
		for ; y+1 < ny && nz >= 3; y += 2 {
			baseA := pbase + y*sy
			rowA := out[baseA : baseA+nz]
			rowAY := out[baseA-sy : baseA]
			rowAX := out[baseA-sx : baseA-sx+nz]
			rowAXY := out[baseA-sx-sy : baseA-sx-sy+nz]
			codeA := codes[baseA : baseA+nz]
			baseB := baseA + sy
			rowB := out[baseB : baseB+nz]
			rowBX := out[baseB-sx : baseB-sx+nz]
			codeB := codes[baseB : baseB+nz]

			zerosA, zerosB := 0, 0
			for _, c := range codeA {
				if c == 0 {
					zerosA++
				}
			}
			for _, c := range codeB {
				if c == 0 {
					zerosB++
				}
			}
			lpA := lp
			lpB := lp + zerosA*litSize
			lp = lpB + zerosB*litSize

			if c := codeA[0]; c != 0 {
				rowA[0] = dqstep(c, rowAX[0]+rowAY[0]+zero-rowAXY[0], twoEB, radius)
			} else {
				rowA[0] = loadLiteral[T](lits[lpA:])
				lpA += litSize
			}
			if c := codeB[0]; c != 0 {
				rowB[0] = dqstep(c, rowBX[0]+rowA[0]+zero-rowAX[0], twoEB, radius)
			} else {
				rowB[0] = loadLiteral[T](lits[lpB:])
				lpB += litSize
			}
			for z := 1; z < 3 && z < nz; z++ {
				if c := codeA[z]; c != 0 {
					pred := rowAX[z] + rowAY[z] + rowA[z-1] - rowAXY[z] - rowAX[z-1] - rowAY[z-1] + rowAXY[z-1]
					rowA[z] = dqstep(c, pred, twoEB, radius)
				} else {
					rowA[z] = loadLiteral[T](lits[lpA:])
					lpA += litSize
				}
			}
			pA, fxA1, fyA1, fxyA1 := rowA[2], rowAX[2], rowAY[2], rowAXY[2]
			pB, fxB1, fyB1, fxyB1 := rowB[0], rowBX[0], rowA[0], rowAX[0]
			for t := 3; t < nz; t++ {
				fxA, fyA, fxyA := rowAX[t], rowAY[t], rowAXY[t]
				if c := codeA[t]; c != 0 {
					pred := fxA + fyA + pA - fxyA - fxA1 - fyA1 + fxyA1
					pA = dqstep(c, pred, twoEB, radius)
				} else {
					pA = loadLiteral[T](lits[lpA:])
					lpA += litSize
				}
				rowA[t] = pA
				fxA1, fyA1, fxyA1 = fxA, fyA, fxyA

				zb := t - 2
				fxB, fyB, fxyB := rowBX[zb], rowA[zb], rowAX[zb]
				if c := codeB[zb]; c != 0 {
					pred := fxB + fyB + pB - fxyB - fxB1 - fyB1 + fxyB1
					pB = dqstep(c, pred, twoEB, radius)
				} else {
					pB = loadLiteral[T](lits[lpB:])
					lpB += litSize
				}
				rowB[zb] = pB
				fxB1, fyB1, fxyB1 = fxB, fyB, fxyB
			}
			for zb := nz - 2; zb < nz; zb++ {
				if zb < 1 {
					continue
				}
				if c := codeB[zb]; c != 0 {
					pred := rowBX[zb] + rowA[zb] + rowB[zb-1] - rowAX[zb] - rowBX[zb-1] - rowA[zb-1] + rowAX[zb-1]
					rowB[zb] = dqstep(c, pred, twoEB, radius)
				} else {
					rowB[zb] = loadLiteral[T](lits[lpB:])
					lpB += litSize
				}
			}
		}
		for ; y < ny; y++ {
			base := pbase + y*sy
			row := out[base : base+nz]
			rowY := out[base-sy : base]
			rowX := out[base-sx : base-sx+nz]
			rowXY := out[base-sx-sy : base-sx-sy+nz]
			codeRow := codes[base : base+nz]
			if c := codeRow[0]; c != 0 {
				row[0] = dqstep(c, rowX[0]+rowY[0]+zero-rowXY[0], twoEB, radius)
			} else {
				row[0] = loadLiteral[T](lits[lp:])
				lp += litSize
			}
			for z := 1; z < nz; z++ {
				if c := codeRow[z]; c != 0 {
					pred := rowX[z] + rowY[z] + row[z-1] - rowXY[z] - rowX[z-1] - rowY[z-1] + rowXY[z-1]
					row[z] = dqstep(c, pred, twoEB, radius)
				} else {
					row[z] = loadLiteral[T](lits[lp:])
					lp += litSize
				}
			}
		}
	}
	return lp
}

// quantRadius maps QuantBits to the code-space radius the kernels use.
func quantRadius(quantBits int) int64 { return int64(1) << (quantBits - 1) }

// Predict3D runs only the Lorenzo prediction/quantization stage over g —
// the entropy and DEFLATE stages are skipped — returning the quantization
// codes, literal pool and literal count. The returned slices alias the
// encoder's scratch and stay valid until its next call; the predictor
// benchmarks use this to measure the kernel in isolation.
func (e *Encoder[T]) Predict3D(g *grid.Grid3[T], opts Options) ([]uint32, []byte, int, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, nil, 0, err
	}
	codes := e.codesBuf(len(g.Data))
	recon := e.reconSlab(len(g.Data))
	encodeBlock3(g.Data, recon, g.Dim, codes, opts.ErrorBound, quantRadius(opts.QuantBits))
	lits := appendLiterals(e.lits[:0], codes, []*grid.Grid3[T]{g})
	e.lits = lits[:0]
	return codes, lits, len(lits) / literalSize[T](), nil
}

// Reconstruct3D inverts Predict3D into out, which supplies the geometry.
// opts must carry the same (effective) ErrorBound and QuantBits the codes
// were produced with; the code count and literal pool are validated once
// before the branch-free kernel runs.
func Reconstruct3D[T grid.Float](out *grid.Grid3[T], codes []uint32, lits []byte, opts Options) error {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return err
	}
	if len(codes) != out.Dim.Count() {
		return fmt.Errorf("sz: %d codes for %d values", len(codes), out.Dim.Count())
	}
	if err := checkLiterals[T](codes, lits); err != nil {
		return err
	}
	decodeBlock3(out.Data, out.Dim, codes, lits, 2*opts.ErrorBound, quantRadius(opts.QuantBits))
	return nil
}

// ExtractCodesInto is ExtractCodes on a pooled decoder (benchmarks use it
// to isolate the entropy stage without allocation noise).
func ExtractCodesInto[T grid.Float](d *Decoder[T], blob []byte) error {
	_, _, _, err := d.unseal(blob, -1)
	return err
}
