package sz

import (
	"math"

	"repro/internal/grid"
)

// Quad-block kernels. The blocks of a batch never see each other's
// reconstructions, so their dependency chains are fully independent; the
// batch paths exploit that by walking four same-shaped blocks in lock
// step, one element position per iteration with four hand-unrolled
// bodies. Unlike the within-block wavefront in kernel.go — which only
// overlaps two chains and only in row interiors — the quad walk gets
// four-chain instruction-level parallelism on every element including
// the boundary planes, which dominate the small unit blocks the AMR
// extraction produces. The per-element arithmetic is identical to the
// single-block kernels (same formulas, same evaluation order), so
// payloads and reconstructions stay bit-identical; the golden tests and
// the batch-equivalence suite pin that.
//
// Literal-pool ordering: the pool is laid out block after block. The
// encode side writes codes only (the seal builds the pool, appendLiterals),
// and the decode side reads through four absolute cursors precomputed from
// the per-block literal counts (the litOff scan).

// encodeBlockQuad encodes four same-shaped blocks in lock step. The recon
// and code slices must all have length d.Count().
func encodeBlockQuad[T grid.Float](s0, s1, s2, s3, r0, r1, r2, r3 []T, d grid.Dims, c0, c1, c2, c3 []uint32, eb float64, radius int64) {
	nx, ny, nz := d.X, d.Y, d.Z
	if nx == 0 || ny == 0 || nz == 0 {
		return
	}
	twoEB := 2 * eb
	radiusF := float64(radius)
	var zero T
	sy := nz
	sx := ny * nz

	var p0, p1, p2, p3 T

	// Row (0,0,*).
	{
		{
			v := s0[0]
			diff := float64(v) - float64(zero)
			qv := fastRound(diff / twoEB)
			c, r := uint32(0), v
			if math.Abs(qv) < radiusF {
				if rr := T(float64(zero) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
					c, r = uint32(int64(qv)+radius), rr
				}
			}
			c0[0], r0[0], p0 = c, r, r
		}
		{
			v := s1[0]
			diff := float64(v) - float64(zero)
			qv := fastRound(diff / twoEB)
			c, r := uint32(0), v
			if math.Abs(qv) < radiusF {
				if rr := T(float64(zero) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
					c, r = uint32(int64(qv)+radius), rr
				}
			}
			c1[0], r1[0], p1 = c, r, r
		}
		{
			v := s2[0]
			diff := float64(v) - float64(zero)
			qv := fastRound(diff / twoEB)
			c, r := uint32(0), v
			if math.Abs(qv) < radiusF {
				if rr := T(float64(zero) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
					c, r = uint32(int64(qv)+radius), rr
				}
			}
			c2[0], r2[0], p2 = c, r, r
		}
		{
			v := s3[0]
			diff := float64(v) - float64(zero)
			qv := fastRound(diff / twoEB)
			c, r := uint32(0), v
			if math.Abs(qv) < radiusF {
				if rr := T(float64(zero) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
					c, r = uint32(int64(qv)+radius), rr
				}
			}
			c3[0], r3[0], p3 = c, r, r
		}
		for z := 1; z < nz; z++ {
			{
				pred := zero + p0
				v := s0[z]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c0[z], r0[z], p0 = c, r, r
			}
			{
				pred := zero + p1
				v := s1[z]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c1[z], r1[z], p1 = c, r, r
			}
			{
				pred := zero + p2
				v := s2[z]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c2[z], r2[z], p2 = c, r, r
			}
			{
				pred := zero + p3
				v := s3[z]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c3[z], r3[z], p3 = c, r, r
			}
		}
	}

	// Rows (0,y,*): the rest of the x=0 face.
	for y := 1; y < ny; y++ {
		base := y * sy
		{
			pred := zero + r0[base-sy]
			v := s0[base]
			diff := float64(v) - float64(pred)
			qv := fastRound(diff / twoEB)
			c, r := uint32(0), v
			if math.Abs(qv) < radiusF {
				if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
					c, r = uint32(int64(qv)+radius), rr
				}
			}
			c0[base], r0[base], p0 = c, r, r
		}
		{
			pred := zero + r1[base-sy]
			v := s1[base]
			diff := float64(v) - float64(pred)
			qv := fastRound(diff / twoEB)
			c, r := uint32(0), v
			if math.Abs(qv) < radiusF {
				if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
					c, r = uint32(int64(qv)+radius), rr
				}
			}
			c1[base], r1[base], p1 = c, r, r
		}
		{
			pred := zero + r2[base-sy]
			v := s2[base]
			diff := float64(v) - float64(pred)
			qv := fastRound(diff / twoEB)
			c, r := uint32(0), v
			if math.Abs(qv) < radiusF {
				if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
					c, r = uint32(int64(qv)+radius), rr
				}
			}
			c2[base], r2[base], p2 = c, r, r
		}
		{
			pred := zero + r3[base-sy]
			v := s3[base]
			diff := float64(v) - float64(pred)
			qv := fastRound(diff / twoEB)
			c, r := uint32(0), v
			if math.Abs(qv) < radiusF {
				if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
					c, r = uint32(int64(qv)+radius), rr
				}
			}
			c3[base], r3[base], p3 = c, r, r
		}
		for z := 1; z < nz; z++ {
			i := base + z
			{
				pred := zero + r0[i-sy] + p0 - r0[i-sy-1]
				v := s0[i]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c0[i], r0[i], p0 = c, r, r
			}
			{
				pred := zero + r1[i-sy] + p1 - r1[i-sy-1]
				v := s1[i]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c1[i], r1[i], p1 = c, r, r
			}
			{
				pred := zero + r2[i-sy] + p2 - r2[i-sy-1]
				v := s2[i]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c2[i], r2[i], p2 = c, r, r
			}
			{
				pred := zero + r3[i-sy] + p3 - r3[i-sy-1]
				v := s3[i]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c3[i], r3[i], p3 = c, r, r
			}
		}
	}

	for x := 1; x < nx; x++ {
		pbase := x * sx
		// Row (x,0,*).
		{
			{
				pred := r0[pbase-sx] + zero
				v := s0[pbase]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c0[pbase], r0[pbase], p0 = c, r, r
			}
			{
				pred := r1[pbase-sx] + zero
				v := s1[pbase]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c1[pbase], r1[pbase], p1 = c, r, r
			}
			{
				pred := r2[pbase-sx] + zero
				v := s2[pbase]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c2[pbase], r2[pbase], p2 = c, r, r
			}
			{
				pred := r3[pbase-sx] + zero
				v := s3[pbase]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c3[pbase], r3[pbase], p3 = c, r, r
			}
			for z := 1; z < nz; z++ {
				i := pbase + z
				{
					pred := r0[i-sx] + zero + p0 - r0[i-sx-1]
					v := s0[i]
					diff := float64(v) - float64(pred)
					qv := fastRound(diff / twoEB)
					c, r := uint32(0), v
					if math.Abs(qv) < radiusF {
						if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
							c, r = uint32(int64(qv)+radius), rr
						}
					}
					c0[i], r0[i], p0 = c, r, r
				}
				{
					pred := r1[i-sx] + zero + p1 - r1[i-sx-1]
					v := s1[i]
					diff := float64(v) - float64(pred)
					qv := fastRound(diff / twoEB)
					c, r := uint32(0), v
					if math.Abs(qv) < radiusF {
						if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
							c, r = uint32(int64(qv)+radius), rr
						}
					}
					c1[i], r1[i], p1 = c, r, r
				}
				{
					pred := r2[i-sx] + zero + p2 - r2[i-sx-1]
					v := s2[i]
					diff := float64(v) - float64(pred)
					qv := fastRound(diff / twoEB)
					c, r := uint32(0), v
					if math.Abs(qv) < radiusF {
						if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
							c, r = uint32(int64(qv)+radius), rr
						}
					}
					c2[i], r2[i], p2 = c, r, r
				}
				{
					pred := r3[i-sx] + zero + p3 - r3[i-sx-1]
					v := s3[i]
					diff := float64(v) - float64(pred)
					qv := fastRound(diff / twoEB)
					c, r := uint32(0), v
					if math.Abs(qv) < radiusF {
						if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
							c, r = uint32(int64(qv)+radius), rr
						}
					}
					c3[i], r3[i], p3 = c, r, r
				}
			}
		}
		// Rows (x,y,*): interior rows of the plane.
		for y := 1; y < ny; y++ {
			base := pbase + y*sy
			{
				pred := r0[base-sx] + r0[base-sy] + zero - r0[base-sx-sy]
				v := s0[base]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c0[base], r0[base], p0 = c, r, r
			}
			{
				pred := r1[base-sx] + r1[base-sy] + zero - r1[base-sx-sy]
				v := s1[base]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c1[base], r1[base], p1 = c, r, r
			}
			{
				pred := r2[base-sx] + r2[base-sy] + zero - r2[base-sx-sy]
				v := s2[base]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c2[base], r2[base], p2 = c, r, r
			}
			{
				pred := r3[base-sx] + r3[base-sy] + zero - r3[base-sx-sy]
				v := s3[base]
				diff := float64(v) - float64(pred)
				qv := fastRound(diff / twoEB)
				c, r := uint32(0), v
				if math.Abs(qv) < radiusF {
					if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
						c, r = uint32(int64(qv)+radius), rr
					}
				}
				c3[base], r3[base], p3 = c, r, r
			}
			for z := 1; z < nz; z++ {
				i := base + z
				{
					pred := r0[i-sx] + r0[i-sy] + p0 - r0[i-sx-sy] - r0[i-sx-1] - r0[i-sy-1] + r0[i-sx-sy-1]
					v := s0[i]
					diff := float64(v) - float64(pred)
					qv := fastRound(diff / twoEB)
					c, r := uint32(0), v
					if math.Abs(qv) < radiusF {
						if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
							c, r = uint32(int64(qv)+radius), rr
						}
					}
					c0[i], r0[i], p0 = c, r, r
				}
				{
					pred := r1[i-sx] + r1[i-sy] + p1 - r1[i-sx-sy] - r1[i-sx-1] - r1[i-sy-1] + r1[i-sx-sy-1]
					v := s1[i]
					diff := float64(v) - float64(pred)
					qv := fastRound(diff / twoEB)
					c, r := uint32(0), v
					if math.Abs(qv) < radiusF {
						if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
							c, r = uint32(int64(qv)+radius), rr
						}
					}
					c1[i], r1[i], p1 = c, r, r
				}
				{
					pred := r2[i-sx] + r2[i-sy] + p2 - r2[i-sx-sy] - r2[i-sx-1] - r2[i-sy-1] + r2[i-sx-sy-1]
					v := s2[i]
					diff := float64(v) - float64(pred)
					qv := fastRound(diff / twoEB)
					c, r := uint32(0), v
					if math.Abs(qv) < radiusF {
						if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
							c, r = uint32(int64(qv)+radius), rr
						}
					}
					c2[i], r2[i], p2 = c, r, r
				}
				{
					pred := r3[i-sx] + r3[i-sy] + p3 - r3[i-sx-sy] - r3[i-sx-1] - r3[i-sy-1] + r3[i-sx-sy-1]
					v := s3[i]
					diff := float64(v) - float64(pred)
					qv := fastRound(diff / twoEB)
					c, r := uint32(0), v
					if math.Abs(qv) < radiusF {
						if rr := T(float64(pred) + 0 + float64(twoEB*qv)); math.Abs(float64(v)-float64(rr)) <= eb {
							c, r = uint32(int64(qv)+radius), rr
						}
					}
					c3[i], r3[i], p3 = c, r, r
				}
			}
		}
	}
}

// decodeBlockQuad decodes four same-shaped blocks in lock step. The
// literal cursors l0..l3 are absolute offsets into lits, precomputed by
// the caller's litOff scan (which also validated the pool size).
func decodeBlockQuad[T grid.Float](o0, o1, o2, o3 []T, d grid.Dims, c0, c1, c2, c3 []uint32, lits []byte, l0, l1, l2, l3 int, twoEB float64, radius int64) {
	nx, ny, nz := d.X, d.Y, d.Z
	if nx == 0 || ny == 0 || nz == 0 {
		return
	}
	litSize := literalSize[T]()
	var zero T
	sy := nz
	sx := ny * nz

	var p0, p1, p2, p3 T

	// Row (0,0,*).
	{
		if c := c0[0]; c != 0 {
			p0 = dqstep(c, zero, twoEB, radius)
		} else {
			p0 = loadLiteral[T](lits[l0:])
			l0 += litSize
		}
		o0[0] = p0
		if c := c1[0]; c != 0 {
			p1 = dqstep(c, zero, twoEB, radius)
		} else {
			p1 = loadLiteral[T](lits[l1:])
			l1 += litSize
		}
		o1[0] = p1
		if c := c2[0]; c != 0 {
			p2 = dqstep(c, zero, twoEB, radius)
		} else {
			p2 = loadLiteral[T](lits[l2:])
			l2 += litSize
		}
		o2[0] = p2
		if c := c3[0]; c != 0 {
			p3 = dqstep(c, zero, twoEB, radius)
		} else {
			p3 = loadLiteral[T](lits[l3:])
			l3 += litSize
		}
		o3[0] = p3
		for z := 1; z < nz; z++ {
			if c := c0[z]; c != 0 {
				p0 = dqstep(c, zero+p0, twoEB, radius)
			} else {
				p0 = loadLiteral[T](lits[l0:])
				l0 += litSize
			}
			o0[z] = p0
			if c := c1[z]; c != 0 {
				p1 = dqstep(c, zero+p1, twoEB, radius)
			} else {
				p1 = loadLiteral[T](lits[l1:])
				l1 += litSize
			}
			o1[z] = p1
			if c := c2[z]; c != 0 {
				p2 = dqstep(c, zero+p2, twoEB, radius)
			} else {
				p2 = loadLiteral[T](lits[l2:])
				l2 += litSize
			}
			o2[z] = p2
			if c := c3[z]; c != 0 {
				p3 = dqstep(c, zero+p3, twoEB, radius)
			} else {
				p3 = loadLiteral[T](lits[l3:])
				l3 += litSize
			}
			o3[z] = p3
		}
	}

	// Rows (0,y,*).
	for y := 1; y < ny; y++ {
		base := y * sy
		if c := c0[base]; c != 0 {
			p0 = dqstep(c, zero+o0[base-sy], twoEB, radius)
		} else {
			p0 = loadLiteral[T](lits[l0:])
			l0 += litSize
		}
		o0[base] = p0
		if c := c1[base]; c != 0 {
			p1 = dqstep(c, zero+o1[base-sy], twoEB, radius)
		} else {
			p1 = loadLiteral[T](lits[l1:])
			l1 += litSize
		}
		o1[base] = p1
		if c := c2[base]; c != 0 {
			p2 = dqstep(c, zero+o2[base-sy], twoEB, radius)
		} else {
			p2 = loadLiteral[T](lits[l2:])
			l2 += litSize
		}
		o2[base] = p2
		if c := c3[base]; c != 0 {
			p3 = dqstep(c, zero+o3[base-sy], twoEB, radius)
		} else {
			p3 = loadLiteral[T](lits[l3:])
			l3 += litSize
		}
		o3[base] = p3
		for z := 1; z < nz; z++ {
			i := base + z
			if c := c0[i]; c != 0 {
				pred := zero + o0[i-sy] + p0 - o0[i-sy-1]
				p0 = dqstep(c, pred, twoEB, radius)
			} else {
				p0 = loadLiteral[T](lits[l0:])
				l0 += litSize
			}
			o0[i] = p0
			if c := c1[i]; c != 0 {
				pred := zero + o1[i-sy] + p1 - o1[i-sy-1]
				p1 = dqstep(c, pred, twoEB, radius)
			} else {
				p1 = loadLiteral[T](lits[l1:])
				l1 += litSize
			}
			o1[i] = p1
			if c := c2[i]; c != 0 {
				pred := zero + o2[i-sy] + p2 - o2[i-sy-1]
				p2 = dqstep(c, pred, twoEB, radius)
			} else {
				p2 = loadLiteral[T](lits[l2:])
				l2 += litSize
			}
			o2[i] = p2
			if c := c3[i]; c != 0 {
				pred := zero + o3[i-sy] + p3 - o3[i-sy-1]
				p3 = dqstep(c, pred, twoEB, radius)
			} else {
				p3 = loadLiteral[T](lits[l3:])
				l3 += litSize
			}
			o3[i] = p3
		}
	}

	for x := 1; x < nx; x++ {
		pbase := x * sx
		// Row (x,0,*).
		{
			if c := c0[pbase]; c != 0 {
				p0 = dqstep(c, o0[pbase-sx]+zero, twoEB, radius)
			} else {
				p0 = loadLiteral[T](lits[l0:])
				l0 += litSize
			}
			o0[pbase] = p0
			if c := c1[pbase]; c != 0 {
				p1 = dqstep(c, o1[pbase-sx]+zero, twoEB, radius)
			} else {
				p1 = loadLiteral[T](lits[l1:])
				l1 += litSize
			}
			o1[pbase] = p1
			if c := c2[pbase]; c != 0 {
				p2 = dqstep(c, o2[pbase-sx]+zero, twoEB, radius)
			} else {
				p2 = loadLiteral[T](lits[l2:])
				l2 += litSize
			}
			o2[pbase] = p2
			if c := c3[pbase]; c != 0 {
				p3 = dqstep(c, o3[pbase-sx]+zero, twoEB, radius)
			} else {
				p3 = loadLiteral[T](lits[l3:])
				l3 += litSize
			}
			o3[pbase] = p3
			for z := 1; z < nz; z++ {
				i := pbase + z
				if c := c0[i]; c != 0 {
					pred := o0[i-sx] + zero + p0 - o0[i-sx-1]
					p0 = dqstep(c, pred, twoEB, radius)
				} else {
					p0 = loadLiteral[T](lits[l0:])
					l0 += litSize
				}
				o0[i] = p0
				if c := c1[i]; c != 0 {
					pred := o1[i-sx] + zero + p1 - o1[i-sx-1]
					p1 = dqstep(c, pred, twoEB, radius)
				} else {
					p1 = loadLiteral[T](lits[l1:])
					l1 += litSize
				}
				o1[i] = p1
				if c := c2[i]; c != 0 {
					pred := o2[i-sx] + zero + p2 - o2[i-sx-1]
					p2 = dqstep(c, pred, twoEB, radius)
				} else {
					p2 = loadLiteral[T](lits[l2:])
					l2 += litSize
				}
				o2[i] = p2
				if c := c3[i]; c != 0 {
					pred := o3[i-sx] + zero + p3 - o3[i-sx-1]
					p3 = dqstep(c, pred, twoEB, radius)
				} else {
					p3 = loadLiteral[T](lits[l3:])
					l3 += litSize
				}
				o3[i] = p3
			}
		}
		// Rows (x,y,*).
		for y := 1; y < ny; y++ {
			base := pbase + y*sy
			if c := c0[base]; c != 0 {
				pred := o0[base-sx] + o0[base-sy] + zero - o0[base-sx-sy]
				p0 = dqstep(c, pred, twoEB, radius)
			} else {
				p0 = loadLiteral[T](lits[l0:])
				l0 += litSize
			}
			o0[base] = p0
			if c := c1[base]; c != 0 {
				pred := o1[base-sx] + o1[base-sy] + zero - o1[base-sx-sy]
				p1 = dqstep(c, pred, twoEB, radius)
			} else {
				p1 = loadLiteral[T](lits[l1:])
				l1 += litSize
			}
			o1[base] = p1
			if c := c2[base]; c != 0 {
				pred := o2[base-sx] + o2[base-sy] + zero - o2[base-sx-sy]
				p2 = dqstep(c, pred, twoEB, radius)
			} else {
				p2 = loadLiteral[T](lits[l2:])
				l2 += litSize
			}
			o2[base] = p2
			if c := c3[base]; c != 0 {
				pred := o3[base-sx] + o3[base-sy] + zero - o3[base-sx-sy]
				p3 = dqstep(c, pred, twoEB, radius)
			} else {
				p3 = loadLiteral[T](lits[l3:])
				l3 += litSize
			}
			o3[base] = p3
			for z := 1; z < nz; z++ {
				i := base + z
				if c := c0[i]; c != 0 {
					pred := o0[i-sx] + o0[i-sy] + p0 - o0[i-sx-sy] - o0[i-sx-1] - o0[i-sy-1] + o0[i-sx-sy-1]
					p0 = dqstep(c, pred, twoEB, radius)
				} else {
					p0 = loadLiteral[T](lits[l0:])
					l0 += litSize
				}
				o0[i] = p0
				if c := c1[i]; c != 0 {
					pred := o1[i-sx] + o1[i-sy] + p1 - o1[i-sx-sy] - o1[i-sx-1] - o1[i-sy-1] + o1[i-sx-sy-1]
					p1 = dqstep(c, pred, twoEB, radius)
				} else {
					p1 = loadLiteral[T](lits[l1:])
					l1 += litSize
				}
				o1[i] = p1
				if c := c2[i]; c != 0 {
					pred := o2[i-sx] + o2[i-sy] + p2 - o2[i-sx-sy] - o2[i-sx-1] - o2[i-sy-1] + o2[i-sx-sy-1]
					p2 = dqstep(c, pred, twoEB, radius)
				} else {
					p2 = loadLiteral[T](lits[l2:])
					l2 += litSize
				}
				o2[i] = p2
				if c := c3[i]; c != 0 {
					pred := o3[i-sx] + o3[i-sy] + p3 - o3[i-sx-sy] - o3[i-sx-1] - o3[i-sy-1] + o3[i-sx-sy-1]
					p3 = dqstep(c, pred, twoEB, radius)
				} else {
					p3 = loadLiteral[T](lits[l3:])
					l3 += litSize
				}
				o3[i] = p3
			}
		}
	}
}
