package sz

import (
	"errors"
	"math"

	"repro/internal/grid"
)

// The scalar reference implementations of the Lorenzo kernels and of the
// quantization step: kernel_test.go, simd_test.go, temporal_test.go and the
// kernel benchmarks hold the production kernels to them.

// encodeLorenzo3Ref is the retained scalar reference implementation of
// the 3D Lorenzo encode: per-element branchy prediction through
// lorenzoPred and append-grown codes through quantizer.encode. Production
// paths run the boundary-peeled kernels in kernel.go; the equivalence
// suite in kernel_test.go compares the two element-for-element.
func encodeLorenzo3Ref[T grid.Float](src, recon *grid.Grid3[T], q *quantizer[T]) {
	d := src.Dim
	sy := d.Z
	sx := d.Y * d.Z
	for x := 0; x < d.X; x++ {
		for y := 0; y < d.Y; y++ {
			base := d.Index(x, y, 0)
			for z := 0; z < d.Z; z++ {
				i := base + z
				pred := lorenzoPred(recon.Data, i, x, y, z, sx, sy)
				recon.Data[i] = q.encode(src.Data[i], pred)
			}
		}
	}
}

// decodeLorenzo3Ref is the retained scalar reference decode (see
// encodeLorenzo3Ref).
func decodeLorenzo3Ref[T grid.Float](out *grid.Grid3[T], dq *dequantizer[T]) error {
	d := out.Dim
	sy := d.Z
	sx := d.Y * d.Z
	for x := 0; x < d.X; x++ {
		for y := 0; y < d.Y; y++ {
			base := d.Index(x, y, 0)
			for z := 0; z < d.Z; z++ {
				i := base + z
				pred := lorenzoPred(out.Data, i, x, y, z, sx, sy)
				v, err := dq.decode(pred)
				if err != nil {
					return err
				}
				out.Data[i] = v
			}
		}
	}
	return nil
}

// lorenzoPred computes the order-1 3D Lorenzo prediction from the seven
// already-visited cube-corner neighbors, treating out-of-grid neighbors as
// zero (standard SZ boundary handling).
func lorenzoPred[T grid.Float](data []T, i, x, y, z, sx, sy int) T {
	var fx, fy, fz, fxy, fxz, fyz, fxyz T
	if x > 0 {
		fx = data[i-sx]
	}
	if y > 0 {
		fy = data[i-sy]
	}
	if z > 0 {
		fz = data[i-1]
	}
	if x > 0 && y > 0 {
		fxy = data[i-sx-sy]
	}
	if x > 0 && z > 0 {
		fxz = data[i-sx-1]
	}
	if y > 0 && z > 0 {
		fyz = data[i-sy-1]
	}
	if x > 0 && y > 0 && z > 0 {
		fxyz = data[i-sx-sy-1]
	}
	return fx + fy + fz - fxy - fxz - fyz + fxyz
}

// quantizer turns (value, prediction) pairs into quantization codes plus a
// literal pool, reconstructing each value as it goes. It is the retained
// reference implementation of the quantization step; production paths run
// the inlined qstep in kernel.go, which mirrors encode exactly.
type quantizer[T grid.Float] struct {
	eb     float64
	twoEB  float64
	radius int64
	codes  []uint32
	lits   []byte
	nlit   int
}

func newQuantizer[T grid.Float](eb float64, quantBits int) *quantizer[T] {
	return &quantizer[T]{
		eb:     eb,
		twoEB:  2 * eb,
		radius: int64(1) << (quantBits - 1),
	}
}

// encode emits the code for v given prediction pred and returns the
// reconstructed value the decompressor will produce.
func (q *quantizer[T]) encode(v, pred T) T {
	diff := float64(v) - float64(pred)
	qv := math.Round(diff / q.twoEB)
	// Range-check before the int conversion: conversions of out-of-range
	// floats to int64 are implementation-dependent in Go.
	if math.Abs(qv) < float64(q.radius) {
		iq := int64(qv)
		recon := T(float64(pred) + 0 + float64(q.twoEB*qv)) // + 0: kernel.go, dqstep
		if math.Abs(float64(v)-float64(recon)) <= q.eb {
			q.codes = append(q.codes, uint32(iq+q.radius))
			return recon
		}
	}
	// Unpredictable: code 0 marks a literal stored exactly.
	q.codes = append(q.codes, 0)
	q.lits = appendLiteral(q.lits, v)
	q.nlit++
	return v
}

// appendLiteral stores the exact bit pattern of v, one literal at a time,
// as the reference quantizer meets them (production builds a pool in one
// pass, appendLiterals).
func appendLiteral[T grid.Float](dst []byte, v T) []byte {
	switch x := any(v).(type) {
	case float32:
		b := math.Float32bits(x)
		return append(dst, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
	case float64:
		b := math.Float64bits(x)
		return append(dst, byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
			byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
	default:
		panic("sz: unsupported float type")
	}
}

// dequantizer replays a code stream plus literal pool (reference
// implementation; production decode runs the pre-validated kernels).
type dequantizer[T grid.Float] struct {
	twoEB  float64
	radius int64
	codes  []uint32
	lits   []byte
	ci     int
}

func (d *dequantizer[T]) decode(pred T) (T, error) {
	if d.ci >= len(d.codes) {
		return 0, errors.New("sz: code stream exhausted")
	}
	c := d.codes[d.ci]
	d.ci++
	if c == 0 {
		v, rest, err := takeLiteral[T](d.lits)
		if err != nil {
			return 0, err
		}
		d.lits = rest
		return v, nil
	}
	qv := int64(c) - d.radius
	return T(float64(pred) + float64(d.twoEB*float64(qv))), nil
}

func takeLiteral[T grid.Float](src []byte) (T, []byte, error) {
	var zero T
	switch any(zero).(type) {
	case float32:
		if len(src) < 4 {
			return 0, nil, errors.New("sz: literal pool exhausted")
		}
		b := uint32(src[0]) | uint32(src[1])<<8 | uint32(src[2])<<16 | uint32(src[3])<<24
		return T(math.Float32frombits(b)), src[4:], nil
	case float64:
		if len(src) < 8 {
			return 0, nil, errors.New("sz: literal pool exhausted")
		}
		b := uint64(src[0]) | uint64(src[1])<<8 | uint64(src[2])<<16 | uint64(src[3])<<24 |
			uint64(src[4])<<32 | uint64(src[5])<<40 | uint64(src[6])<<48 | uint64(src[7])<<56
		return T(math.Float64frombits(b)), src[8:], nil
	default:
		panic("sz: unsupported float type")
	}
}
