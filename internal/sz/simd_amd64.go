//go:build !purego

package sz

import (
	"slices"
	"unsafe"

	"repro/internal/grid"
)

// The AVX2 kernels (simd_amd64.s). Pointers address the first element the
// kernel touches; sizes and layouts are the caller's to get right (this
// file is the only caller).

//go:noescape
func lorenzoEncodeAVX2(src, halo, recon *float32, codes *uint32, nx, ny, nz int, twoEB, eb float64, radius uint32)

//go:noescape
func temporalEncodeAVX2(src, ref, recon *float32, codes *uint32, units int, twoEB, eb float64, radius uint32)

//go:noescape
func lorenzoDecodeAVX2(halo, recon *float32, codes *uint32, nx, ny, nz int, twoEB, bias float64, lits *byte, cursors *int)

//go:noescape
func temporalDecodeAVX2(out, ref *float32, codes *uint32, units int, twoEB, bias float64, lits *byte) (used int)

//go:noescape
func interleaveAVX2(dst *uint32, lanes *[8]*uint32, tiles int)

//go:noescape
func deinterleaveAVX2(lanes *[8]*uint32, src *uint32, tiles int)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv0() uint32

// haveAVX2 is decided once, from the CPU and the OS: AVX2 instructions
// exist (CPUID.7:EBX bit 5) and the OS saves the ymm state they use
// (OSXSAVE and AVX in CPUID.1:ECX, XMM and YMM enabled in XCR0).
var haveAVX2 = func() bool {
	if a, _, _, _ := cpuid(0, 0); a < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}()

// vectorPath reports whether batches of T go through the vector kernels.
func vectorPath[T grid.Float](scalar bool) bool {
	_, f32 := any(T(0)).(float32)
	return f32 && haveAVX2 && !scalar
}

// asFloat32 returns s as []float32 when that is what T is.
func asFloat32[T grid.Float](s []T) ([]float32, bool) {
	f, ok := any(s).([]float32)
	return f, ok
}

// lanes is the scratch of the vector path: one group's source values,
// codes and reconstruction, and the haloed copy of the reconstruction.
type lanes struct {
	d     grid.Dims
	src   []float32
	codes []uint32
	recon []float32
	halo  []float32
	cur   [simdLanes]int
}

// shape readies the scratch for groups of blocks of dims d.
func (l *lanes) shape(d grid.Dims) {
	if d == l.d {
		return
	}
	n := d.Count() * simdLanes
	l.src = slices.Grow(l.src[:0], n)[:n]
	l.codes = slices.Grow(l.codes[:0], n)[:n]
	l.recon = slices.Grow(l.recon[:0], n)[:n]
	// What were cells of the old shape lie where the new one has its halo.
	h := (d.X + 1) * (d.Y + 1) * (d.Z + 1) * simdLanes
	l.halo = slices.Grow(l.halo[:0], h)[:h]
	clear(l.halo)
	l.d = d
}

// origin is cell (0,0,0) of the haloed reconstruction.
func (l *lanes) origin() *float32 {
	return &l.halo[((l.d.Y+2)*(l.d.Z+1)+1)*simdLanes]
}

// encodeGroups is the head of encodeSpatial: it Lorenzo-codes the leading
// full groups of simdLanes blocks on the vector kernel and returns how many
// blocks that was. Their reconstructions go to rec(i) if keep is set.
func (e *Encoder[T]) encodeGroups(blocks []*grid.Grid3[T], d grid.Dims, codes []uint32, eb float64, radius int64, rec func(i int) []T, keep bool) int {
	if !vectorPath[T](e.scalar) || len(blocks) < simdLanes {
		return 0
	}
	l, per := &e.lanes, d.Count()
	l.shape(d)
	var src, out [simdLanes][]float32
	var cod [simdLanes][]uint32
	i := 0
	for ; i+simdLanes <= len(blocks); i += simdLanes {
		for k := range src {
			src[k], _ = asFloat32(blocks[i+k].Data)
			cod[k] = codes[(i+k)*per : (i+k+1)*per]
		}
		interleave(l.src, &src, per)
		lorenzoEncodeAVX2(&l.src[0], l.origin(), &l.recon[0], &l.codes[0], d.X, d.Y, d.Z, 2*eb, eb, uint32(radius))
		deinterleave(&cod, l.codes, per)
		if keep {
			for k := range out {
				out[k], _ = asFloat32(rec(i + k))
			}
			deinterleave(&out, l.recon, per)
		}
	}
	return i
}

// decodeGroups is the head of reconstruct's spatial half: it decodes the
// leading full groups of simdLanes of the blocks want of b on the vector
// kernel and returns the rest of want. The pool holds a literal for every
// marker of every block (litOffsets checked).
func (d *Decoder[T]) decodeGroups(b batch[T], want []int, dst []*grid.Grid3[T]) []int {
	if !vectorPath[T](d.scalar) || len(want) < simdLanes {
		return want
	}
	l, per := &d.lanes, b.dims.Count()
	l.shape(b.dims)
	var cod [simdLanes][]uint32
	var out [simdLanes][]float32
	for ; len(want) >= simdLanes; want = want[simdLanes:] {
		for k, i := range want[:simdLanes] {
			cod[k] = b.codes[i*per : (i+1)*per]
			l.cur[k] = b.litOff[i]
			out[k], _ = asFloat32(dst[i].Data)
		}
		interleave(l.codes, &cod, per)
		lorenzoDecodeAVX2(l.origin(), &l.recon[0], &l.codes[0], b.dims.X, b.dims.Y, b.dims.Z, b.twoEB, dequantBias(b.radius), unsafe.SliceData(b.lits), &l.cur[0])
		deinterleave(&out, l.recon, per)
	}
	return want
}

// interleave lays blocks, arrays of n values each, out as dst[cell][lane].
func interleave[E float32 | uint32](dst []E, blocks *[simdLanes][]E, n int) {
	_ = dst[n*simdLanes-1]
	if tiles := n / 8; tiles > 0 {
		for h := 0; h < simdLanes; h += 8 {
			p := lanePointers(blocks[h:h+8], n)
			interleaveAVX2(word(dst[h:]), &p, tiles)
		}
	}
	for j := n &^ 7; j < n; j++ {
		for k, b := range blocks {
			dst[j*simdLanes+k] = b[j]
		}
	}
}

// deinterleave is the inverse of interleave.
func deinterleave[E float32 | uint32](blocks *[simdLanes][]E, src []E, n int) {
	_ = src[n*simdLanes-1]
	if tiles := n / 8; tiles > 0 {
		for h := 0; h < simdLanes; h += 8 {
			p := lanePointers(blocks[h:h+8], n)
			deinterleaveAVX2(&p, word(src[h:]), tiles)
		}
	}
	for j := n &^ 7; j < n; j++ {
		for k, b := range blocks {
			b[j] = src[j*simdLanes+k]
		}
	}
}

// lanePointers returns the addresses of eight arrays of at least n values.
func lanePointers[E float32 | uint32](blocks [][]E, n int) (p [8]*uint32) {
	for k := range p {
		p[k] = word(blocks[k][:n])
	}
	return p
}

// word is the address of s's first element as the transposes take it.
func word[E float32 | uint32](s []E) *uint32 {
	return (*uint32)(unsafe.Pointer(unsafe.SliceData(s)))
}

// dequantBias is what the decode kernels add to a code read as c-2^31 to
// get int64(c)-radius.
func dequantBias(radius int64) float64 { return float64(1<<31 - radius) }

// temporalEncode is encodeTemporalBlock, on the vector kernel where T is
// float32: whole units of eight cells there, the rest in Go.
func (e *Encoder[T]) temporalEncode(src, ref, recon []T, codes []uint32, eb float64, radius int64) {
	if !vectorPath[T](e.scalar) {
		encodeTemporalBlock(src, ref, recon, codes, eb, radius)
		return
	}
	s, _ := asFloat32(src)
	r, _ := asFloat32(ref)
	out, _ := asFloat32(recon)
	n := len(s) &^ 7
	if n > 0 {
		_, _, _ = r[n-1], out[n-1], codes[n-1]
		temporalEncodeAVX2(&s[0], &r[0], &out[0], &codes[0], n/8, 2*eb, eb, uint32(radius))
	}
	encodeTemporalBlock(s[n:], r[n:], out[n:], codes[n:], eb, radius)
}

// temporalDecode is decodeTemporalBlock, on the vector kernel where T is
// float32.
func (d *Decoder[T]) temporalDecode(out, ref []T, codes []uint32, lits []byte, twoEB float64, radius int64) int {
	if !vectorPath[T](d.scalar) {
		return decodeTemporalBlock(out, ref, codes, lits, twoEB, radius)
	}
	o, _ := asFloat32(out)
	r, _ := asFloat32(ref)
	n, used := len(codes)&^7, 0
	if n > 0 {
		_, _ = o[n-1], r[n-1]
		used = temporalDecodeAVX2(&o[0], &r[0], &codes[0], n/8, twoEB, dequantBias(radius), unsafe.SliceData(lits))
	}
	return used + decodeTemporalBlock(o[n:], r[n:], codes[n:], lits[used:], twoEB, radius)
}
