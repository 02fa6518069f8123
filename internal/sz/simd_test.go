package sz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/huffman"
)

// The vector kernels against the Go kernels, element for element: codes,
// reconstruction bits and literal bytes, with the vector path on and held
// off (Encoder.scalar, Decoder.scalar). Where haveAVX2 is false both sides
// run the same code and everything here passes trivially; the purego CI leg
// and the golden hashes cover that side.

// simdDims is the shape gauntlet: the unit cell, bricks with every edge
// different (cell counts that are and are not multiples of eight), a
// one-cell-thick slice as CompressSlices codes, and the two block edges the
// archive codes.
var simdDims = []grid.Dims{
	{X: 1, Y: 1, Z: 1},
	{X: 3, Y: 5, Z: 7},
	{X: 9, Y: 7, Z: 1},
	{X: 8, Y: 8, Z: 8},
	{X: 16, Y: 16, Z: 16},
	{X: 17, Y: 4, Z: 9},
}

// saltedBlocks returns n blocks of dims d and a reference for each a few
// bounds away: a smooth field salted with everything the quantizer has a
// special case for — negative zero, subnormals, residuals that sit exactly
// on a ±0.5 quantizer tie, residuals that round to −0 on a −0 reference,
// outliers beyond any radius — and, in one block of five (a NaN poisons
// every prediction downstream of it), NaNs quiet and signaling and both
// infinities.
func saltedBlocks(d grid.Dims, n int, eb float64, seed int64) (blocks, refs []*grid.Grid3[float32]) {
	rng := rand.New(rand.NewSource(seed))
	blocks, refs = grid.NewBlocks[float32](d, n), grid.NewBlocks[float32](d, n)
	for b, g := range blocks {
		for i := range g.Data {
			v := float32(math.Sin(float64(i)/5+float64(b))*6*eb + float64(b%5)*eb)
			refs[b].Data[i] = v + float32((rng.Float64()*6-3)*eb)
			switch r := rng.Intn(64); {
			case r == 0:
				v = float32(math.Copysign(0, -1))
			case r == 1:
				v = math.Float32frombits(uint32(1 + rng.Intn(1<<20))) // subnormal
			case r == 2:
				v = float32(rng.NormFloat64() * 1e12 * eb)
			case r < 6:
				// An odd multiple of eb: (v-pred)/2eb is a tie whenever the
				// prediction is a multiple of 2eb, which zeros and earlier
				// ties make common.
				v = float32(float64(2*rng.Intn(9)-9) * eb)
				refs[b].Data[i] = float32(float64(2*rng.Intn(9)-8) * eb)
			case r == 6:
				v = 0
			case r == 9:
				// A residual that rounds to -0 on a -0 reference.
				v = float32(-eb / 4)
				refs[b].Data[i] = float32(math.Copysign(0, -1))
			case r == 7 && b%5 == 4:
				v = [...]float32{float32(math.NaN()), math.Float32frombits(0x7fa00001),
					float32(math.Inf(1)), float32(math.Inf(-1))}[rng.Intn(4)]
			case r == 8 && b%5 == 4:
				refs[b].Data[i] = float32(math.NaN())
			}
			g.Data[i] = v
		}
	}
	return blocks, refs
}

// stages is the predictor stage of one batch: what a payload is sealed
// from, and what its decoder must reproduce.
type stages struct {
	codes []uint32
	lits  []byte
	nlit  int
	recon []*grid.Grid3[float32]
}

func spatialStages(scalar bool, blocks []*grid.Grid3[float32], eb float64, radius int64) stages {
	e, d := &Encoder[float32]{scalar: scalar}, blocks[0].Dim
	s := stages{codes: make([]uint32, len(blocks)*d.Count()), recon: grid.NewBlocks[float32](d, len(blocks))}
	e.encodeSpatial(blocks, d, s.codes, eb, radius, func(i int) []float32 { return s.recon[i].Data }, true)
	return s.pool(blocks)
}

func temporalStages(scalar bool, blocks, refs []*grid.Grid3[float32], eb float64, radius int64) stages {
	e, d := &Encoder[float32]{scalar: scalar}, blocks[0].Dim
	s := stages{codes: make([]uint32, len(blocks)*d.Count()), recon: grid.NewBlocks[float32](d, len(blocks))}
	e.encodeTemporal(blocks, refs, s.codes, eb, radius, func(i int) []float32 { return s.recon[i].Data })
	return s.pool(blocks)
}

// pool builds the literal pool of s's codes from the values coded, in the
// seal's one pass.
func (s stages) pool(blocks []*grid.Grid3[float32]) stages {
	s.lits = appendLiterals(nil, s.codes, blocks)
	s.nlit = len(s.lits) / 4
	return s
}

func sameBits(t testing.TB, what string, got, want []*grid.Grid3[float32]) {
	t.Helper()
	for b := range want {
		if (got[b] == nil) != (want[b] == nil) {
			t.Fatalf("%s: block %d present on one side only", what, b)
		}
		if want[b] == nil {
			continue
		}
		for i, w := range want[b].Data {
			if g := got[b].Data[i]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%s: block %d cell %d is %#x, want %#x", what, b, i, math.Float32bits(g), math.Float32bits(w))
			}
		}
	}
}

func sameStages(t testing.TB, what string, got, want stages) {
	t.Helper()
	if got.nlit != want.nlit || !bytes.Equal(got.lits, want.lits) {
		t.Fatalf("%s: literal pools differ (%d literals in %d bytes, want %d in %d)", what, got.nlit, len(got.lits), want.nlit, len(want.lits))
	}
	for i := range want.codes {
		if got.codes[i] != want.codes[i] {
			t.Fatalf("%s: code %d is %d, want %d", what, i, got.codes[i], want.codes[i])
		}
	}
	sameBits(t, what, got.recon, want.recon)
}

// decoded reconstructs a batch of n blocks of dims d straight from its
// codes and literal pool — into every block, or into those keep picks — and,
// if refs is given, temporally against them.
func decoded(t testing.TB, scalar bool, d grid.Dims, n int, codes []uint32, lits []byte, eb float64, radius int64, refs []*grid.Grid3[float32], keep func(i int) bool) []*grid.Grid3[float32] {
	t.Helper()
	dec := &Decoder[float32]{scalar: scalar}
	litOff, err := dec.litOffsets(codes, d.Count(), n, lits)
	if err != nil {
		t.Fatal(err)
	}
	b := batch[float32]{delta: refs != nil, dims: d, count: n, codes: codes, lits: lits, litOff: litOff, twoEB: 2 * eb, radius: radius}
	out := grid.NewBlocks[float32](d, n)
	for i := range out {
		if keep != nil && !keep(i) {
			out[i] = nil
		}
	}
	if err := dec.reconstruct(b, out, refs); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkKernelEquivalence runs one batch through all four kernels both
// ways and compares everything they produce. A decoder reproduces its
// encoder's reconstruction bit for bit, zeros' signs included: a residual
// that rounds to -0 steps by +0 on both sides (kernel.go; the fuzz corpus
// holds the input that showed the encoder once stepping by -0).
func checkKernelEquivalence(t testing.TB, what string, blocks, refs []*grid.Grid3[float32], eb float64, radius int64) {
	t.Helper()
	d, n := blocks[0].Dim, len(blocks)
	want := spatialStages(true, blocks, eb, radius)
	sameStages(t, what+", Lorenzo encode", spatialStages(false, blocks, eb, radius), want)
	out := decoded(t, false, d, n, want.codes, want.lits, eb, radius, nil, nil)
	sameBits(t, what+", Lorenzo decode", out, decoded(t, true, d, n, want.codes, want.lits, eb, radius, nil, nil))
	sameBits(t, what+", Lorenzo decode against encode", out, want.recon)
	sealedShortcutEqualsScan(t, what+", Lorenzo", kindBatch, d, n, want)

	want = temporalStages(true, blocks, refs, eb, radius)
	sameStages(t, what+", temporal encode", temporalStages(false, blocks, refs, eb, radius), want)
	out = decoded(t, false, d, n, want.codes, want.lits, eb, radius, refs, nil)
	sameBits(t, what+", temporal decode", out, decoded(t, true, d, n, want.codes, want.lits, eb, radius, refs, nil))
	sameBits(t, what+", temporal decode against encode", out, want.recon)
	sealedShortcutEqualsScan(t, what+", temporal", kindBatchDelta, d, n, want)
}

// sealedShortcutEqualsScan seals a batch's stages and holds litOffsets'
// answer from the payload's codebook to its scan (litoff_test.go). Stages
// coded at a radius past the Huffman encoder's alphabet are not sealed:
// the encoder refuses them, and the parent-written payloads of
// wide_test.go carry such codebooks through litOffsets instead.
func sealedShortcutEqualsScan(t testing.TB, what string, kind int, d grid.Dims, n int, s stages) {
	t.Helper()
	if slices.ContainsFunc(s.codes, func(c uint32) bool { return c >= 1<<huffman.AlphabetBits }) {
		return
	}
	blob := seal[float32](t, kind, []grid.Dims{d, {X: n}}, len(s.codes), 0.5, Options{QuantBits: 16, DisableLossless: true}, s.codes, s.lits)
	if shortcutEqualsScan[float32](t, what, blob) != (s.nlit == 0) {
		t.Fatalf("%s: %d literals, and the codebook says otherwise", what, s.nlit)
	}
}

func TestSIMDMatchesPortable(t *testing.T) {
	for _, d := range simdDims {
		for ri, radius := range []int64{2, 1 << 15, 1 << 29} {
			for n := 1; n <= 67; n++ {
				// Every remainder at every radius on the small shapes only.
				if d.Count() > 200 && (n%16 > 1 && n%16 < 15 || n%3 != ri) {
					continue
				}
				eb := []float64{0.25, 1e9, 3e-7}[n%3]
				blocks, refs := saltedBlocks(d, n, eb, int64(n)*31+radius)
				checkKernelEquivalence(t, fmt.Sprintf("%v × %d, radius %d, eb %g", d, n, radius, eb), blocks, refs, eb, radius)
			}
		}
	}
}

// TestSIMDDecodesAnyCodes feeds the decode kernels code streams no encoder
// wrote: markers in runs that start and end on lane, unit and group
// boundaries, whole blocks of markers, and codes up to 2^32-1.
func TestSIMDDecodesAnyCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, d := range simdDims {
		per := d.Count()
		for _, n := range []int{16, 33, 67} {
			codes := make([]uint32, n*per)
			for i := range codes {
				codes[i] = 1 + uint32(rng.Intn(1<<16))
				if rng.Intn(50) == 0 {
					codes[i] = rng.Uint32() | 1<<31
				}
			}
			for b := 0; b < n; b++ {
				switch blk := codes[b*per : (b+1)*per]; b % 8 {
				case 0, 7: // lanes either side of every unit and group boundary
					clear(blk)
				case 1:
					clear(blk[:per/2+1])
				case 2:
					clear(blk[per/2:])
				case 3:
					for i := range blk {
						if rng.Intn(3) == 0 {
							blk[i] = 0
						}
					}
				}
			}
			zeros := 0
			for _, c := range codes {
				if c == 0 {
					zeros++
				}
			}
			// Finite literals of every magnitude. (A NaN literal under a
			// non-marker code — which no encoder writes, a NaN prediction
			// always ending in a marker — would come out a NaN both ways,
			// but with whichever operand's payload the adds happened to
			// have first.)
			lits := make([]byte, 4*zeros)
			for i := 0; i < len(lits); i += 4 {
				binary.LittleEndian.PutUint32(lits[i:], rng.Uint32()&^(1<<30))
			}
			_, refs := saltedBlocks(d, n, 0.5, 3)
			what := fmt.Sprintf("%v × %d", d, n)
			for _, keep := range []func(int) bool{nil, func(i int) bool { return i%3 != 1 }, func(i int) bool { return i >= n-17 }} {
				sameBits(t, what+", Lorenzo",
					decoded(t, false, d, n, codes, lits, 0.5, 1<<15, nil, keep), decoded(t, true, d, n, codes, lits, 0.5, 1<<15, nil, keep))
				sameBits(t, what+", temporal",
					decoded(t, false, d, n, codes, lits, 0.5, 1<<15, refs, keep), decoded(t, true, d, n, codes, lits, 0.5, 1<<15, refs, keep))
			}

			// A pool one literal short is refused before any kernel runs,
			// in checkLiterals' words. The sealed codes are folded into the
			// Huffman encoder's alphabet, markers kept where they were.
			if zeros > 0 {
				narrow := make([]uint32, len(codes))
				for i, c := range codes {
					if c != 0 {
						narrow[i] = 1 + c%(1<<huffman.AlphabetBits-1)
					}
				}
				blob := seal[float32](t, kindBatch, []grid.Dims{d, {X: n}}, len(narrow), 0.5, Options{QuantBits: 16, DisableLossless: true}, narrow, lits[:len(lits)-4])
				want := checkLiterals[float32](narrow, lits[:len(lits)-4])
				for _, scalar := range []bool{false, true} {
					dec := &Decoder[float32]{scalar: scalar}
					if err := dec.DecompressBlocksInto(grid.NewBlocks[float32](d, n), blob); err == nil || err.Error() != want.Error() {
						t.Fatalf("%s, short pool, scalar=%v: error %v, want %v", what, scalar, err, want)
					}
				}
			}
		}
	}
}

// TestSIMDPayloads is the same comparison at the entry points: payload
// bytes and captured reconstructions of every coding, at a narrow bound and
// at one wider than all but the outliers, and the payloads decoded back
// whole and with every other block skipped.
func TestSIMDPayloads(t *testing.T) {
	d := grid.Dims{X: 4, Y: 4, Z: 4}
	for _, n := range []int{5, 16, 37, 64} {
		blocks, refs := saltedBlocks(d, n, 0.01, int64(n))
		for _, opts := range []Options{{ErrorBound: 0.01}, {ErrorBound: 1e7}, {ErrorBound: 0.01, QuantBits: 2}} {
			for _, how := range []coding{codeSpatial, codeTemporal, codeEither} {
				what := fmt.Sprintf("%d blocks, %+v, coding %d", n, opts, how)
				var r []*grid.Grid3[float32]
				if how != codeSpatial {
					r = refs
				}
				run := func(scalar bool) ([]byte, int, []*grid.Grid3[float32]) {
					recon := grid.NewBlocks[float32](d, n)
					blob, kind, _, err := (&Encoder[float32]{scalar: scalar}).compressBlocks(kindBatch, blocks, r, opts, recon, how)
					if err != nil {
						t.Fatal(err)
					}
					return blob, kind, recon
				}
				blob, kind, recon := run(false)
				wantBlob, wantKind, wantRecon := run(true)
				if kind != wantKind || !bytes.Equal(blob, wantBlob) {
					t.Fatalf("%s: payload differs from the Go kernels'", what)
				}
				sameBits(t, what+", capture", recon, wantRecon)

				for _, every := range []int{1, 2} {
					decode := func(scalar bool) []*grid.Grid3[float32] {
						out := grid.NewBlocks[float32](d, n)
						for i := range out {
							if i%every != 0 {
								out[i] = nil
							}
						}
						dec := &Decoder[float32]{scalar: scalar}
						var err error
						if kind == kindBatchDelta {
							err = dec.DecompressBlocksDeltaInto(out, blob, refs)
						} else {
							err = dec.DecompressBlocksInto(out, blob)
						}
						if err != nil {
							t.Fatal(err)
						}
						return out
					}
					sameBits(t, fmt.Sprintf("%s, every block in %d decoded", what, every), decode(false), decode(true))
				}
			}
		}
	}
}

func TestRoundHalfAwayByTrunc(t *testing.T) {
	h := math.Nextafter(0.5, 0)
	check := func(q float64) {
		t.Helper()
		got, want := math.Trunc(q+math.Copysign(h, q)), math.Round(q)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("q = %v (%#x): got %v, math.Round gives %v", q, math.Float64bits(q), got, want)
		}
	}
	for _, q := range []float64{0, h, 0.5, 1, 1.5, 2.5, 1 << 51, 1<<51 + 0.5, 1<<52 - 0.5, 1 << 52, 1<<52 + 1,
		1 << 53, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()} {
		for _, q := range []float64{q, math.Nextafter(q, 0), math.Nextafter(q, math.Inf(1))} {
			check(q)
			check(-q)
		}
	}
	// Every tie and both its neighbours at every magnitude that has ties,
	// then random bit patterns and random quarter-integers.
	for e := 0; e < 52; e++ {
		for _, n := range []float64{math.Ldexp(1, e), math.Ldexp(1, e) + 1, math.Ldexp(1, e+1) - 1} {
			for _, q := range []float64{n + 0.5, math.Nextafter(n+0.5, 0), math.Nextafter(n+0.5, math.Inf(1))} {
				check(q)
				check(-q)
			}
		}
	}
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 1<<17; i++ {
		check(math.Float64frombits(rng.Uint64()))
		check(float64(rng.Int63n(1<<31))/4 - 1<<28)
	}
}

// kernelFuzzInput packs a batch for FuzzKernelEquivalence: shape, block
// count, radius and bound in a header, then cell and reference bits.
func kernelFuzzInput(blocks, refs []*grid.Grid3[float32], eb float64, quantBits int) []byte {
	d := blocks[0].Dim
	in := []byte{byte(d.X), byte(d.Y), byte(d.Z), byte(len(blocks)), byte(quantBits)}
	in = binary.LittleEndian.AppendUint64(in, math.Float64bits(eb))
	for i, b := range blocks {
		for j, v := range b.Data {
			in = binary.LittleEndian.AppendUint32(in, math.Float32bits(v))
			in = binary.LittleEndian.AppendUint32(in, math.Float32bits(refs[i].Data[j]))
		}
	}
	return in
}

// FuzzKernelEquivalence lets the fuzzer pick the batch: any float32 bit
// patterns at all, any small shape, 1 to 40 blocks, any legal radius and
// any positive finite bound. Cells the input is too short for are zero.
func FuzzKernelEquivalence(f *testing.F) {
	for i, d := range []grid.Dims{{X: 1, Y: 1, Z: 1}, {X: 3, Y: 5, Z: 7}, {X: 4, Y: 4, Z: 4}, {X: 2, Y: 3, Z: 8}} {
		for _, n := range []int{1, 16, 19, 33} {
			blocks, refs := saltedBlocks(d, n, 0.25, int64(i*100+n))
			f.Add(kernelFuzzInput(blocks, refs, 0.25, []int{2, 16, 30}[(i+n)%3]))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 13 {
			return
		}
		d := grid.Dims{X: 1 + int(in[0])%8, Y: 1 + int(in[1])%8, Z: 1 + int(in[2])%8}
		n, quantBits := 1+int(in[3])%40, 2+int(in[4])%29
		eb := math.Float64frombits(binary.LittleEndian.Uint64(in[5:]))
		if !(eb > 0) || math.IsInf(eb, 0) {
			return
		}
		in = in[13:]
		blocks, refs := grid.NewBlocks[float32](d, n), grid.NewBlocks[float32](d, n)
	fill:
		for i, b := range blocks {
			for j := range b.Data {
				if len(in) < 8 {
					break fill
				}
				b.Data[j] = math.Float32frombits(binary.LittleEndian.Uint32(in))
				refs[i].Data[j] = math.Float32frombits(binary.LittleEndian.Uint32(in[4:]))
				in = in[8:]
			}
		}
		checkKernelEquivalence(t, fmt.Sprintf("%v × %d, %d bits, eb %g", d, n, quantBits, eb), blocks, refs, eb, quantRadius(quantBits))
	})
}
