package sz

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
)

// Kernel-equivalence suite: the boundary-peeled branch-free kernels in
// kernel.go must produce byte-identical code streams and literal pools
// AND bit-identical reconstructions (including IEEE signed zeros) versus
// the retained scalar reference kernels, across degenerate and
// literal-heavy geometries. CI runs this package under -race, which also
// exercises these kernels through the parallel fan-out tests.

// kernelDims is the geometry gauntlet: the unit cell, thin slabs along
// every axis, lines, non-cubic bricks, and a bulky interior.
var kernelDims = []grid.Dims{
	{X: 1, Y: 1, Z: 1},
	{X: 1, Y: 1, Z: 9},
	{X: 1, Y: 9, Z: 1},
	{X: 9, Y: 1, Z: 1},
	{X: 1, Y: 7, Z: 5},
	{X: 7, Y: 1, Z: 5},
	{X: 7, Y: 5, Z: 1},
	{X: 2, Y: 2, Z: 2},
	{X: 5, Y: 7, Z: 4},
	{X: 16, Y: 3, Z: 2},
	{X: 8, Y: 8, Z: 8},
}

// fillKernelData populates data with a mix of smooth structure, literal
// outliers, exact zeros and negative zeros (the signed-zero cases the
// peeled boundary arithmetic must reproduce bit-for-bit).
func fillKernelData[T grid.Float](data []T, seed int64, litFrac float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range data {
		switch {
		case rng.Float64() < litFrac:
			data[i] = T(rng.NormFloat64() * 1e9) // forces a literal
		case rng.Float64() < 0.05:
			data[i] = T(math.Copysign(0, -1)) // negative zero
		case rng.Float64() < 0.05:
			data[i] = 0
		default:
			data[i] = T(math.Sin(float64(i)/7)*10 + float64(i%13))
		}
	}
}

// bitsOf returns the exact bit pattern of v for bit-identity checks.
func bitsOf[T grid.Float](v T) uint64 {
	switch x := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(x))
	case float64:
		return math.Float64bits(x)
	default:
		panic("unsupported")
	}
}

// refEncode3 runs the retained reference 3D encode.
func refEncode3[T grid.Float](g *grid.Grid3[T], eb float64, quantBits int) (*quantizer[T], *grid.Grid3[T]) {
	q := newQuantizer[T](eb, quantBits)
	recon := grid.New[T](g.Dim)
	encodeLorenzo3Ref(g, recon, q)
	return q, recon
}

// refDecode3 runs the retained reference 3D decode.
func refDecode3[T grid.Float](d grid.Dims, codes []uint32, lits []byte, eb float64, quantBits int) (*grid.Grid3[T], error) {
	dq := &dequantizer[T]{twoEB: 2 * eb, radius: quantRadius(quantBits), codes: codes, lits: lits}
	out := grid.New[T](d)
	err := decodeLorenzo3Ref(out, dq)
	return out, err
}

// With stale set, every reconstruction buffer the encode kernels get
// starts NaN-filled rather than zeroed: they must write each cell before
// they read it.
func checkKernel3[T grid.Float](t *testing.T, d grid.Dims, seed int64, litFrac, eb float64, stale bool) {
	t.Helper()
	const quantBits = 16
	g := grid.New[T](d)
	fillKernelData(g.Data, seed, litFrac)

	q, refRecon := refEncode3(g, eb, quantBits)

	newRecon := func() []T {
		r := make([]T, d.Count())
		if stale {
			for i := range r {
				r[i] = T(math.NaN())
			}
		}
		return r
	}
	codes := make([]uint32, d.Count())
	recon := newRecon()
	encodeBlock3(g.Data, recon, d, codes, eb, quantRadius(quantBits))
	lits := appendLiterals(nil, codes, []*grid.Grid3[T]{g})
	nlit := len(lits) / literalSize[T]()

	if len(codes) != len(q.codes) {
		t.Fatalf("%v: kernel emitted %d codes, reference %d", d, len(codes), len(q.codes))
	}
	for i := range codes {
		if codes[i] != q.codes[i] {
			x, y, z := d.Coords(i)
			t.Fatalf("%v: code[%d] (%d,%d,%d) = %d, reference %d", d, i, x, y, z, codes[i], q.codes[i])
		}
	}
	if !bytes.Equal(lits, q.lits) {
		t.Fatalf("%v: literal pool differs from reference (%d vs %d bytes)", d, len(lits), len(q.lits))
	}
	if nlit != q.nlit {
		t.Fatalf("%v: kernel counted %d literals, reference %d", d, nlit, q.nlit)
	}
	for i := range recon {
		if bitsOf(recon[i]) != bitsOf(refRecon.Data[i]) {
			x, y, z := d.Coords(i)
			t.Fatalf("%v: encode recon[%d] (%d,%d,%d) = %x, reference %x", d, i, x, y, z, bitsOf(recon[i]), bitsOf(refRecon.Data[i]))
		}
	}
	// The quad kernel, the same block in all four lanes, must agree.
	var quadRecon [4][]T
	var quadCodes [4][]uint32
	for l := range quadRecon {
		quadRecon[l], quadCodes[l] = newRecon(), make([]uint32, d.Count())
	}
	encodeBlockQuad(g.Data, g.Data, g.Data, g.Data, quadRecon[0], quadRecon[1], quadRecon[2], quadRecon[3], d,
		quadCodes[0], quadCodes[1], quadCodes[2], quadCodes[3], eb, quantRadius(quantBits))
	for l := range quadRecon {
		if !slices.Equal(quadCodes[l], codes) {
			t.Fatalf("%v: quad lane %d codes differ from encodeBlock3's", d, l)
		}
		for i := range recon {
			if bitsOf(quadRecon[l][i]) != bitsOf(recon[i]) {
				t.Fatalf("%v: quad lane %d recon[%d] = %x, encodeBlock3 %x", d, l, i, bitsOf(quadRecon[l][i]), bitsOf(recon[i]))
			}
		}
	}

	refOut, err := refDecode3[T](d, codes, lits, eb, quantBits)
	if err != nil {
		t.Fatalf("%v: reference decode: %v", d, err)
	}
	out := make([]T, d.Count())
	if err := checkLiterals[T](codes, lits); err != nil {
		t.Fatalf("%v: checkLiterals on valid stream: %v", d, err)
	}
	consumed := decodeBlock3(out, d, codes, lits, 2*eb, quantRadius(quantBits))
	if consumed != len(lits) {
		t.Fatalf("%v: decode consumed %d literal bytes, pool holds %d", d, consumed, len(lits))
	}
	for i := range out {
		if bitsOf(out[i]) != bitsOf(refOut.Data[i]) {
			x, y, z := d.Coords(i)
			t.Fatalf("%v: decode[%d] (%d,%d,%d) = %x, reference %x", d, i, x, y, z, bitsOf(out[i]), bitsOf(refOut.Data[i]))
		}
		if bitsOf(out[i]) != bitsOf(recon[i]) {
			x, y, z := d.Coords(i)
			t.Fatalf("%v: decode[%d] (%d,%d,%d) = %x, the encoder reconstructed %x", d, i, x, y, z, bitsOf(out[i]), bitsOf(recon[i]))
		}
	}
}

// TestKernel3Equivalence is the 3D property test: byte-identical codes
// and literals, bit-identical reconstructions, across the geometry
// gauntlet, both element widths, and literal densities from none to
// literal-heavy, into zeroed and into NaN-filled reconstruction buffers.
func TestKernel3Equivalence(t *testing.T) {
	for _, d := range kernelDims {
		for _, litFrac := range []float64{0, 0.02, 0.5} {
			for _, stale := range []bool{false, true} {
				checkKernel3[float32](t, d, int64(d.Count())*7+int64(litFrac*100), litFrac, 0.05, stale)
				checkKernel3[float64](t, d, int64(d.Count())*13+int64(litFrac*100), litFrac, 0.05, stale)
			}
		}
	}
}

// TestKernel2Equivalence holds the slice geometries CompressSlices codes
// (X×Y×1 blocks through the 3D kernels) to the reference, at the same
// element widths and literal densities as the 3D gauntlet.
func TestKernel2Equivalence(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {5, 7}, {16, 2}, {12, 12}} {
		d := grid.Dims{X: g[0], Y: g[1], Z: 1}
		for _, litFrac := range []float64{0, 0.03, 0.5} {
			checkKernel3[float32](t, d, int64(g[0]*31+g[1]), litFrac, 0.05, false)
			checkKernel3[float64](t, d, int64(g[0]*37+g[1]), litFrac, 0.05, false)
		}
	}
}

// TestKernel1Equivalence holds the 3D kernels on 1×1×n blocks, the 1D
// stream's shape, to the order-1 reference: the reference quantizer and
// dequantizer with each value predicted by its predecessor's
// reconstruction alone, which is what the deleted 1D kernel pair computed.
// The signed-zero row pins the z edge's prediction without a zero term to
// that pair bit for bit: ±0 values after ±0 reconstructions, ±0 literals
// after values far from zero, and residuals that round to −0 after them.
func TestKernel1Equivalence(t *testing.T) {
	const quantBits, eb = 16, 0.01
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	signedZeros := []float32{
		negZero, negZero, 0, negZero, 1e30, negZero, negZero, 0, 1e30, 0, negZero,
		nan, negZero, 0, 5, negZero, -1e30, 0, 0, negZero, 3e-3, negZero,
		1e30, negZero, -1e-3, 1e30, 0, -1e-3, -1e30, negZero, 1e-3,
	}
	inputs := map[string][]float32{"signed zeros": signedZeros}
	for _, n := range []int{0, 1, 2, 257, 4096} {
		for _, litFrac := range []float64{0, 0.1} {
			src := make([]float32, n)
			fillKernelData(src, int64(n)+int64(litFrac*10), litFrac)
			inputs[fmt.Sprintf("n=%d lits=%v", n, litFrac)] = src
		}
	}
	for name, src := range inputs {
		n := len(src)
		d := grid.Dims{X: 1, Y: 1, Z: n}
		q := newQuantizer[float32](eb, quantBits)
		encRecon := make([]float32, n)
		var prev float32
		for i, v := range src {
			prev = q.encode(v, prev)
			encRecon[i] = prev
		}

		codes := make([]uint32, n)
		recon := make([]float32, n)
		encodeBlock3(src, recon, d, codes, eb, quantRadius(quantBits))
		lits := appendLiterals(nil, codes, []*grid.Grid3[float32]{{Dim: d, Data: src}})
		if !slices.Equal(codes, q.codes) {
			t.Fatalf("%s: codes differ from the order-1 reference", name)
		}
		if !bytes.Equal(lits, q.lits) || len(lits)/4 != q.nlit {
			t.Fatalf("%s: literal pool differs from the order-1 reference", name)
		}
		if name == "signed zeros" && q.nlit < 4 {
			t.Fatalf("%s: %d literals, want the ±0, NaN and far ones", name, q.nlit)
		}

		dq := &dequantizer[float32]{twoEB: 2 * eb, radius: quantRadius(quantBits), codes: codes, lits: lits}
		out := make([]float32, n)
		var dprev float32
		for i := range out {
			v, err := dq.decode(dprev)
			if err != nil {
				t.Fatalf("%s: reference decode: %v", name, err)
			}
			out[i], dprev = v, v
		}
		got := make([]float32, n)
		if lp := decodeBlock3(got, d, codes, lits, 2*eb, quantRadius(quantBits)); lp != len(lits) {
			t.Fatalf("%s: decode consumed %d of %d literal bytes", name, lp, len(lits))
		}
		for i := range got {
			if bitsOf(got[i]) != bitsOf(out[i]) || bitsOf(got[i]) != bitsOf(encRecon[i]) || bitsOf(recon[i]) != bitsOf(encRecon[i]) {
				t.Fatalf("%s: value %d: kernel encode %x, decode %x; reference encode %x, decode %x",
					name, i, bitsOf(recon[i]), bitsOf(got[i]), bitsOf(encRecon[i]), bitsOf(out[i]))
			}
		}
	}
}

// TestQuadBatchEquivalence drives the quad-block lock-step kernels
// through the public batch API across batch sizes that exercise the quad
// main loop, the scalar tail, and both (1..9 blocks), on degenerate and
// literal-heavy geometries: payloads must be byte-identical to a
// per-block reference built from the retained scalar kernels, and
// decoded blocks bit-identical.
func TestQuadBatchEquivalence(t *testing.T) {
	const quantBits, eb = 16, 0.05
	for _, d := range []grid.Dims{{X: 1, Y: 1, Z: 1}, {X: 1, Y: 3, Z: 5}, {X: 4, Y: 4, Z: 4}, {X: 5, Y: 3, Z: 7}} {
		for nblocks := 1; nblocks <= 9; nblocks++ {
			for _, litFrac := range []float64{0, 0.3} {
				blocks := make([]*grid.Grid3[float32], nblocks)
				for b := range blocks {
					blocks[b] = grid.New[float32](d)
					fillKernelData(blocks[b].Data, int64(d.Count()*100+b*10)+int64(litFrac*10), litFrac)
				}
				// Reference payload: scalar kernels, block by block.
				q := newQuantizer[float32](eb, quantBits)
				recon := grid.New[float32](d)
				for _, b := range blocks {
					clear(recon.Data)
					encodeLorenzo3Ref(b, recon, q)
				}
				opts := Options{ErrorBound: eb, DisableLossless: true}.withDefaults()
				want := seal[float32](t, kindBatch, []grid.Dims{d, {X: nblocks}}, d.Count()*nblocks, eb, opts, q.codes, q.lits)
				got, _, err := CompressBlocks(blocks, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("dims %v × %d blocks litFrac %v: batch payload differs from scalar reference", d, nblocks, litFrac)
				}
				// Decode: quad+tail must reproduce the reference decode bits.
				dec, err := DecompressBlocks[float32](got)
				if err != nil {
					t.Fatal(err)
				}
				dq := &dequantizer[float32]{twoEB: 2 * eb, radius: quantRadius(quantBits), codes: q.codes, lits: q.lits}
				for b := range blocks {
					ref := grid.New[float32](d)
					if err := decodeLorenzo3Ref(ref, dq); err != nil {
						t.Fatal(err)
					}
					for i := range ref.Data {
						if bitsOf(dec[b].Data[i]) != bitsOf(ref.Data[i]) {
							t.Fatalf("dims %v × %d blocks: block %d cell %d differs from reference decode", d, nblocks, b, i)
						}
					}
				}
			}
		}
	}
}

// TestFastRound pins fastRound == math.Round bit-for-bit: exact halfway
// ties (where RoundToEven and Round disagree), the values just below a
// tie that naive x+0.5 formulations misround, signed zeros, huge values
// past the integer-spacing threshold, and the IEEE specials.
func TestFastRound(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1),
		0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 3.5, -3.5,
		0.49999999999999994, -0.49999999999999994, // x+0.5 rounds to 1.0; Round(x) = 0
		1.4999999999999998, -1.4999999999999998,
		0.25, -0.25, 0.75, -0.75,
		1 << 51, -(1 << 51), (1 << 51) + 0.5, -((1 << 51) + 0.5),
		1 << 52, -(1 << 52), 1 << 53, -(1 << 53),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	// sameRound treats any NaN as equal to any NaN: the ROUNDSD intrinsic
	// quiets signaling-NaN payloads where math.Round's bit path passes
	// them through, and the quantizer never observes NaN payload bits
	// (every NaN fails the radius check and takes the literal path).
	sameRound := func(got, want float64) bool {
		if math.IsNaN(got) || math.IsNaN(want) {
			return math.IsNaN(got) && math.IsNaN(want)
		}
		return math.Float64bits(got) == math.Float64bits(want)
	}
	for _, x := range cases {
		if got, want := fastRound(x), math.Round(x); !sameRound(got, want) {
			t.Errorf("fastRound(%v) = %v (%x), math.Round = %v (%x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200000; i++ {
		x := math.Float64frombits(rng.Uint64())
		if got, want := fastRound(x), math.Round(x); !sameRound(got, want) {
			t.Fatalf("fastRound(%x) = %x, math.Round = %x", math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
		}
		// Halfway ties drawn uniformly over the representable range.
		k := float64(int64(rng.Uint64()) >> (11 + rng.Intn(40)))
		x = k + math.Copysign(0.5, k)
		if got, want := fastRound(x), math.Round(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fastRound(tie %v) = %v, math.Round = %v", x, got, want)
		}
	}
}

// TestCheckLiterals pins the one-shot pre-validation the branch-free
// decode kernels rely on.
func TestCheckLiterals(t *testing.T) {
	codes := []uint32{5, 0, 9, 0} // two literal markers
	if err := checkLiterals[float32](codes, make([]byte, 8)); err != nil {
		t.Fatalf("exact pool rejected: %v", err)
	}
	if err := checkLiterals[float32](codes, make([]byte, 7)); err == nil {
		t.Fatal("short pool accepted")
	}
	if err := checkLiterals[float64](codes, make([]byte, 15)); err == nil {
		t.Fatal("short float64 pool accepted")
	}
	if err := checkLiterals[float32](nil, nil); err != nil {
		t.Fatalf("empty stream rejected: %v", err)
	}
}

// TestTruncatedLiteralPoolErrors confirms the pre-validation surfaces as
// a decode error through every public path (the reference kernels used to
// catch this per element).
func TestTruncatedLiteralPoolErrors(t *testing.T) {
	g := grid.New[float32](grid.Dims{X: 4, Y: 4, Z: 4})
	fillKernelData(g.Data, 3, 0.4)
	blob, st, err := Compress3D(g, Options{ErrorBound: 1e-3, DisableLossless: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Literals == 0 {
		t.Fatal("expected literals in adversarial grid")
	}
	// Chop the tail of the literal section (the last payload bytes).
	if _, err := Decompress3D[float32](blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated literal pool decoded without error")
	}
}

// TestPredictReconstruct checks the exported predictor-stage API: the
// codes match the entropy stage of a full Compress3D payload, and
// Reconstruct3D inverts Predict3D bit-exactly against Decompress3D.
func TestPredictReconstruct(t *testing.T) {
	g := smoothGrid(grid.Dims{X: 12, Y: 10, Z: 8})
	opts := Options{ErrorBound: 0.05}
	enc := NewEncoder[float32]()
	codes, lits, nlit, err := enc.Predict3D(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	blob, st, err := Compress3D(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nlit != st.Literals {
		t.Fatalf("Predict3D counted %d literals, Compress3D %d", nlit, st.Literals)
	}
	fullCodes, err := ExtractCodes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != len(fullCodes) {
		t.Fatalf("Predict3D emitted %d codes, payload carries %d", len(codes), len(fullCodes))
	}
	for i := range codes {
		if codes[i] != fullCodes[i] {
			t.Fatalf("code[%d] = %d, payload carries %d", i, codes[i], fullCodes[i])
		}
	}

	want, err := Decompress3D[float32](blob)
	if err != nil {
		t.Fatal(err)
	}
	out := grid.New[float32](g.Dim)
	if err := Reconstruct3D(out, codes, lits, opts); err != nil {
		t.Fatal(err)
	}
	for i := range out.Data {
		if bitsOf(out.Data[i]) != bitsOf(want.Data[i]) {
			t.Fatalf("Reconstruct3D[%d] differs from Decompress3D", i)
		}
	}

	// Validation paths.
	if err := Reconstruct3D(grid.New[float32](grid.Dims{X: 2, Y: 2, Z: 2}), codes, lits, opts); err == nil {
		t.Fatal("wrong geometry accepted")
	}
	if err := Reconstruct3D(out, codes, lits[:0], opts); err == nil && nlit > 0 {
		t.Fatal("missing literal pool accepted")
	}
}
