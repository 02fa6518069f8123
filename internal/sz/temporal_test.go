package sz

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// encodeTemporalRef is the retained scalar reference implementation of
// the temporal encode: per-element prediction from ref through
// quantizer.encode, writing the reconstruction into recon. The
// equivalence suite compares it against encodeTemporalBlock.
func encodeTemporalRef[T grid.Float](src, ref, recon []T, q *quantizer[T]) {
	for i, v := range src {
		recon[i] = q.encode(v, ref[i])
	}
}

// decodeTemporalRef is the retained scalar reference decode (see
// encodeTemporalRef).
func decodeTemporalRef[T grid.Float](out, ref []T, dq *dequantizer[T]) error {
	for i := range out {
		v, err := dq.decode(ref[i])
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// driftBlocks derives a correlated "next snapshot" from base: each cell
// moves by a smooth per-block drift of a few error bounds plus sub-bound
// jitter, the regime delta coding is built for.
func driftBlocks(base []*grid.Grid3[float32], eb float64, seed int64) []*grid.Grid3[float32] {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*grid.Grid3[float32], len(base))
	for b, g := range base {
		drift := float32((rng.Float64()*2 - 1) * 3 * eb)
		n := grid.New[float32](g.Dim)
		for i, v := range g.Data {
			n.Data[i] = v + drift + float32((rng.Float64()*2-1)*eb/4)
		}
		out[b] = n
	}
	return out
}

func maxAbsErr(a, b []*grid.Grid3[float32]) float64 {
	worst := 0.0
	for i := range a {
		for j := range a[i].Data {
			if d := math.Abs(float64(a[i].Data[j]) - float64(b[i].Data[j])); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestTemporalKernelMatchesRef compares the production temporal kernels
// against the scalar quantizer/dequantizer oracles element-for-element:
// identical codes, literals and reconstructions in both directions.
func TestTemporalKernelMatchesRef(t *testing.T) {
	const eb = 0.05
	src := testBlocks(1, 9, 7)[0]
	ref := driftBlocks([]*grid.Grid3[float32]{src}, eb, 8)[0]
	n := len(src.Data)
	radius := quantRadius(16)

	codes := make([]uint32, n)
	recon := make([]float32, n)
	encodeTemporalBlock(src.Data, ref.Data, recon, codes, eb, radius)
	lits := appendLiterals(nil, codes, []*grid.Grid3[float32]{src})
	nlit := len(lits) / 4

	q := newQuantizer[float32](eb, 16)
	refRecon := make([]float32, n)
	encodeTemporalRef(src.Data, ref.Data, refRecon, q)
	if nlit != q.nlit {
		t.Fatalf("kernel emitted %d literals, oracle %d", nlit, q.nlit)
	}
	for i := range codes {
		if codes[i] != q.codes[i] {
			t.Fatalf("code %d: kernel %d, oracle %d", i, codes[i], q.codes[i])
		}
		if bitsOf(recon[i]) != bitsOf(refRecon[i]) {
			t.Fatalf("recon %d: kernel %v, oracle %v", i, recon[i], refRecon[i])
		}
	}
	if !bytes.Equal(lits, q.lits) {
		t.Fatalf("literal pools differ: kernel %d bytes, oracle %d", len(lits), len(q.lits))
	}

	out := make([]float32, n)
	if lp := decodeTemporalBlock(out, ref.Data, codes, lits, 2*eb, radius); lp != len(lits) {
		t.Fatalf("decode consumed %d literal bytes, pool holds %d", lp, len(lits))
	}
	dq := &dequantizer[float32]{twoEB: 2 * eb, radius: radius, codes: q.codes, lits: q.lits}
	refOut := make([]float32, n)
	if err := decodeTemporalRef(refOut, ref.Data, dq); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if bitsOf(out[i]) != bitsOf(refOut[i]) || bitsOf(out[i]) != bitsOf(recon[i]) {
			t.Fatalf("decode %d: kernel %v, oracle %v, encoder %v", i, out[i], refOut[i], recon[i])
		}
		if d := math.Abs(float64(src.Data[i]) - float64(out[i])); d > eb {
			t.Fatalf("element %d error %g exceeds bound %g", i, d, eb)
		}
		if out[i] != recon[i] {
			t.Fatalf("element %d: decode %v != encoder recon %v", i, out[i], recon[i])
		}
	}
}

// TestCapturePayloadByteIdentity pins the contract CompressBlocksCapture
// ships under: the payload is bit-identical to CompressBlocks, and the
// captured reconstruction equals the decoded output exactly.
func TestCapturePayloadByteIdentity(t *testing.T) {
	blocks := testBlocks(13, 8, 42) // 13 exercises both the quad and tail paths
	opts := Options{ErrorBound: 0.05}
	want, _, err := CompressBlocks(blocks, opts)
	if err != nil {
		t.Fatal(err)
	}
	recons := grid.NewBlocks[float32](blocks[0].Dim, len(blocks))
	var e Encoder[float32]
	got, _, err := e.CompressBlocksCapture(blocks, opts, recons)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("capture payload differs from CompressBlocks (%d vs %d bytes)", len(got), len(want))
	}
	decoded, err := DecompressBlocks[float32](got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range decoded {
		for j := range decoded[i].Data {
			if decoded[i].Data[j] != recons[i].Data[j] {
				t.Fatalf("block %d cell %d: decoded %v, captured %v", i, j, decoded[i].Data[j], recons[i].Data[j])
			}
		}
	}
}

// TestDeltaRoundTrip runs the full delta path: compress against a
// reference, peek, decompress with the same reference, and check the
// bound, the capture, and that delta beats intra on correlated data.
func TestDeltaRoundTrip(t *testing.T) {
	const eb = 0.05
	opts := Options{ErrorBound: eb}
	refSnap := testBlocks(13, 8, 1)
	refRecons := grid.NewBlocks[float32](refSnap[0].Dim, len(refSnap))
	var e Encoder[float32]
	if _, _, err := e.CompressBlocksCapture(refSnap, opts, refRecons); err != nil {
		t.Fatal(err)
	}
	cur := driftBlocks(refSnap, eb, 2)

	recons := grid.NewBlocks[float32](cur[0].Dim, len(cur))
	blob, st, err := e.CompressBlocksDelta(cur, refRecons, opts, recons)
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 13*8*8*8 {
		t.Fatalf("stats N = %d", st.N)
	}

	bi, err := PeekBatch(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bi.Delta || bi.Blocks != 13 || bi.BlockDims != cur[0].Dim {
		t.Fatalf("PeekBatch = %+v", bi)
	}

	out, err := DecompressBlocksDelta(blob, refRecons)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAbsErr(cur, out); got > eb {
		t.Fatalf("max error %g exceeds bound %g", got, eb)
	}
	for i := range out {
		for j := range out[i].Data {
			if out[i].Data[j] != recons[i].Data[j] {
				t.Fatalf("block %d cell %d: captured recon differs from decode", i, j)
			}
		}
	}

	intra, _, err := CompressBlocks(cur, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) >= len(intra) {
		t.Fatalf("delta payload %d bytes, intra %d — no win on correlated data", len(blob), len(intra))
	}

	// One-shot wrapper agrees with the engine byte-for-byte.
	oneShot, _, err := CompressBlocksDelta(cur, refRecons, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneShot, blob) {
		t.Fatal("one-shot delta payload differs from pooled encoder")
	}
}

// TestDeltaChainNoErrorAccumulation encodes a 6-deep reference chain and
// asserts every member individually honors the bound: residuals are taken
// against reconstructed predecessors, so depth never compounds error.
func TestDeltaChainNoErrorAccumulation(t *testing.T) {
	const eb, depth = 0.05, 6
	opts := Options{ErrorBound: eb}
	var e Encoder[float32]
	var d Decoder[float32]

	snap := testBlocks(7, 8, 99)
	prev := grid.NewBlocks[float32](snap[0].Dim, len(snap))
	blob, _, err := e.CompressBlocksCapture(snap, opts, prev)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := d.DecompressBlocks(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAbsErr(snap, decoded); got > eb {
		t.Fatalf("keyframe: max error %g exceeds %g", got, eb)
	}
	for step := 1; step <= depth; step++ {
		snap = driftBlocks(snap, eb, int64(step))
		recons := grid.NewBlocks[float32](snap[0].Dim, len(snap))
		blob, _, err := e.CompressBlocksDelta(snap, prev, opts, recons)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := d.DecompressBlocksDelta(blob, prev)
		if err != nil {
			t.Fatal(err)
		}
		if got := maxAbsErr(snap, decoded); got > eb {
			t.Fatalf("chain depth %d: max error %g exceeds %g", step, got, eb)
		}
		prev = recons
	}
}

// TestDeltaValidation exercises the failure surface: reference count and
// shape mismatches, and kind confusion in both directions.
func TestDeltaValidation(t *testing.T) {
	opts := Options{ErrorBound: 0.05}
	blocks := testBlocks(3, 4, 5)
	refs := grid.NewBlocks[float32](blocks[0].Dim, len(blocks))

	if _, _, err := CompressBlocksDelta(blocks, refs[:2], opts); err == nil {
		t.Fatal("short reference batch accepted")
	}
	badRef := append(append([]*grid.Grid3[float32]{}, refs[:2]...), grid.NewCube[float32](5))
	if _, _, err := CompressBlocksDelta(blocks, badRef, opts); err == nil {
		t.Fatal("mis-shaped reference accepted")
	}

	var e Encoder[float32]
	if _, _, err := e.CompressBlocksCapture(blocks, opts, refs[:2]); err == nil {
		t.Fatal("short capture batch accepted")
	}

	delta, _, err := CompressBlocksDelta(blocks, refs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressBlocks[float32](delta); err == nil {
		t.Fatal("DecompressBlocks decoded a delta payload")
	}
	intra, _, err := CompressBlocks(blocks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressBlocksDelta(intra, refs); err == nil {
		t.Fatal("DecompressBlocksDelta decoded an intra payload")
	}
	if _, err := DecompressBlocksDelta(delta, refs[:2]); err == nil {
		t.Fatal("short reference batch accepted on decode")
	}
	badRef[2] = grid.NewCube[float32](5)
	if _, err := DecompressBlocksDelta(delta, badRef); err == nil {
		t.Fatal("mis-shaped reference accepted on decode")
	}
}
