package sz

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/inflate"
	"repro/internal/sim"
)

// Predictor-stage benchmarks: the Lorenzo prediction/quantization kernels
// in isolation (no entropy or DEFLATE stage), the numbers the PR 4
// boundary-peeled kernels are tracked by. bench/ measures the same stage
// on real snapshots as sz.predict_mb_s and sz.reconstruct_mb_s.

func benchGrid(edge int) *grid.Grid3[float32] {
	return smoothGrid(grid.Dims{X: edge, Y: edge, Z: edge})
}

func BenchmarkLorenzo3Encode(b *testing.B) {
	g := benchGrid(64)
	enc := NewEncoder[float32]()
	opts := Options{ErrorBound: 0.05}
	if _, _, _, err := enc.Predict3D(g, opts); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * g.Dim.Count()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := enc.Predict3D(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLorenzo3Decode(b *testing.B) {
	g := benchGrid(64)
	enc := NewEncoder[float32]()
	opts := Options{ErrorBound: 0.05}
	codes, lits, _, err := enc.Predict3D(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	out := grid.New[float32](g.Dim)
	b.SetBytes(int64(4 * g.Dim.Count()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Reconstruct3D(out, codes, lits, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLorenzo1DEncode / Decode time a whole 1D payload, 64³ values of
// benchGrid(64) as one stream, through a pooled Encoder and Decoder: the
// path the 1D baseline and zMesh take, one 1×1×n block of the 3D kernels.
func BenchmarkLorenzo1DEncode(b *testing.B) {
	vals := benchGrid(64).Data
	enc := NewEncoder[float32]()
	opts := Options{ErrorBound: 0.05}
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := enc.Compress1D(vals, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLorenzo1DDecode(b *testing.B) {
	vals := benchGrid(64).Data
	blob, _, err := Compress1D(vals, Options{ErrorBound: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder[float32]()
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decompress1D(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLorenzo3EncodeRef / DecodeRef measure the retained scalar
// reference kernels for the before/after comparison in EXPERIMENTS.md.
func BenchmarkLorenzo3EncodeRef(b *testing.B) {
	g := benchGrid(64)
	recon := grid.New[float32](g.Dim)
	b.SetBytes(int64(4 * g.Dim.Count()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := newQuantizer[float32](0.05, 16)
		clear(recon.Data)
		encodeLorenzo3Ref(g, recon, q)
	}
}

func BenchmarkLorenzo3DecodeRef(b *testing.B) {
	g := benchGrid(64)
	q := newQuantizer[float32](0.05, 16)
	recon := grid.New[float32](g.Dim)
	encodeLorenzo3Ref(g, recon, q)
	out := grid.New[float32](g.Dim)
	b.SetBytes(int64(4 * g.Dim.Count()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dq := &dequantizer[float32]{twoEB: 2 * 0.05, radius: quantRadius(16), codes: q.codes, lits: q.lits}
		if err := decodeLorenzo3Ref(out, dq); err != nil {
			b.Fatal(err)
		}
	}
}

// The predictor stage as the archive runs it: a frame's worth of unit
// blocks, 64 of 8³ or of 16³, through the batch kernels — "simd" the
// vector path where this build and CPU have one, "portable" the Go kernels
// (both time the same code where they do not).

func benchBatch(b *testing.B, edge int) ([]*grid.Grid3[float32], []*grid.Grid3[float32]) {
	d := grid.Dims{X: edge, Y: edge, Z: edge}
	blocks, refs := grid.NewBlocks[float32](d, 64), grid.NewBlocks[float32](d, 64)
	for k := range blocks {
		g := smoothGrid(d)
		for i, v := range g.Data {
			blocks[k].Data[i] = v + float32(k)
			refs[k].Data[i] = v + float32(k) + float32(i%7)*0.03
		}
	}
	b.SetBytes(int64(4 * 64 * d.Count()))
	return blocks, refs
}

func eachBatchKernel(b *testing.B, run func(b *testing.B, edge int, scalar bool)) {
	for _, edge := range []int{8, 16} {
		for _, path := range []string{"portable", "simd"} {
			b.Run(fmt.Sprintf("64x%d^3/%s", edge, path), func(b *testing.B) { run(b, edge, path == "portable") })
		}
	}
}

func BenchmarkEncodeBatch(b *testing.B) {
	eachBatchKernel(b, func(b *testing.B, edge int, scalar bool) {
		blocks, _ := benchBatch(b, edge)
		benchEncodeSpatial(b, blocks, scalar, false)
	})
}

// BenchmarkEncodeBatchSalted is BenchmarkEncodeBatch on saltedBlocks, whose
// code streams hold literal markers — about one cell in sixty an outlier,
// and in one block of five NaNs and infinities that make markers of what
// they predict — timing the kernels and then the one pass over the codes
// that the seal makes to build the literal pool of such a stream.
func BenchmarkEncodeBatchSalted(b *testing.B) {
	eachBatchKernel(b, func(b *testing.B, edge int, scalar bool) {
		d := grid.Dims{X: edge, Y: edge, Z: edge}
		blocks, _ := saltedBlocks(d, 64, 0.05, int64(edge))
		b.SetBytes(int64(4 * 64 * d.Count()))
		benchEncodeSpatial(b, blocks, scalar, true)
	})
}

// benchEncodeSpatial times encodeSpatial on blocks, followed, if pool is
// set, by appendLiterals over the codes.
func benchEncodeSpatial(b *testing.B, blocks []*grid.Grid3[float32], scalar, pool bool) {
	e := &Encoder[float32]{scalar: scalar}
	d, per := blocks[0].Dim, blocks[0].Dim.Count()
	codes, recon := make([]uint32, len(blocks)*per), make([]float32, 4*per)
	rec := func(i int) []float32 { return recon[i%4*per:][:per] }
	nlit := 0
	for b.Loop() {
		e.encodeSpatial(blocks, d, codes, 0.05, 1<<15, rec, false)
		if pool {
			e.lits = appendLiterals(e.lits[:0], codes, blocks)
			nlit = len(e.lits) / 4
		}
	}
	if pool && nlit == 0 {
		b.Fatal("no literals: not the case this benchmark is for")
	}
}

func BenchmarkEncodeTemporalBatch(b *testing.B) {
	eachBatchKernel(b, func(b *testing.B, edge int, scalar bool) {
		blocks, refs := benchBatch(b, edge)
		e := &Encoder[float32]{scalar: scalar}
		per := blocks[0].Dim.Count()
		codes, recon := make([]uint32, 64*per), make([]float32, per)
		rec := func(int) []float32 { return recon }
		for b.Loop() {
			e.encodeTemporal(blocks, refs, codes, 0.05, 1<<15, rec)
		}
	})
}

// BenchmarkDecodeTemporalBatch is the decode twin of
// BenchmarkEncodeTemporalBatch: the same frame coded against its
// references, then decoded whole — the entropy stage, whose codebook
// holds the handful of residual bins a delta frame has, and the temporal
// kernel — with DEFLATE off, as in BenchmarkDecodeBatch.
func BenchmarkDecodeTemporalBatch(b *testing.B) {
	eachBatchKernel(b, func(b *testing.B, edge int, scalar bool) {
		blocks, refs := benchBatch(b, edge)
		e := &Encoder[float32]{scalar: scalar}
		blob, _, err := e.CompressBlocksDelta(blocks, refs, Options{ErrorBound: 0.05, DisableLossless: true}, nil)
		if err != nil {
			b.Fatal(err)
		}
		d := &Decoder[float32]{scalar: scalar}
		out := grid.NewBlocks[float32](blocks[0].Dim, len(blocks))
		for b.Loop() {
			if err := d.DecompressBlocksDeltaInto(out, blob, refs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeBatch(b *testing.B) {
	eachBatchKernel(b, func(b *testing.B, edge int, scalar bool) {
		blocks, _ := benchBatch(b, edge)
		blob, _, err := CompressBlocks(blocks, Options{ErrorBound: 0.05, DisableLossless: true})
		if err != nil {
			b.Fatal(err)
		}
		d := &Decoder[float32]{scalar: scalar}
		bt, err := d.openBatch(blob, kindBatch)
		if err != nil {
			b.Fatal(err)
		}
		out := grid.NewBlocks[float32](bt.dims, bt.count)
		for b.Loop() {
			if err := d.reconstruct(bt, out, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The lossless stage as the archive writer and reader run it, on the two
// kinds of section deflateAppend tells apart: the code section of a 64×8³
// Lorenzo batch cut from a snapshot of the bench corpus' distribution,
// which DEFLATE cannot shrink and the rule stores unseen, and that of
// eitherCases' tiled512 batch, which folds to a tenth and goes to flate.
// ns/op is one seal (Huffman and both sections; allocs/op 1, the payload)
// or one unseal; section-µs is the code section through deflateAppend
// alone, section-B what it came to. BenchmarkSealSalted is the seal of a
// stream that holds literal markers, which, unlike the other two, builds
// its literal pool.

func corpusBatch(tb testing.TB) []*grid.Grid3[float32] {
	tb.Helper()
	ds, err := sim.Generate(sim.Spec{Name: "bench", FinestN: 64, Levels: 2, UnitBlock: 8, Seed: 1001, LeafFractions: []float64{0.58, 0.42}}, sim.BaryonDensity)
	if err != nil {
		tb.Fatal(err)
	}
	l := ds.Levels[0]
	blocks := grid.NewBlocks[float32](grid.Dims{X: 8, Y: 8, Z: 8}, 64)
	for i, ord := range l.Mask.OccupiedIndices()[:len(blocks)] {
		l.Grid.CopyRegionTo(l.BlockRegion(l.Mask.Dim.Coords(ord)), blocks[i].Data)
	}
	return blocks
}

const corpusEB = 1e9 // the bench corpus' bound on baryon density

func benchSeal(b *testing.B, blocks []*grid.Grid3[float32], eb float64, wantStored bool) {
	var e Encoder[float32]
	d, total := blocks[0].Dim, len(blocks)*blocks[0].Dim.Count()
	codes := make([]uint32, total)
	rec := make([]float32, 4*d.Count())
	e.encodeSpatial(blocks, d, codes, eb, 1<<15, func(i int) []float32 { return rec[i%4*d.Count():][:d.Count()] }, false)
	dims := []grid.Dims{d, {X: len(blocks)}}
	opts := Options{ErrorBound: eb}.withDefaults()

	huff := e.huff.AppendEncode(nil, codes)
	sec, err := deflateAppend(nil, huff, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, stored := storedAppend(nil, sec); stored != wantStored {
		b.Fatalf("code section of %d B sealed to %d B, stored=%v: not the case this benchmark is for", len(huff), len(sec), stored)
	}
	t0 := time.Now()
	const reps = 16
	for i := 0; i < reps; i++ {
		sec, _ = deflateAppend(sec[:0], huff, 0)
	}
	perSection := float64(time.Since(t0).Microseconds()) / reps

	b.SetBytes(int64(4 * total))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := e.sealWithin(0, kindBatch, dims, total, eb, opts, codes, blocks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(e.lits)/4), "literals")
	b.ReportMetric(perSection, "section-µs")
	b.ReportMetric(float64(len(sec)), "section-B")
}

func BenchmarkSealIncompressible(b *testing.B) { benchSeal(b, corpusBatch(b), corpusEB, true) }

func BenchmarkSealFoldable(b *testing.B) { benchSeal(b, eitherCases()["tiled512"][1], 0.05, false) }

func BenchmarkSealSalted(b *testing.B) {
	blocks, _ := saltedBlocks(grid.Dims{X: 8, Y: 8, Z: 8}, 64, 0.05, 8)
	benchSeal(b, blocks, 0.05, true)
}

// BenchmarkInflate times the reader's DEFLATE stage where it has work: the
// code sections of delta frames, here of four steps of a campaign drifting
// from corpusBatch as the bench corpus' does, which DEFLATE shrinks and
// so leaves coded. MB/s counts inflated bytes; "flate" is compress/flate's
// reader on the same sections, for the record.
func BenchmarkInflate(b *testing.B) {
	opts := Options{ErrorBound: corpusEB}
	var secs [][]byte
	total := 0
	for cur, step := corpusBatch(b), int64(0); step < 4; step++ {
		refs := reconOf(b, cur, opts)
		cur = driftBlocks(cur, corpusEB, step)
		blob, _, err := CompressBlocksDelta(cur, refs, opts)
		if err != nil {
			b.Fatal(err)
		}
		_, code, _ := sections(b, blob)
		if _, stored := storedAppend(nil, code); stored {
			b.Fatalf("step %d: the code section is stored: not the case this benchmark is for", step)
		}
		raw, err := flateInflate(code)
		if err != nil {
			b.Fatal(err)
		}
		secs, total = append(secs, code), total+len(raw)
	}
	b.Run("inflate", func(b *testing.B) {
		var d inflate.Decoder
		var out []byte
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for b.Loop() {
			for _, sec := range secs {
				var err error
				if out, err = d.Append(out[:0], sec, math.MaxInt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("flate", func(b *testing.B) {
		fr := flate.NewReader(nil)
		var out bytes.Buffer
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for b.Loop() {
			for _, sec := range secs {
				out.Reset()
				fr.(flate.Resetter).Reset(bytes.NewReader(sec), nil)
				if _, err := out.ReadFrom(fr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkUnsealStored(b *testing.B) {
	blocks := corpusBatch(b)
	blob, _, err := CompressBlocks(blocks, Options{ErrorBound: corpusEB})
	if err != nil {
		b.Fatal(err)
	}
	if info, err := PeekBatch(blob); err != nil || !info.CodeStored {
		b.Fatalf("PeekBatch = %+v, %v: want a stored code section", info, err)
	}
	var d Decoder[float32]
	b.SetBytes(int64(4 * len(blocks) * blocks[0].Dim.Count()))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, err := d.unseal(blob, kindBatch); err != nil {
			b.Fatal(err)
		}
	}
}
