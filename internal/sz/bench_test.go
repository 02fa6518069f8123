package sz

import (
	"testing"

	"repro/internal/grid"
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
