package sz

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func smooth2D(nx, ny int) []float32 {
	out := make([]float32, nx*ny)
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			out[x*ny+y] = float32(50*math.Sin(float64(x)/9)*math.Cos(float64(y)/7) + float64(x))
		}
	}
	return out
}

// decompressSlices reads a CompressSlices payload back into the grid it
// came from: block z of the batch is slice z.
func decompressSlices(t *testing.T, blob []byte) *grid.Grid3[float32] {
	t.Helper()
	slices, err := DecompressBlocks[float32](blob)
	if err != nil {
		t.Fatal(err)
	}
	sd := slices[0].Dim
	if sd.Z != 1 {
		t.Fatalf("slice dims %v, want one cell thick", sd)
	}
	out := grid.New[float32](grid.Dims{X: sd.X, Y: sd.Y, Z: len(slices)})
	for i := range out.Data {
		out.Data[i] = slices[i%len(slices)].Data[i/len(slices)]
	}
	return out
}

// TestRoundTrip2DWithinBound codes a 2D field, one slice thick, and
// checks the bound and that the 2D predictor finds its smoothness.
func TestRoundTrip2DWithinBound(t *testing.T) {
	g := grid.New[float32](grid.Dims{X: 40, Y: 28, Z: 1})
	copy(g.Data, smooth2D(40, 28))
	eb := 0.01
	blob, st, err := CompressSlices(g, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	got := decompressSlices(t, blob)
	if got.Dim != g.Dim {
		t.Fatalf("dims %v, want %v", got.Dim, g.Dim)
	}
	if mad := grid.MaxAbsDiff(g, got); mad > eb*(1+1e-9) {
		t.Fatalf("max abs diff %v exceeds bound", mad)
	}
	if st.Ratio() < 3 {
		t.Fatalf("smooth 2D field compressed only %.1fx", st.Ratio())
	}
}

func TestCompress2DNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := grid.New[float32](grid.Dims{X: 32, Y: 32, Z: 1})
	for i := range g.Data {
		g.Data[i] = float32(rng.NormFloat64() * 1e5)
	}
	eb := 10.0
	blob, _, err := CompressSlices(g, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	if mad := grid.MaxAbsDiff(g, decompressSlices(t, blob)); mad > eb*(1+1e-9) {
		t.Fatalf("max abs diff %v exceeds bound", mad)
	}
}

func TestSlicesRoundTrip(t *testing.T) {
	g := smoothGrid(grid.Dims{X: 16, Y: 12, Z: 10})
	eb := 0.05
	blob, st, err := CompressSlices(g, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != g.Dim.Count() {
		t.Fatalf("stats N %d, want %d", st.N, g.Dim.Count())
	}
	got := decompressSlices(t, blob)
	if got.Dim != g.Dim {
		t.Fatalf("dims %v, want %v", got.Dim, g.Dim)
	}
	if mad := grid.MaxAbsDiff(g, got); mad > eb*(1+1e-9) {
		t.Fatalf("max abs diff %v exceeds bound", mad)
	}
}

func TestDimensionalityOrdering(t *testing.T) {
	// The Sec. 2.3 premise: on a smooth 3D field at the same bound,
	// higher-dimensional prediction compresses smaller.
	g := smoothGrid(grid.Dims{X: 32, Y: 32, Z: 32})
	opts := Options{ErrorBound: 0.01}
	b1, _, err := Compress1D(g.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := CompressSlices(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b3, _, err := Compress3D(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !(len(b3) < len(b2) && len(b2) < len(b1)) {
		t.Fatalf("expected 3D < 2D < 1D, got %d / %d / %d bytes", len(b3), len(b2), len(b1))
	}
}
