package sz

import (
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

// smoothGrid builds a smooth 3D field: the kind SZ predicts well.
func smoothGrid(d grid.Dims) *grid.Grid3[float32] {
	g := grid.New[float32](d)
	for x := 0; x < d.X; x++ {
		for y := 0; y < d.Y; y++ {
			for z := 0; z < d.Z; z++ {
				v := math.Sin(float64(x)/7) * math.Cos(float64(y)/5) * math.Sin(float64(z)/9)
				g.Set(x, y, z, float32(100*v+float64(x+y+z)))
			}
		}
	}
	return g
}

func noisyValues(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * 1e6)
	}
	return out
}

func TestRoundTrip1DWithinBound(t *testing.T) {
	vals := noisyValues(10000, 1)
	for _, eb := range []float64{1, 100, 1e4} {
		blob, st, err := Compress1D(vals, Options{ErrorBound: eb})
		if err != nil {
			t.Fatalf("eb=%v: %v", eb, err)
		}
		got, err := Decompress1D[float32](blob)
		if err != nil {
			t.Fatalf("eb=%v decompress: %v", eb, err)
		}
		if len(got) != len(vals) {
			t.Fatalf("eb=%v: got %d values, want %d", eb, len(got), len(vals))
		}
		for i := range vals {
			if d := math.Abs(float64(vals[i]) - float64(got[i])); d > eb*(1+1e-9) {
				t.Fatalf("eb=%v: value %d error %v exceeds bound", eb, i, d)
			}
		}
		if st.N != len(vals) {
			t.Fatalf("stats N = %d", st.N)
		}
	}
}

func TestRoundTrip3DWithinBound(t *testing.T) {
	g := smoothGrid(grid.Dims{X: 24, Y: 20, Z: 28})
	eb := 0.01
	blob, st, err := Compress3D(g, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress3D[float32](blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != g.Dim {
		t.Fatalf("dims %v, want %v", got.Dim, g.Dim)
	}
	if mad := grid.MaxAbsDiff(g, got); mad > eb*(1+1e-9) {
		t.Fatalf("max abs diff %v exceeds bound %v", mad, eb)
	}
	if st.Ratio() < 4 {
		t.Fatalf("smooth field compressed only %.1fx", st.Ratio())
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	d := grid.Dims{X: 12, Y: 12, Z: 12}
	g := grid.New[float64](d)
	rng := rand.New(rand.NewSource(5))
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	eb := 1e-4
	blob, _, err := Compress3D(g, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress3D[float64](blob)
	if err != nil {
		t.Fatal(err)
	}
	if mad := grid.MaxAbsDiff(g, got); mad > eb*(1+1e-12) {
		t.Fatalf("max abs diff %v exceeds bound", mad)
	}
}

func TestBlocksRoundTrip(t *testing.T) {
	d := grid.Dims{X: 8, Y: 8, Z: 8}
	rng := rand.New(rand.NewSource(11))
	var blocks []*grid.Grid3[float32]
	for b := 0; b < 7; b++ {
		g := grid.New[float32](d)
		for i := range g.Data {
			g.Data[i] = float32(rng.NormFloat64()*10 + float64(b)*100)
		}
		blocks = append(blocks, g)
	}
	eb := 0.05
	blob, st, err := CompressBlocks(blocks, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 7*d.Count() {
		t.Fatalf("stats N = %d, want %d", st.N, 7*d.Count())
	}
	got, err := DecompressBlocks[float32](blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("got %d blocks, want %d", len(got), len(blocks))
	}
	for i := range blocks {
		if mad := grid.MaxAbsDiff(blocks[i], got[i]); mad > eb*(1+1e-9) {
			t.Fatalf("block %d max abs diff %v exceeds bound", i, mad)
		}
	}
	if _, err := DecompressBlocks[float32](blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated batch payload should error")
	}
	if _, err := DecompressBlocks[float32](nil); err == nil {
		t.Fatal("nil batch payload should error")
	}
}

func TestBlocksRejectMixedShapes(t *testing.T) {
	if _, _, err := CompressBlocks[float32](nil, Options{ErrorBound: 1}); err == nil {
		t.Fatal("an empty batch should be rejected")
	}
	a := grid.New[float32](grid.Dims{X: 4, Y: 4, Z: 4})
	b := grid.New[float32](grid.Dims{X: 4, Y: 4, Z: 8})
	if _, _, err := CompressBlocks([]*grid.Grid3[float32]{a, b}, Options{ErrorBound: 1}); err == nil {
		t.Fatal("mixed shapes should be rejected")
	}
}

func TestInvalidOptions(t *testing.T) {
	g := grid.New[float32](grid.Dims{X: 2, Y: 2, Z: 2})
	if _, _, err := Compress3D(g, Options{ErrorBound: 0}); err == nil {
		t.Fatal("zero error bound should be rejected")
	}
	if _, _, err := Compress3D(g, Options{ErrorBound: -1}); err == nil {
		t.Fatal("negative error bound should be rejected")
	}
	if _, _, err := Compress3D(g, Options{ErrorBound: 1, QuantBits: 1}); err == nil {
		t.Fatal("QuantBits=1 should be rejected")
	}
	// The Huffman encoder's alphabet ends at 16 bits: wider codes are an
	// error, not its panic.
	if _, _, err := Compress3D(g, Options{ErrorBound: 1, QuantBits: 17}); err == nil || !strings.Contains(err.Error(), "[2,16]") {
		t.Fatalf("QuantBits=17: err %v, want the [2,16] range", err)
	}
	if _, _, err := Compress3D(g, Options{ErrorBound: 1, QuantBits: 16}); err != nil {
		t.Fatalf("QuantBits=16: %v", err)
	}
}

// TestBatchPastMaxSymbolsRefused: a batch of more values than the Huffman
// encoder counts is an error before any is coded. The batch is one 2^20-cell
// block listed 2^12 times, so it costs 4 MiB, not 16 GiB.
func TestBatchPastMaxSymbolsRefused(t *testing.T) {
	g := grid.New[float32](grid.Dims{X: 1 << 10, Y: 1 << 10, Z: 1})
	blocks := make([]*grid.Grid3[float32], 1<<12)
	for i := range blocks {
		blocks[i] = g
	}
	if _, _, err := CompressBlocks(blocks, Options{ErrorBound: 1}); err == nil || !strings.Contains(err.Error(), "past the Huffman stage") {
		t.Fatalf("2^32 values: err %v, want a refusal", err)
	}
}

func TestKindMismatch(t *testing.T) {
	vals := noisyValues(100, 2)
	blob, _, err := Compress1D(vals, Options{ErrorBound: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress3D[float32](blob); err == nil {
		t.Fatal("decoding a 1D payload as 3D should error")
	}
}

// TestPayloadKindsRefuseEachOther: every payload kind has a number of its
// own, so each one-shot decoder, and PeekBatch, turns another kind's
// payload away on the kind, before its geometry is looked at.
func TestPayloadKindsRefuseEachOther(t *testing.T) {
	g := smoothGrid(grid.Dims{X: 6, Y: 5, Z: 4})
	blocks, refs := testBlocks(3, 4, 7), testBlocks(3, 4, 8)
	opts := Options{ErrorBound: 0.1}
	must := func(blob []byte, _ Stats, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	kinds := []struct {
		name    string
		kind    int
		payload []byte
		decode  func([]byte) error
	}{
		{"1D", kindRaw1D, must(Compress1D(g.Data, opts)), func(b []byte) error {
			_, err := Decompress1D[float32](b)
			return err
		}},
		{"3D", kindGrid3D, must(Compress3D(g, opts)), func(b []byte) error {
			_, err := Decompress3D[float32](b)
			return err
		}},
		{"batch", kindBatch, must(CompressBlocks(blocks, opts)), func(b []byte) error {
			_, err := DecompressBlocks[float32](b)
			return err
		}},
		{"delta", kindBatchDelta, must(CompressBlocksDelta(blocks, refs, opts)), func(b []byte) error {
			_, err := DecompressBlocksDelta(b, refs)
			return err
		}},
	}
	for _, dec := range kinds {
		for _, p := range kinds {
			err := dec.decode(p.payload)
			switch {
			case p.kind == dec.kind && err != nil:
				t.Errorf("%s decoder on its own payload: %v", dec.name, err)
			case p.kind != dec.kind && (err == nil || !strings.Contains(err.Error(), "payload kind")):
				t.Errorf("%s decoder on a %s payload: %v, want a payload-kind refusal", dec.name, p.name, err)
			}
		}
	}
	for _, p := range kinds {
		info, err := PeekBatch(p.payload)
		switch p.kind {
		case kindBatch, kindBatchDelta:
			if err != nil || info.Delta != (p.kind == kindBatchDelta) {
				t.Errorf("PeekBatch on a %s payload: %+v, %v", p.name, info, err)
			}
		default:
			if err == nil || !strings.Contains(err.Error(), "payload kind") {
				t.Errorf("PeekBatch on a %s payload: %v, want a payload-kind refusal", p.name, err)
			}
		}
	}
}

// TestHeaderGeometryRefused seals headers whose dim records break the rule
// of their kind — none for a 1D stream, one covering n for a 3D grid, a
// shape and a count covering n for a batch — and holds every decoder and
// PeekBatch to an error, never a panic. The valid header of each kind, on
// the same code stream, decodes through its own decoder.
func TestHeaderGeometryRefused(t *testing.T) {
	const n = 24
	const huge = 1 << min(40, bits.UintSize-2) // cubed, past any int
	shape := grid.Dims{X: 2, Y: 3, Z: 4}
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(quantRadius(16))
	}
	opts := Options{QuantBits: 16, DisableLossless: true}
	rows := []struct {
		name string
		kind int
		dims []grid.Dims
		ok   bool // a valid header: its own decoder must accept it
	}{
		{"1D", kindRaw1D, nil, true},
		{"1D with a dim record", kindRaw1D, []grid.Dims{{X: 1, Y: 1, Z: n}}, false},
		{"3D", kindGrid3D, []grid.Dims{shape}, true},
		{"3D without a record", kindGrid3D, nil, false},
		{"3D with two records", kindGrid3D, []grid.Dims{shape, {X: 1}}, false},
		{"3D dims short of n", kindGrid3D, []grid.Dims{{X: 2, Y: 3, Z: 3}}, false},
		{"3D dims past n", kindGrid3D, []grid.Dims{{X: 2, Y: 3, Z: 5}}, false},
		{"3D dims overflowing", kindGrid3D, []grid.Dims{{X: huge, Y: huge, Z: huge}}, false},
		{"batch", kindBatch, []grid.Dims{shape, {X: 1}}, true},
		{"batch with one record", kindBatch, []grid.Dims{shape}, false},
		{"batch count × shape ≠ n", kindBatch, []grid.Dims{shape, {X: 2}}, false},
		{"batch of no blocks", kindBatch, []grid.Dims{shape, {X: 0}}, false},
		{"batch of empty blocks", kindBatch, []grid.Dims{{X: 0, Y: 3, Z: 4}, {X: n}}, false},
		{"delta with one record", kindBatchDelta, []grid.Dims{shape}, false},
		{"delta count × shape ≠ n", kindBatchDelta, []grid.Dims{{X: 1, Y: 3, Z: 4}, {X: 3}}, false},
	}
	for _, r := range rows {
		blob := seal[float32](t, r.kind, r.dims, n, 0.5, opts, codes, nil)
		into := grid.New[float32](grid.Dims{X: 1, Y: 1, Z: n})
		if len(r.dims) > 0 && r.dims[0].X < 1<<20 {
			into = grid.New[float32](r.dims[0])
		}
		decoders := []struct {
			name string
			kind int
			err  error
		}{
			{"Decompress1D", kindRaw1D, second(Decompress1D[float32](blob))},
			{"Decompress3D", kindGrid3D, second(Decompress3D[float32](blob))},
			{"Decompress3DInto", kindGrid3D, NewDecoder[float32]().Decompress3DInto(into, blob)},
			{"DecompressBlocks", kindBatch, second(DecompressBlocks[float32](blob))},
			{"PeekBatch", kindBatch, second(PeekBatch(blob))},
		}
		for _, d := range decoders {
			if want := r.ok && d.kind == r.kind; want != (d.err == nil) {
				t.Errorf("%s: %s: %v", r.name, d.name, d.err)
			}
		}
	}
}

// second returns the error of a (value, error) pair.
func second[V any](_ V, err error) error { return err }

func TestCorruptPayload(t *testing.T) {
	g := smoothGrid(grid.Dims{X: 8, Y: 8, Z: 8})
	blob, _, err := Compress3D(g, Options{ErrorBound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress3D[float32](nil); err == nil {
		t.Fatal("nil payload should error")
	}
	if _, err := Decompress3D[float32](blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated payload should error")
	}
	garbage := append([]byte{}, blob...)
	garbage[0] ^= 0xff
	if _, err := Decompress3D[float32](garbage); err == nil {
		t.Fatal("bad magic should error")
	}
}

func TestConstantField(t *testing.T) {
	g := grid.New[float32](grid.Dims{X: 16, Y: 16, Z: 16})
	g.Fill(42)
	blob, st, err := Compress3D(g, Options{ErrorBound: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress3D[float32](blob)
	if err != nil {
		t.Fatal(err)
	}
	if mad := grid.MaxAbsDiff(g, got); mad > 1e-6 {
		t.Fatalf("constant field error %v", mad)
	}
	if st.Ratio() < 50 {
		t.Fatalf("constant field ratio only %.1f", st.Ratio())
	}
}

func TestSpikyDataStaysBounded(t *testing.T) {
	// Huge dynamic range with spikes: bound must hold even when most
	// residuals exceed the quantization range.
	rng := rand.New(rand.NewSource(13))
	g := grid.New[float32](grid.Dims{X: 12, Y: 12, Z: 12})
	for i := range g.Data {
		g.Data[i] = float32(math.Exp(rng.NormFloat64() * 10))
	}
	eb := 1e-3
	blob, _, err := Compress3D(g, Options{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress3D[float32](blob)
	if err != nil {
		t.Fatal(err)
	}
	if mad := grid.MaxAbsDiff(g, got); mad > eb*(1+1e-9) {
		t.Fatalf("max abs diff %v exceeds bound %v", mad, eb)
	}
}

func TestQuickErrorBoundProperty(t *testing.T) {
	// Property: for arbitrary data and bounds, round-trip error ≤ bound.
	f := func(seed int64, ebExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eb := math.Pow(10, float64(int(ebExp%8))-4) // 1e-4 .. 1e3
		d := grid.Dims{X: 6, Y: 6, Z: 6}
		g := grid.New[float32](d)
		for i := range g.Data {
			g.Data[i] = float32(rng.NormFloat64() * 1e3)
		}
		blob, _, err := Compress3D(g, Options{ErrorBound: eb})
		if err != nil {
			return false
		}
		got, err := Decompress3D[float32](blob)
		if err != nil {
			return false
		}
		return grid.MaxAbsDiff(g, got) <= eb*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallerBoundLargerPayload(t *testing.T) {
	g := smoothGrid(grid.Dims{X: 32, Y: 32, Z: 32})
	var prev int
	for i, eb := range []float64{10, 1, 0.1, 0.01} {
		blob, _, err := Compress3D(g, Options{ErrorBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(blob) < prev {
			t.Fatalf("tighter bound %v produced smaller payload (%d < %d)", eb, len(blob), prev)
		}
		prev = len(blob)
	}
}

func TestStatsLiterals(t *testing.T) {
	// Alternating extreme values defeat the predictor; most values should
	// still be within bound thanks to literals.
	g := grid.New[float32](grid.Dims{X: 8, Y: 8, Z: 8})
	for i := range g.Data {
		if i%2 == 0 {
			g.Data[i] = 1e30
		} else {
			g.Data[i] = -1e30
		}
	}
	blob, st, err := Compress3D(g, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Literals == 0 {
		t.Fatal("expected literal fallbacks for adversarial data")
	}
	got, err := Decompress3D[float32](blob)
	if err != nil {
		t.Fatal(err)
	}
	if mad := grid.MaxAbsDiff(g, got); mad > 1e-3 {
		t.Fatalf("adversarial data error %v", mad)
	}
}

func TestDisableLossless(t *testing.T) {
	g := smoothGrid(grid.Dims{X: 16, Y: 16, Z: 16})
	blob, _, err := Compress3D(g, Options{ErrorBound: 0.01, DisableLossless: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress3D[float32](blob)
	if err != nil {
		t.Fatal(err)
	}
	if mad := grid.MaxAbsDiff(g, got); mad > 0.01*(1+1e-9) {
		t.Fatalf("error %v", mad)
	}
}

func TestModeString(t *testing.T) {
	if Abs.String() != "abs" || Rel.String() != "rel" {
		t.Fatalf("mode strings: %q %q", Abs.String(), Rel.String())
	}
}
