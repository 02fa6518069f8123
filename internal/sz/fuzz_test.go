package sz

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"repro/internal/grid"
)

// fuzzSeeds builds one valid payload of every kind (plus a lossless-off
// variant) so the fuzzer starts from structurally plausible inputs; the
// same seeds are checked in under testdata/fuzz for deterministic CI runs.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte

	vals := make([]float32, 257)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) / 9))
	}
	b1, _, err := Compress1D(vals, Options{ErrorBound: 1e-2})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, b1)

	g := grid.NewCube[float32](6)
	for i := range g.Data {
		g.Data[i] = vals[i%len(vals)]
	}
	b3, _, err := Compress3D(g, Options{ErrorBound: 1e-2})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, b3)

	blocks := []*grid.Grid3[float32]{g.Clone(), g.Clone(), g.Clone()}
	blocks[1].Data[7] = 1e30 // force a literal
	bb, _, err := CompressBlocks(blocks, Options{ErrorBound: 1e-2})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, bb)

	raw, _, err := CompressBlocks(blocks, Options{ErrorBound: 1e-2, DisableLossless: true})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, raw)

	// A CompressSlices payload: a batch of X×Y×1 blocks, the 2D shape.
	flat := grid.New[float32](grid.Dims{X: 16, Y: 15, Z: 1})
	copy(flat.Data, vals)
	b2, _, err := CompressSlices(flat, Options{ErrorBound: 1e-2})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, b2)

	// A temporal (kindBatchDelta) payload: blocks predicted from a drifted
	// reference snapshot, exercising the delta decode surface.
	refs := make([]*grid.Grid3[float32], len(blocks))
	for i, b := range blocks {
		r := b.Clone()
		for j := range r.Data {
			r.Data[j] += 0.03
		}
		refs[i] = r
	}
	bd, _, err := CompressBlocksDelta(blocks, refs, Options{ErrorBound: 1e-2})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, bd)
	return seeds
}

// TestWriteDeltaSeedCorpus writes the temporal-payload seeds into the
// checked-in corpora under testdata/fuzz when UPDATE_FUZZ_SEEDS=1 is set
// (a no-op otherwise), so CI's deterministic fuzz runs cover the delta
// decode path without relying on in-process f.Add ordering.
func TestWriteDeltaSeedCorpus(t *testing.T) {
	if os.Getenv("UPDATE_FUZZ_SEEDS") == "" {
		t.Skip("set UPDATE_FUZZ_SEEDS=1 to rewrite testdata/fuzz delta seeds")
	}
	seeds := fuzzSeeds(t)
	delta := seeds[len(seeds)-1] // the kindBatchDelta payload is appended last
	write := func(dir, name string, data []byte) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(dir+"/"+name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("testdata/fuzz/FuzzParseHeader", "seed_delta0", delta)
	write("testdata/fuzz/FuzzDecompress", "seed_delta0", delta)
	write("testdata/fuzz/FuzzDecompress", "seed_delta1", delta[:len(delta)-3]) // torn tail
	mut := append([]byte(nil), delta...)
	mut[len(mut)/3] ^= 0x40
	write("testdata/fuzz/FuzzDecompress", "seed_delta2", mut) // bit-flipped body
}

// FuzzParseHeader fuzzes the header parser and the header-only PeekBatch
// path: no input may panic or claim implausible geometry that would make a
// caller over-allocate.
func FuzzParseHeader(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
		if len(s) > 4 {
			f.Add(s[:len(s)/2]) // truncated
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, _, err := parseHeader(data)
		if err == nil {
			if h.n < 0 || h.n > min(1<<40, math.MaxInt) {
				t.Fatalf("parseHeader accepted implausible n=%d", h.n)
			}
			for _, d := range h.dims {
				if d.X < 0 || d.Y < 0 || d.Z < 0 || d.X > min(1<<40, math.MaxInt) || d.Y > min(1<<40, math.MaxInt) || d.Z > min(1<<40, math.MaxInt) {
					t.Fatalf("parseHeader accepted implausible dims %v", d)
				}
			}
		}
		if info, err := PeekBatch(data); err == nil {
			if info.Blocks <= 0 || info.BlockDims.Count() <= 0 {
				t.Fatalf("PeekBatch accepted implausible geometry %+v", info)
			}
		}
	})
}

// FuzzDecompress fuzzes the full unseal + entropy decode + reconstruction
// paths of every payload kind in both element widths. Corrupt inputs must error (or round-trip), never panic or
// over-allocate.
func FuzzDecompress(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
		if len(s) > 8 {
			mut := append([]byte(nil), s...)
			mut[len(mut)/3] ^= 0x40 // bit-flipped body
			f.Add(mut)
			f.Add(s[:len(s)-3]) // truncated tail
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Decompress1D[float32](data)
		_, _ = Decompress1D[float64](data)
		_, _ = Decompress3D[float32](data)
		// Decode into a grid of the dims a 3D payload claims (bounded like
		// the delta refs below), so corrupt bodies reach the kernel.
		if h, _, err := parseHeader(data); err == nil && h.kind == kindGrid3D && len(h.dims) == 1 {
			if n, ok := h.dims[0].CheckedCount(min(1<<40, math.MaxInt)); ok && n <= 64*4096 {
				_ = NewDecoder[float32]().Decompress3DInto(grid.New[float32](h.dims[0]), data)
			}
		}
		_, _ = DecompressBlocks[float32](data)
		_, _ = DecompressBlocks[float64](data)
		// Delta decode with a reference batch matching whatever geometry the
		// payload claims (bounded), so corrupt bodies reach the temporal
		// kernel rather than dying at the shape check.
		if info, err := PeekBatch(data); err == nil &&
			info.Blocks <= 64 && info.BlockDims.Count() <= 4096 {
			refs := grid.NewBlocks[float32](info.BlockDims, info.Blocks)
			_, _ = DecompressBlocksDelta(data, refs)
		}
		// Whatever unseals: offsets from the codebook are offsets from the scan.
		shortcutEqualsScan[float32](t, "fuzz input", data)
		shortcutEqualsScan[float64](t, "fuzz input as float64", data)
	})
}
