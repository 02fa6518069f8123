package sz

import (
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/grid"
)

// Payloads coded at QuantBits 20 and 30: every code but the literal marker
// lies past 2^16, so their Huffman codebooks list symbols no 16-bit
// alphabet holds. testdata/parent_wide.txt holds, one line a case, "name
// hex": the payload a build whose encoder still coded such streams wrote
// for each input below. The header accepts QuantBits up to 30, so these
// must go on decoding, to the values that build decoded. Never rewrite the
// file with the current encoder.

// wideInputs returns the inputs of the wide fixtures: a 3D grid and a
// batch of blocks, each a smooth field with spikes (literals) and jitter.
func wideInputs() (*grid.Grid3[float32], []*grid.Grid3[float32]) {
	rng := rand.New(rand.NewSource(2020))
	g := grid.New[float32](grid.Dims{X: 14, Y: 11, Z: 9})
	litField(g.Data, 0.5)
	litSpikes(rng, g.Data, 40)
	litJitter(rng, g.Data, 3)
	blocks := litBatch[float32](grid.Dims{X: 6, Y: 5, Z: 4}, 7)
	for _, b := range blocks {
		litSpikes(rng, b.Data, 40)
		litJitter(rng, b.Data, 3)
	}
	return g, blocks
}

// parentWide reads testdata/parent_wide.txt.
func parentWide(tb testing.TB) map[string][]byte {
	tb.Helper()
	text, err := os.ReadFile("testdata/parent_wide.txt")
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			tb.Fatalf("fixture line %q: want name, hex", line)
		}
		blob, err := hex.DecodeString(f[1])
		if err != nil {
			tb.Fatal(err)
		}
		out[f[0]] = blob
	}
	return out
}

// TestParentWidePayloadsDecode decodes each wide fixture to the values the
// build that wrote it decoded, within the bound of the input it was coded
// from.
func TestParentWidePayloadsDecode(t *testing.T) {
	want := map[string]struct {
		quantBits int
		hash      string
	}{
		"3d/q20":    {20, "89791d9b6638fbda440b33805b5ad0482ffd6eb1a2ff814c54c15cbd4e68b764"},
		"3d/q30":    {30, "df871172c4668fcabcf4586ea0b30c81007e1e3b73aa93cc1501ca434540a754"},
		"batch/q20": {20, "6dcd2ce2ff7a18afb44f4f8a590aefc1d6fc7a41c8cc2077d08d9f55ac1a694c"},
		"batch/q30": {30, "6dcd2ce2ff7a18afb44f4f8a590aefc1d6fc7a41c8cc2077d08d9f55ac1a694c"},
	}
	blobs := parentWide(t)
	if len(blobs) != len(want) {
		t.Fatalf("%d fixtures, want %d", len(blobs), len(want))
	}
	g, blocks := wideInputs()
	for name, w := range want {
		blob := blobs[name]
		h, _, err := parseHeader(blob)
		if err != nil || h.quantBits != w.quantBits {
			t.Fatalf("%s: header %+v, %v; want QuantBits %d", name, h, err, w.quantBits)
		}
		codes, err := ExtractCodes(blob)
		if err != nil {
			t.Fatal(err)
		}
		wide := 0
		for _, c := range codes {
			if c >= 1<<16 {
				wide++
			}
		}
		if wide == 0 || wide == len(codes) {
			t.Errorf("%s: %d of %d codes past 2^16; want some, and some literal markers", name, wide, len(codes))
		}
		var src, got []*grid.Grid3[float32]
		if strings.HasPrefix(name, "3d/") {
			out, err := Decompress3D[float32](blob)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			src, got = []*grid.Grid3[float32]{g}, []*grid.Grid3[float32]{out}
		} else {
			out, err := DecompressBlocks[float32](blob)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			src, got = blocks, out
		}
		if hash := valuesHash(got); hash != w.hash {
			t.Errorf("%s decodes to %s, the parent decoded %s", name, hash, w.hash)
		}
		for i := range got {
			for j, v := range got[i].Data {
				if d := math.Abs(float64(v) - float64(src[i].Data[j])); d > litEB {
					t.Fatalf("%s: block %d cell %d off by %g, bound %g", name, i, j, d, litEB)
				}
			}
		}
	}
}
