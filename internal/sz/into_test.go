package sz

import (
	"testing"

	"repro/internal/grid"
)

func sameBlock(a, b *grid.Grid3[float32]) bool {
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return len(a.Data) == len(b.Data)
}

// TestDecompressBlocksIntoPartial decodes an intra batch under every
// skip pattern shape that matters to the quad regrouping — all wanted,
// none, one, a strided subset leaving 0–3 blocks over — and requires each
// wanted block bit-identical to the full decode and each skipped block's
// would-be storage untouched.
func TestDecompressBlocksIntoPartial(t *testing.T) {
	const n = 13
	blocks := testBlocks(n, 8, 3)
	blob, _, err := CompressBlocks(blocks, Options{ErrorBound: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder[float32]
	full, err := d.DecompressBlocks(blob)
	if err != nil {
		t.Fatal(err)
	}
	patterns := map[string]func(i int) bool{
		"all":     func(int) bool { return true },
		"none":    func(int) bool { return false },
		"one":     func(i int) bool { return i == 5 },
		"odd":     func(i int) bool { return i%2 == 1 },        // 6 wanted: one quad + 2
		"thirds":  func(i int) bool { return i%3 == 0 },        // 5 wanted: one quad + 1
		"tail":    func(i int) bool { return i >= n-7 },        // 7 wanted: one quad + 3
		"scatter": func(i int) bool { return i == 0 || i > 8 }, // quad spans a gap
	}
	for name, want := range patterns {
		scratch := grid.NewBlocks[float32](blocks[0].Dim, n)
		const sentinel = -12345
		dst := make([]*grid.Grid3[float32], n)
		for i, g := range scratch {
			g.Fill(sentinel)
			if want(i) {
				dst[i] = g
			}
		}
		if err := d.DecompressBlocksInto(dst, blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, g := range scratch {
			if want(i) && !sameBlock(g, full[i]) {
				t.Fatalf("%s: wanted block %d differs from the full decode", name, i)
			}
			if !want(i) && (g.Data[0] != sentinel || g.Data[len(g.Data)-1] != sentinel) {
				t.Fatalf("%s: skipped block %d was written", name, i)
			}
		}
	}

	if err := d.DecompressBlocksInto(make([]*grid.Grid3[float32], n-1), blob); err == nil {
		t.Fatal("short destination accepted")
	}
	bad := make([]*grid.Grid3[float32], n)
	bad[3] = grid.NewCube[float32](5)
	if err := d.DecompressBlocksInto(bad, blob); err == nil {
		t.Fatal("mis-shaped destination block accepted")
	}
}

// TestDeltaChainInPlace applies a 4-deep delta chain in place — dst and
// refs the same blocks — with some blocks skipped throughout, and compares
// every wanted block against the allocate-per-step decode.
func TestDeltaChainInPlace(t *testing.T) {
	const eb, depth, n = 0.05, 4, 9
	opts := Options{ErrorBound: eb}
	var e Encoder[float32]
	var d Decoder[float32]

	snap := testBlocks(n, 8, 17)
	prev := grid.NewBlocks[float32](snap[0].Dim, n)
	blobs := make([][]byte, depth+1)
	var err error
	if blobs[0], _, err = e.CompressBlocksCapture(snap, opts, prev); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= depth; step++ {
		snap = driftBlocks(snap, eb, int64(step))
		recons := grid.NewBlocks[float32](snap[0].Dim, n)
		if blobs[step], _, err = e.CompressBlocksDelta(snap, prev, opts, recons); err != nil {
			t.Fatal(err)
		}
		prev = recons
	}

	want, err := d.DecompressBlocks(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= depth; step++ {
		if want, err = d.DecompressBlocksDelta(blobs[step], want); err != nil {
			t.Fatal(err)
		}
	}

	keep := func(i int) bool { return i%4 != 2 }
	scratch := grid.NewBlocks[float32](snap[0].Dim, n)
	for i := range scratch {
		if !keep(i) {
			scratch[i] = nil
		}
	}
	if err := d.DecompressBlocksInto(scratch, blobs[0]); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= depth; step++ {
		if err := d.DecompressBlocksDeltaInto(scratch, blobs[step], scratch); err != nil {
			t.Fatalf("depth %d: %v", step, err)
		}
	}
	for i, g := range scratch {
		if keep(i) && !sameBlock(g, want[i]) {
			t.Fatalf("block %d: in-place chain differs from the allocating decode", i)
		}
	}

	// A wanted block needs its reference.
	refs := append([]*grid.Grid3[float32]{}, scratch...)
	refs[0] = nil
	if err := d.DecompressBlocksDeltaInto(scratch, blobs[1], refs); err == nil {
		t.Fatal("missing reference for a wanted block accepted")
	}
}
