package sz

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/grid"
)

// eitherCases are (reference, current) batch pairs across the regimes
// CompressBlocksEither has to tell apart: a slow drift (temporal wins by a
// wide margin), an unrelated reference (spatial wins by one), the ground
// between, where per-cell noise of a few bounds on top of a block-wise
// drift leaves the two codings within a few percent, and tiled batches —
// every block the same periodic pattern, the reference a random bin or
// none below it — whose spatial code stream is the larger one until
// DEFLATE folds its repeats, which no size taken before DEFLATE can see.
func eitherCases() map[string][2][]*grid.Grid3[float32] {
	const eb = 0.05
	tiled := func(period int, seed int64) [2][]*grid.Grid3[float32] {
		rng := rand.New(rand.NewSource(seed))
		d := grid.Dims{X: 8, Y: 8, Z: 8}
		pattern := make([]float32, period)
		for i := range pattern {
			pattern[i] = float32(rng.Intn(8)) * 2 * eb
		}
		ref, cur := grid.NewBlocks[float32](d, 64), grid.NewBlocks[float32](d, 64)
		for b := range cur {
			for i := range cur[b].Data {
				cur[b].Data[i] = pattern[i%period]
				ref[b].Data[i] = cur[b].Data[i] - float32(rng.Intn(2))*2*eb
			}
		}
		return [2][]*grid.Grid3[float32]{ref, cur}
	}
	base := testBlocks(16, 8, 3)
	noisy := func(scale float64, seed int64) []*grid.Grid3[float32] {
		rng := rand.New(rand.NewSource(seed))
		out := make([]*grid.Grid3[float32], len(base))
		for b, g := range base {
			drift := float32((rng.Float64()*2 - 1) * 30 * eb)
			n := grid.New[float32](g.Dim)
			for i, v := range g.Data {
				n.Data[i] = v + drift + float32((rng.Float64()*2-1)*scale*eb)
			}
			out[b] = n
		}
		return out
	}
	unrelated := testBlocks(16, 8, 99)
	for _, g := range unrelated {
		for i := range g.Data {
			g.Data[i] = g.Data[i]*37 + float32(i%11)*1e3
		}
	}
	return map[string][2][]*grid.Grid3[float32]{
		"drift":     {base, driftBlocks(base, eb, 5)},
		"identical": {base, base},
		"unrelated": {unrelated, base},
		"near-tie2": {base, noisy(2, 6)},
		"near-tie4": {base, noisy(4, 7)},
		"near-tie8": {base, noisy(8, 8)},
		"noise64":   {base, noisy(64, 9)},
		"one-block": {base[:1], driftBlocks(base[:1], eb, 10)},
		"odd-count": {base[:7], noisy(4, 11)[:7]},
		"tiled16":   tiled(16, 12),
		"tiled512":  tiled(512, 13),
	}
}

// TestCompressBlocksEither holds the capped-seal path to the rule it
// replaced: the payload, the delta flag and the captured reconstruction
// are those of sealing both codings in full and keeping the strictly
// smaller temporal one — with and without a capture, on a warm encoder.
func TestCompressBlocksEither(t *testing.T) {
	const eb = 0.05
	opts := Options{ErrorBound: eb}
	var enc, both Encoder[float32]
	won := map[bool]int{}
	for name, c := range eitherCases() {
		refs, cur := reconOf(t, c[0], opts), c[1]
		d, n := cur[0].Dim, len(cur)

		sRec, tRec := grid.NewBlocks[float32](d, n), grid.NewBlocks[float32](d, n)
		spatial, _, err := both.CompressBlocksCapture(cur, opts, sRec)
		if err != nil {
			t.Fatal(err)
		}
		temporal, _, err := both.CompressBlocksDelta(cur, refs, opts, tRec)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRec, wantDelta := spatial, sRec, false
		if len(temporal) < len(spatial) {
			want, wantRec, wantDelta = temporal, tRec, true
		}
		won[wantDelta]++
		if strings.HasPrefix(name, "tiled") && 2*len(spatial) > len(temporal) {
			t.Errorf("%s: spatial %d bytes, temporal %d: not the DEFLATE-folded case it is here for", name, len(spatial), len(temporal))
		}

		rec := grid.NewBlocks[float32](d, n)
		got, delta, st, err := enc.CompressBlocksEither(cur, refs, opts, rec)
		if err != nil {
			t.Fatal(err)
		}
		if delta != wantDelta || !bytes.Equal(got, want) {
			t.Errorf("%s: delta=%v %d bytes, sealing both ways gives delta=%v %d bytes (spatial %d, temporal %d)",
				name, delta, len(got), wantDelta, len(want), len(spatial), len(temporal))
			continue
		}
		if st.CompressedLen != len(got) || st.N != n*d.Count() {
			t.Errorf("%s: stats %+v for a %d-byte payload of %d values", name, st, len(got), n*d.Count())
		}
		for i := range rec {
			if !slices.Equal(rec[i].Data, wantRec[i].Data) {
				t.Fatalf("%s: captured block %d is not the shipped coding's reconstruction", name, i)
			}
		}
		if worst := maxAbsErr(cur, rec); worst > eb {
			t.Errorf("%s: reconstruction off by %g > %g", name, worst, eb)
		}
		if plain, pd, _, err := enc.CompressBlocksEither(cur, refs, opts, nil); err != nil || pd != delta || !bytes.Equal(plain, got) {
			t.Errorf("%s: without a capture: delta=%v %d bytes, err %v", name, pd, len(plain), err)
		}
		var dec []*grid.Grid3[float32]
		if delta {
			dec, err = DecompressBlocksDelta(got, refs)
		} else {
			dec, err = DecompressBlocks[float32](got)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			if !slices.Equal(dec[i].Data, rec[i].Data) {
				t.Fatalf("%s: decoded block %d differs from the captured reconstruction", name, i)
			}
		}
	}
	if won[false] == 0 || won[true] == 0 {
		t.Errorf("cases won by the spatial / temporal coding: %d / %d, want both", won[false], won[true])
	}
}

// TestCompressBlocksEitherLossless is the same contract with DEFLATE off,
// where the spatial seal has no sink to overflow and is measured whole.
func TestCompressBlocksEitherLossless(t *testing.T) {
	opts := Options{ErrorBound: 0.05, DisableLossless: true}
	var enc, both Encoder[float32]
	for name, c := range eitherCases() {
		refs, cur := reconOf(t, c[0], opts), c[1]
		want, _, err := both.CompressBlocks(cur, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantDelta := false
		if temporal, _, err := both.CompressBlocksDelta(cur, refs, opts, nil); err != nil {
			t.Fatal(err)
		} else if len(temporal) < len(want) {
			want, wantDelta = temporal, true
		}
		got, delta, _, err := enc.CompressBlocksEither(cur, refs, opts, nil)
		if err != nil || delta != wantDelta || !bytes.Equal(got, want) {
			t.Errorf("%s: delta=%v %d bytes, err %v; sealing both ways gives delta=%v %d bytes", name, delta, len(got), err, wantDelta, len(want))
		}
	}
}

// TestCompressBlocksEitherErrors checks the shapes the other batch
// encoders reject are rejected here.
func TestCompressBlocksEitherErrors(t *testing.T) {
	opts := Options{ErrorBound: 0.05}
	blocks := testBlocks(4, 8, 1)
	var enc Encoder[float32]
	if _, _, _, err := enc.CompressBlocksEither(blocks, blocks[:3], opts, nil); err == nil {
		t.Error("short reference batch accepted")
	}
	if _, _, _, err := enc.CompressBlocksEither(blocks, testBlocks(4, 4, 1), opts, nil); err == nil {
		t.Error("reference blocks of other dims accepted")
	}
	if _, _, _, err := enc.CompressBlocksEither(blocks, blocks, opts, grid.NewBlocks[float32](blocks[0].Dim, 3)); err == nil {
		t.Error("short capture accepted")
	}
	if _, _, _, err := enc.CompressBlocksEither(nil, nil, opts, nil); err == nil {
		t.Error("empty batch accepted")
	}
}

// reconOf is what a decoder holds of blocks: the reference a temporal
// encode has to run against.
func reconOf(t testing.TB, blocks []*grid.Grid3[float32], opts Options) []*grid.Grid3[float32] {
	t.Helper()
	rec := grid.NewBlocks[float32](blocks[0].Dim, len(blocks))
	var e Encoder[float32]
	if _, _, err := e.CompressBlocksCapture(blocks, opts, rec); err != nil {
		t.Fatal(err)
	}
	return rec
}
