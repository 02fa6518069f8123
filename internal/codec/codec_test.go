package codec

import (
	"bytes"
	"compress/flate"
	"math"
	"math/rand"
	"testing"

	"repro/internal/amr"
	"repro/internal/bitio"
	"repro/internal/grid"
	"repro/internal/sz"
)

func testSkeletonDataset() *amr.Dataset {
	fine := amr.NewLevel(grid.Dims{X: 8, Y: 8, Z: 8}, 4)
	coarse := amr.NewLevel(grid.Dims{X: 4, Y: 4, Z: 4}, 4)
	fine.Mask.Set(0, 0, 0, true)
	fine.Mask.Set(1, 1, 1, true)
	coarse.Mask.Set(0, 0, 0, true)
	rng := rand.New(rand.NewSource(3))
	for i := range fine.Grid.Data {
		fine.Grid.Data[i] = float32(rng.NormFloat64())
	}
	return &amr.Dataset{Name: "sk", Field: "baryon_density", Ratio: 2, Levels: []*amr.Level{fine, coarse}}
}

func TestContainerRoundTrip(t *testing.T) {
	ds := testSkeletonDataset()
	sk := SkeletonOf(ds)
	body := []byte{1, 2, 3, 4, 5}
	blob, err := EncodeContainer(9, sk, body)
	if err != nil {
		t.Fatal(err)
	}
	got, gotBody, err := DecodeContainer(blob, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "sk" || got.Field != "baryon_density" || got.Ratio != 2 {
		t.Fatalf("header: %+v", got)
	}
	if len(got.Levels) != 2 {
		t.Fatalf("levels: %d", len(got.Levels))
	}
	for li := range sk.Levels {
		if got.Levels[li].Dims != sk.Levels[li].Dims || got.Levels[li].UnitBlock != sk.Levels[li].UnitBlock {
			t.Fatalf("level %d geometry mismatch", li)
		}
		for i := 0; i < sk.Levels[li].Mask.Len(); i++ {
			if got.Levels[li].Mask.AtIndex(i) != sk.Levels[li].Mask.AtIndex(i) {
				t.Fatalf("level %d mask bit %d mismatch", li, i)
			}
		}
	}
	if string(gotBody) != string(body) {
		t.Fatalf("body: %v", gotBody)
	}
}

// hostileContainer is a 29-byte container whose one level claims 8192³
// cells in a single, stored, unit block, over a one-byte body.
// EncodeContainer refuses the level, so it writes the head alone and the
// level record is appended after it.
func hostileContainer(tb testing.TB, codecID byte) []byte {
	tb.Helper()
	m := grid.NewMask(grid.Dims{X: 1, Y: 1, Z: 1})
	m.Fill(true)
	out, err := EncodeContainer(codecID, Skeleton{Name: "h", Field: "f", Ratio: 2}, nil)
	if err == nil {
		out[len(out)-1] = 1 // the level count
		out, err = AppendLevel(out, grid.Dims{X: 8192, Y: 8192, Z: 8192}, 8192, m)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return append(out, 0)
}

// maskBombContainer claims the same 8192³ cells at unit block 1, so that
// the mask alone would be 64 GiB, behind a mask stream of a few bytes.
func maskBombContainer(codecID byte) []byte {
	out := bitio.AppendUvarint(nil, containerMagic)
	out = append(out, codecID)
	out = bitio.AppendBytes(out, []byte("h"))
	out = bitio.AppendBytes(out, []byte("f"))
	out = bitio.AppendUvarint(out, 2) // ratio
	out = bitio.AppendUvarint(out, 1) // levels
	for _, v := range []uint64{8192, 8192, 8192, 1} {
		out = bitio.AppendUvarint(out, v)
	}
	out = bitio.AppendBytes(out, []byte{0x63, 0x00, 0x00}) // the mask stream: three bytes
	return append(out, 0)
}

// TestContainerBoundsSkeletonByItsBytes: a skeleton is refused, before
// anything is allocated from its dims, when the bytes behind it cannot
// hold what it describes.
func TestContainerBoundsSkeletonByItsBytes(t *testing.T) {
	hostile := hostileContainer(t, 9)
	if len(hostile) != 29 {
		t.Fatalf("hostile container is %d bytes, want 29", len(hostile))
	}
	for name, blob := range map[string][]byte{"stored cells": hostile, "mask": maskBombContainer(9)} {
		var err error
		allocs := testing.AllocsPerRun(1, func() { _, _, err = DecodeContainer(blob, 9) })
		if err == nil {
			t.Fatalf("%s: %d-byte container claiming 8192³ cells was accepted", name, len(blob))
		}
		if allocs > 64 {
			t.Fatalf("%s: %v allocations to refuse %d bytes", name, allocs, len(blob))
		}
	}
}

func TestContainerRejectsWrongCodec(t *testing.T) {
	sk := SkeletonOf(testSkeletonDataset())
	blob, err := EncodeContainer(9, sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeContainer(blob, 8); err == nil {
		t.Fatal("wrong codec id should be rejected")
	}
	if _, _, err := DecodeContainer(nil, 9); err == nil {
		t.Fatal("nil blob should be rejected")
	}
	if _, _, err := DecodeContainer(blob[:4], 9); err == nil {
		t.Fatal("truncated blob should be rejected")
	}
}

func TestSkeletonNewDataset(t *testing.T) {
	ds := testSkeletonDataset()
	sk := SkeletonOf(ds)
	fresh := sk.NewDataset()
	if fresh.StoredCells() != ds.StoredCells() {
		t.Fatalf("stored cells %d vs %d", fresh.StoredCells(), ds.StoredCells())
	}
	for _, l := range fresh.Levels {
		for _, v := range l.Grid.Data {
			if v != 0 {
				t.Fatal("fresh dataset grids must be zero")
			}
		}
	}
	// Masks are copies, not aliases.
	fresh.Levels[0].Mask.Set(0, 0, 0, false)
	if !ds.Levels[0].Mask.At(0, 0, 0) {
		t.Fatal("NewDataset aliases the skeleton masks")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.T1 != 0.50 || cfg.T2 != 0.60 {
		t.Fatalf("defaults: T1=%v T2=%v", cfg.T1, cfg.T2)
	}
	custom := Config{T1: 0.3, T2: 0.9}.WithDefaults()
	if custom.T1 != 0.3 || custom.T2 != 0.9 {
		t.Fatal("explicit thresholds overridden")
	}
}

func TestConfigLevelScale(t *testing.T) {
	cfg := Config{LevelScales: []float64{3, 1}}
	if cfg.LevelScale(0) != 3 || cfg.LevelScale(1) != 1 || cfg.LevelScale(2) != 1 {
		t.Fatalf("scales: %v %v %v", cfg.LevelScale(0), cfg.LevelScale(1), cfg.LevelScale(2))
	}
	if (Config{}).LevelScale(0) != 1 {
		t.Fatal("missing scales should default to 1")
	}
}

func TestConfigLevelEB(t *testing.T) {
	ds := testSkeletonDataset()
	abs := Config{ErrorBound: 5}
	if got := abs.LevelEB(0, ds.Levels[0]); got != 5 {
		t.Fatalf("abs LevelEB = %v", got)
	}
	scaled := Config{ErrorBound: 5, LevelScales: []float64{2, 1}}
	if got := scaled.LevelEB(0, ds.Levels[0]); got != 10 {
		t.Fatalf("scaled LevelEB = %v", got)
	}
	// Rel mode multiplies by the masked range.
	rel := Config{ErrorBound: 0.1, Mode: sz.Rel}
	vals := ds.Levels[0].MaskedValues(nil)
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	want := 0.1 * (float64(hi) - float64(lo))
	if got := rel.LevelEB(0, ds.Levels[0]); got < want*0.999 || got > want*1.001 {
		t.Fatalf("rel LevelEB = %v, want %v", got, want)
	}
	// A constant level has no range to scale by: the bound stays unscaled.
	if got := rel.LevelEB(1, ds.Levels[1]); got != 0.1 {
		t.Fatalf("rel LevelEB on a constant level = %v, want 0.1", got)
	}
	// One stream's bound is RangeEB over its own values, level scales not
	// applied.
	var r ValueRange
	r.scan(vals)
	relScaled := Config{ErrorBound: 0.1, Mode: sz.Rel, LevelScales: []float64{3, 1}}
	if got, want := relScaled.ValuesEB(vals), rel.RangeEB(0, r); got != want {
		t.Fatalf("rel ValuesEB = %v, want %v", got, want)
	}
}

// maskedRange is the one serial scan LevelEB took a level's range with
// before the scan could be taken in pieces, kept as the oracle
// ValueRange is held to.
func maskedRange(l *amr.Level) (lo, hi float64) {
	first := true
	md := l.Mask.Dim
	for bx := 0; bx < md.X; bx++ {
		for by := 0; by < md.Y; by++ {
			for bz := 0; bz < md.Z; bz++ {
				if !l.Mask.At(bx, by, bz) {
					continue
				}
				r := l.BlockRegion(bx, by, bz)
				for x := r.X0; x < r.X1; x++ {
					for y := r.Y0; y < r.Y1; y++ {
						base := l.Grid.Dim.Index(x, y, r.Z0)
						for _, v := range l.Grid.Data[base : base+(r.Z1-r.Z0)] {
							f := float64(v)
							if first {
								lo, hi = f, f
								first = false
								continue
							}
							if f < lo {
								lo = f
							}
							if f > hi {
								hi = f
							}
						}
					}
				}
			}
		}
	}
	return lo, hi
}

// TestValueRangeMergesLikeOneScan holds BlockRange over every piece of a
// random split of a level's blocks, merged in order, and over the whole
// level, to the oracle bit for bit — and Rel LevelEB with it — on levels
// sown with NaN (as the level's first cell, as the first cell of a block,
// anywhere), ±Inf and zeros of both signs, with empty pieces and empty
// levels among them.
func TestValueRangeMergesLikeOneScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	special := []amr.Value{amr.Value(math.NaN()), 0, amr.Value(math.Copysign(0, -1)),
		amr.Value(math.Inf(1)), amr.Value(math.Inf(-1)), 1, -1}
	bits := func(lo, hi float64) [2]uint64 { return [2]uint64{math.Float64bits(lo), math.Float64bits(hi)} }
	for i := 0; i < 400; i++ {
		l := amr.NewLevel(grid.Dims{X: 8, Y: 8, Z: 8}, 2)
		density := rng.Float64()
		for j := 0; j < l.Mask.Len(); j++ {
			l.Mask.SetIndex(j, rng.Float64() < density)
		}
		// A third of the levels hold no negative values and a third no
		// positive ones, and are sown with NaN and zeros only, so that
		// zeros of either sign tie at an extreme.
		sprinkle, sign, sown := rng.Float64()/4, rng.Intn(3), special
		if sign > 0 {
			sown = special[:3]
		}
		for j := range l.Grid.Data {
			l.Grid.Data[j] = amr.Value(rng.NormFloat64())
			if sign > 0 {
				l.Grid.Data[j] = amr.Value(math.Abs(rng.NormFloat64()) * float64(3-2*sign))
			}
			if rng.Float64() < sprinkle {
				l.Grid.Data[j] = sown[rng.Intn(len(sown))]
			}
		}
		ords := l.Mask.OccupiedIndices()
		// Put a special value first in a level, or first in some blocks.
		for _, ord := range ords {
			if rng.Intn(3) == 0 {
				b := l.BlockRegion(l.Mask.Dim.Coords(ord))
				l.Grid.Set(b.X0, b.Y0, b.Z0, sown[rng.Intn(len(sown))])
			}
		}
		want := bits(maskedRange(l))

		if got := bits(BlockRange(l, ords).bounds()); got != want {
			t.Fatalf("level %d: whole-level range %x, one scan %x", i, got, want)
		}
		var r ValueRange
		for lo := 0; lo < len(ords); {
			hi := min(lo+rng.Intn(4), len(ords))
			r = r.Merge(BlockRange(l, ords[lo:hi]))
			lo = hi
		}
		if got := bits(r.bounds()); got != want {
			t.Fatalf("level %d: merged pieces %x, one scan %x", i, got, want)
		}

		rel := Config{ErrorBound: 0.01, Mode: sz.Rel}
		lo, hi := maskedRange(l)
		eb := 0.01
		if d := hi - lo; d > 0 {
			eb *= d
		}
		if got := rel.LevelEB(0, l); math.Float64bits(got) != math.Float64bits(eb) {
			t.Fatalf("level %d: Rel LevelEB %v, one scan gives %v", i, got, eb)
		}
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		Auto: "auto", ZF: "ZF", NaST: "NaST", OpST: "OpST",
		AKD: "AKDTree", GSP: "GSP", ClassicKD: "ClassicKD",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestEncodeMaskPooledMatchesFresh holds EncodeMask, whose DEFLATE writer
// comes out of a pool, to a writer made new for every mask — masks of many
// sizes and densities in one run, each coded twice, so a writer carries
// whatever it could carry from one mask into the next, and decoded back.
func TestEncodeMaskPooledMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		d := grid.Dims{X: 1 + rng.Intn(40), Y: 1 + rng.Intn(40), Z: 1 + rng.Intn(40)}
		m := grid.NewMask(d)
		density := rng.Float64()
		for j := 0; j < m.Len(); j++ {
			if rng.Float64() < density*density {
				m.SetIndex(j, true)
			}
		}
		var fresh bytes.Buffer
		fw, err := flate.NewWriter(&fresh, flate.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(m.AppendPacked(nil)) //nolint:errcheck // a bytes.Buffer
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := EncodeMask(m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fresh.Bytes()) {
				t.Fatalf("mask %d (%v) pass %d: pooled writer coded %d bytes, a new one %d, or they differ", i, d, pass, len(got), fresh.Len())
			}
			back, err := DecodeMask(d, got)
			if err != nil || !back.Equal(m) {
				t.Fatalf("mask %d (%v): round trip: %v", i, d, err)
			}
		}
	}
}
