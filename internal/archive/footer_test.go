package archive

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"testing"

	"repro/internal/amr"
	"repro/internal/bitio"
	"repro/internal/codec"
	"repro/internal/grid"
)

// footerOf returns the footer bytes of the newest generation of an archive
// image, the footer version its trailer names, and the offset where the
// footer starts.
func footerOf(tb testing.TB, blob []byte) (footer []byte, ver int, start int) {
	tb.Helper()
	k := trailerByMagic([8]byte(blob[len(blob)-8:]))
	if k == nil {
		tb.Fatal("no trailer magic at the end")
	}
	trailer := blob[len(blob)-int(k.size()):]
	flen, _, _ := parseTrailer(k, trailer)
	start = len(blob) - len(trailer) - int(flen)
	return blob[start : len(blob)-len(trailer)], k.ver, start
}

// wrappingFooters returns two one-member v4 footers whose every field is
// inside its per-read bound but whose geometry wraps int arithmetic: with
// w the bits of an int (64, or 32), dims of 2^(w−20)+1 × 2^20 × 1, whose
// product wraps to 2^20 cells, and a Ratio of 2^(w/2) over three levels,
// whose powers wrap to zero.
func wrappingFooters(tb testing.TB) map[string][]byte {
	tb.Helper()
	level := func(d grid.Dims, ub int) LevelIndex {
		return LevelIndex{Dims: d, UnitBlock: ub, Mask: grid.NewMask(d.Div(ub)), BatchBlocks: DefaultBatchBlocks}
	}
	wide := grid.Dims{X: 1<<(bits.UintSize-20) + 1, Y: 1 << 20, Z: 1}
	cube := grid.Dims{X: 4, Y: 4, Z: 4}
	members := map[string]Member{
		"dims": {Name: "dims", Field: "f", Ratio: 2, ErrorBound: 1, QuantBits: 16, Ref: -1,
			Levels: []LevelIndex{level(wide, 1)}},
		"ratio": {Name: "ratio", Field: "f", Ratio: 1 << (bits.UintSize / 2), ErrorBound: 1, QuantBits: 16, Ref: -1,
			Levels: []LevelIndex{level(cube, 4), level(cube, 4), level(cube, 4)}},
	}
	out := make(map[string][]byte)
	for name, m := range members {
		footer, err := appendMemberRecord(bitio.AppendUvarint(nil, 1), 0, &m)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = footer
	}
	return out
}

// TestOpenRefusesWrappingFooter: a footer whose level dims or refinement
// powers overflow int must be refused by Open, not handed to
// ExtractRegion, whose mask and scale arithmetic it would wrap.
func TestOpenRefusesWrappingFooter(t *testing.T) {
	for name, footer := range wrappingFooters(t) {
		t.Run(name, func(t *testing.T) {
			blob := append(append(headerMagic[:], Version), footer...)
			blob = appendTrailer(blob, currentTrailer, footer, 0)
			r, err := Open(bytes.NewReader(blob), int64(len(blob)))
			if err == nil {
				_, err = r.ExtractRegion(0, grid.Region{X1: 4, Y1: 4, Z1: 1})
				t.Fatalf("Open accepted the footer; ExtractRegion then returned %v", err)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestLyingModeFlags rewrites a v4 campaign footer — its digest sealed
// anew, so Open trusts it — to flag one delta frame intra and one intra
// frame delta. Every read path that decodes either frame must report
// ErrCorrupt: a frame's coding mode is part of what the index promises.
func TestLyingModeFlags(t *testing.T) {
	blob := buildDeltaArchive(t, testCampaign(t, 6), 4)
	footer, ver, start := footerOf(t, blob)
	members, err := decodeFooter(footer, ver)
	if err != nil {
		t.Fatal(err)
	}
	// Members 1–3 are deltas of their predecessor, member 4 a keyframe at
	// the same structure as member 3.
	if members[1].Ref != 0 || members[4].Ref != -1 {
		t.Fatalf("campaign refs %d, %d: want 0, -1", members[1].Ref, members[4].Ref)
	}
	li := 0
	for len(members[1].Levels[li].Batches) == 0 {
		li++
	}
	if !members[1].Levels[li].IsDelta(0) || members[4].Levels[li].IsDelta(0) {
		t.Fatal("campaign frames are not coded as the test assumes")
	}
	members[1].Levels[li].Delta[0] = false
	members[4].Ref = 3
	members[4].Levels[li].Delta = make([]bool, len(members[4].Levels[li].Batches))
	members[4].Levels[li].Delta[0] = true
	lying, err := encodeFooter(members)
	if err != nil {
		t.Fatal(err)
	}
	out := append(append([]byte(nil), blob[:start]...), lying...)
	orig, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	out = appendTrailer(out, currentTrailer, lying, orig.Generation())
	r, err := Open(bytes.NewReader(out), int64(len(out)))
	if err != nil {
		t.Fatalf("Open refused the resealed footer: %v", err)
	}
	refs, err := orig.DecodeBatch(3, li, 0)
	if err != nil {
		t.Fatal(err)
	}
	for mi, refs := range map[int][]*grid.Grid3[float32]{1: nil, 4: refs} {
		_, err := r.Extract(mi)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("Extract(%d) = %v, want ErrCorrupt", mi, err)
		}
		if _, err := r.DecodeBatch(mi, li, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeBatch(%d, %d, 0) = %v, want ErrCorrupt", mi, li, err)
		}
		if _, err := r.DecodeBatchOn(r.Section(), mi, li, 0, refs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeBatchOn(%d, %d, 0) = %v, want ErrCorrupt", mi, li, err)
		}
	}
}

// FuzzDecodeFooter throws raw bytes at decodeFooter under every footer
// layout, seeded with the footers of the legacy and parent fixtures and
// with the two wrapping footers. FuzzOpen reaches the footer only through
// whole archives and, from v4 on, through the footer digest; this target
// reaches it on every input. Whatever decodeFooter accepts must be an
// index the readers can trust without another check.
func FuzzDecodeFooter(f *testing.F) {
	for _, name := range []string{"legacy_v1.hex", "legacy_v1_appended.hex", "legacy_v2.hex", "legacy_v3.hex", "parent_v4.hex"} {
		footer, ver, _ := footerOf(f, fixture(f, name))
		f.Add(footer, uint8(ver))
	}
	for _, footer := range wrappingFooters(f) {
		f.Add(footer, uint8(currentTrailer.ver))
	}
	f.Fuzz(func(t *testing.T, footer []byte, v uint8) {
		ver := 1 + int(v%4)
		members, err := decodeFooter(footer, ver)
		if err != nil {
			return
		}
		for mi := range members {
			m := &members[mi]
			if m.Ref >= mi {
				t.Fatalf("member %d references member %d", mi, m.Ref)
			}
			if err := amr.CheckHierarchy(m.Ratio, len(m.Levels)); err != nil {
				t.Fatalf("member %d accepted: %v", mi, err)
			}
			for li := range m.Levels {
				idx := &m.Levels[li]
				if _, ok := idx.Dims.CheckedCount(min(1<<31, math.MaxInt)); !ok {
					t.Fatalf("member %d level %d: dims %v accepted", mi, li, idx.Dims)
				}
				if err := amr.CheckLevel(idx.Dims, idx.UnitBlock); err != nil {
					t.Fatalf("member %d level %d accepted: %v", mi, li, err)
				}
				if idx.Mask.Dim != idx.Dims.Div(idx.UnitBlock) {
					t.Fatalf("member %d level %d: mask dims %v for level dims %v / %d", mi, li, idx.Mask.Dim, idx.Dims, idx.UnitBlock)
				}
				want := 0
				if n := idx.Mask.Count(); n > 0 {
					want = (n + idx.BatchBlocks - 1) / idx.BatchBlocks
				}
				if len(idx.Batches) != want {
					t.Fatalf("member %d level %d: %d batches for a mask implying %d", mi, li, len(idx.Batches), want)
				}
				if idx.occupied > 1<<20 {
					continue // a small footer can claim 2^26 blocks: cap the order's memory
				}
				ords := idx.Ords()
				if len(ords) != idx.occupied {
					t.Fatalf("member %d level %d: %d ordinals for %d occupied blocks", mi, li, len(ords), idx.occupied)
				}
				for k, ord := range ords {
					if ord >= idx.Mask.Len() || !idx.Mask.AtIndex(ord) || (k > 0 && ord <= ords[k-1]) {
						t.Fatalf("member %d level %d: ordinal %d is %d (after %d) in a mask of %d", mi, li, k, ord, ords[max(k-1, 0)], idx.Mask.Len())
					}
				}
				if nb := len(idx.Batches); nb > 0 {
					if _, hi := idx.BatchSpan(nb - 1); hi != idx.occupied {
						t.Fatalf("member %d level %d: last batch ends at %d of %d occupied blocks", mi, li, hi, idx.occupied)
					}
				}
			}
		}
	})
}

// TestFooterMasksAreDistinct opens an archive whose members share their
// masks — the two fields of each snapshot — and requires every level's
// mask to equal a fresh codec.DecodeMask of its record and to be an
// object of its own.
func TestFooterMasksAreDistinct(t *testing.T) {
	snaps := testSnapshots(t)
	if !snaps[0].Levels[0].Mask.Equal(snaps[1].Levels[0].Mask) {
		t.Fatal("the two fields of a snapshot do not share a mask; the test is vacuous")
	}
	blob := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 16)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*grid.Mask]bool{}
	for mi, m := range r.Members() {
		for li, idx := range m.Levels {
			comp, err := codec.EncodeMask(snaps[mi].Levels[li].Mask)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := codec.DecodeMask(idx.Dims.Div(idx.UnitBlock), comp)
			if err != nil {
				t.Fatal(err)
			}
			if !idx.Mask.Equal(fresh) {
				t.Fatalf("member %d level %d: the mask differs from a fresh decode", mi, li)
			}
			if seen[idx.Mask] {
				t.Fatalf("member %d level %d: the mask is another level's", mi, li)
			}
			seen[idx.Mask] = true
		}
	}
}
