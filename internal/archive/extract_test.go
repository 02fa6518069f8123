package archive

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/amr"
	"repro/internal/grid"
)

// referenceLevel assembles level li of member mi the slow, obviously
// correct way: every frame through DecodeBatch (fresh blocks, chain
// resolved per call), scattered block by block.
func referenceLevel(t testing.TB, r *Reader, mi, li int) *amr.Level {
	t.Helper()
	idx := &r.Members()[mi].Levels[li]
	l := amr.NewLevel(idx.Dims, idx.UnitBlock)
	l.Mask.CopyFrom(idx.Mask)
	ords := idx.Mask.OccupiedIndices()
	for b := range idx.Batches {
		blocks, err := r.DecodeBatch(mi, li, b)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := idx.BatchSpan(b)
		for k, blk := range blocks {
			bx, by, bz := idx.Mask.Dim.Coords(ords[lo+k])
			l.Grid.SetRegion(l.BlockRegion(bx, by, bz), blk.Data)
		}
	}
	return l
}

// sameBits reports bit-for-bit equality (so NaNs and signed zeros count).
func sameBits(a, b []amr.Value) bool {
	return slices.EqualFunc(a, b, func(x, y amr.Value) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

// regionOf restricts a reference level to the blocks of want: the cells
// of every other block zeroed, the mask equal to want.
func regionOf(ref *amr.Level, want *grid.Mask) *amr.Level {
	l := amr.NewLevel(ref.Grid.Dim, ref.UnitBlock)
	l.Mask.CopyFrom(want)
	for _, ord := range want.OccupiedIndices() {
		bx, by, bz := want.Dim.Coords(ord)
		reg := l.BlockRegion(bx, by, bz)
		buf := make([]amr.Value, reg.Count())
		ref.Grid.CopyRegionTo(reg, buf)
		l.Grid.SetRegion(reg, buf)
	}
	return l
}

func requireLevel(t *testing.T, what string, got, want *amr.Level) {
	t.Helper()
	if !sameBits(got.Grid.Data, want.Grid.Data) {
		t.Fatalf("%s: cells differ from the DecodeBatch reference", what)
	}
	if !bytes.Equal(got.Mask.AppendPacked(nil), want.Mask.AppendPacked(nil)) {
		t.Fatalf("%s: mask differs from the reference", what)
	}
}

// testROIs is the regions the extraction tests ask for, in finest-level
// cells of a fd domain with unit blocks of edge ub.
func testROIs(fd grid.Dims, ub int) map[string]grid.Region {
	return map[string]grid.Region{
		"octant":    {X0: ub, Y0: 2 * ub, Z0: 0, X1: ub + fd.X/2, Y1: 2*ub + fd.Y/2, Z1: fd.Z / 2},
		"one block": {X0: ub, Y0: ub, Z0: ub, X1: 2 * ub, Y1: 2 * ub, Z1: 2 * ub},
		"unaligned": {X0: 3, Y0: 5, Z0: 7, X1: fd.X - 3, Y1: 9, Z1: fd.Z},
	}
}

// TestExtractMatchesDecodeBatch pins the scratch-decoding extraction paths
// to the allocating one on the K=4 campaign archive (members at chain
// depth 0–3, then a fresh keyframe): Extract, ExtractLevel and
// ExtractRegion must be byte-identical to a reference assembled from
// DecodeBatch results at Workers 1, 2 and 8 — run under -race in CI, this
// is also the proof that workers' scratch and the shared level grids do
// not alias.
func TestExtractMatchesDecodeBatch(t *testing.T) {
	snaps := testCampaign(t, 6)
	blob := buildDeltaArchive(t, snaps, 4)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	rois := testROIs(snaps[0].FinestDims(), snaps[0].Levels[0].UnitBlock)
	for mi, m := range r.Members() {
		refs := make([]*amr.Level, len(m.Levels))
		for li := range m.Levels {
			refs[li] = referenceLevel(t, r, mi, li)
		}
		for _, workers := range []int{1, 2, 8} {
			r.Workers = workers
			what := fmt.Sprintf("member %d workers %d", mi, workers)
			ds, err := r.Extract(mi)
			if err != nil {
				t.Fatal(err)
			}
			for li := range m.Levels {
				requireLevel(t, what+" Extract level "+fmt.Sprint(li), ds.Levels[li], refs[li])
				l, err := r.ExtractLevel(mi, li)
				if err != nil {
					t.Fatal(err)
				}
				requireLevel(t, what+" ExtractLevel "+fmt.Sprint(li), l, refs[li])
			}
			for name, roi := range rois {
				part, err := r.ExtractRegion(mi, roi)
				if err != nil {
					t.Fatal(err)
				}
				for li := range m.Levels {
					requireLevel(t, fmt.Sprintf("%s ExtractRegion %s level %d", what, name, li),
						part.Levels[li], regionOf(refs[li], part.Levels[li].Mask))
				}
				if name == "one block" {
					n := 0
					for _, l := range part.Levels {
						n += l.Mask.Count()
					}
					if n != 1 {
						t.Fatalf("%s: one-block ROI extracted %d blocks", what, n)
					}
				}
			}
		}
	}
}

// TestExtractRegionMissesLevel asks for a region stored entirely at the
// coarse level: the fine level must come back empty — no frame of it
// decoded, no cell written — and the coarse level must carry the block.
func TestExtractRegionMissesLevel(t *testing.T) {
	snaps := testCampaign(t, 2)
	blob := buildDeltaArchive(t, snaps, 4)
	cr := &countingReaderAt{r: bytes.NewReader(blob)}
	r, err := Open(cr, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	fine := &r.Members()[1].Levels[0]
	ub := fine.UnitBlock
	md := fine.Mask.Dim
	for ord := 0; ord < md.Count(); ord++ {
		if fine.Mask.AtIndex(ord) {
			continue
		}
		bx, by, bz := md.Coords(ord)
		roi := grid.Region{X0: bx * ub, Y0: by * ub, Z0: bz * ub, X1: (bx + 1) * ub, Y1: (by + 1) * ub, Z1: (bz + 1) * ub}
		before := cr.read.Load()
		part, err := r.ExtractRegion(1, roi)
		if err != nil {
			t.Fatal(err)
		}
		if n := part.Levels[0].Mask.Count(); n != 0 {
			t.Fatalf("fine level extracted %d blocks for a region it does not store", n)
		}
		for i, v := range part.Levels[0].Grid.Data {
			if v != 0 {
				t.Fatalf("fine level cell %d = %v, want an untouched level", i, v)
			}
		}
		if n := part.Levels[1].Mask.Count(); n != 1 {
			t.Fatalf("coarse level extracted %d blocks, want the one covering the region", n)
		}
		// One coarse frame of the delta member and the one it references.
		most := maxFrame(&r.Members()[0].Levels[1]) + maxFrame(&r.Members()[1].Levels[1])
		if read := cr.read.Load() - before; read > most {
			t.Fatalf("read %d bytes for a one-block region, two coarse frames are at most %d", read, most)
		}
		return
	}
	t.Fatal("campaign has no unoccupied fine block; test is vacuous")
}

func maxFrame(idx *LevelIndex) int64 {
	var n int64
	for _, b := range idx.Batches {
		n = max(n, b.Length)
	}
	return n
}

// TestDecodeBatchOwnership checks the server-facing contract the scratch
// decode must not erode: every DecodeBatch/DecodeBatchOn result owns its
// memory — two decodes of one frame share nothing, and neither do a delta
// frame's blocks and the references it was decoded on.
func TestDecodeBatchOwnership(t *testing.T) {
	snaps := testCampaign(t, 3)
	blob := buildDeltaArchive(t, snaps, 4)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	const mi, li, b = 2, 0, 0 // chain depth 2
	first, err := r.DecodeBatch(mi, li, b)
	if err != nil {
		t.Fatal(err)
	}
	keep := slices.Clone(first[0].Data)
	second, err := r.DecodeBatch(mi, li, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		for j := range second[i].Data {
			second[i].Data[j] = -1
		}
	}
	if !sameBits(first[0].Data, keep) {
		t.Fatal("two DecodeBatch results of one frame share memory")
	}

	ref, delta, err := r.BatchDep(mi, li, b)
	if err != nil || !delta {
		t.Fatalf("BatchDep = %d, %v, %v; want a delta frame", ref, delta, err)
	}
	refs, err := r.DecodeBatch(ref, li, b)
	if err != nil {
		t.Fatal(err)
	}
	refKeep := slices.Clone(refs[0].Data)
	on, err := r.DecodeBatchOn(r.Section(), mi, li, b, refs)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(refs[0].Data, refKeep) {
		t.Fatal("DecodeBatchOn wrote to its references")
	}
	if !sameBits(on[0].Data, keep) {
		t.Fatal("DecodeBatchOn differs from DecodeBatch")
	}
	for j := range on[0].Data {
		on[0].Data[j] = -2
	}
	if !sameBits(refs[0].Data, refKeep) {
		t.Fatal("DecodeBatchOn result shares memory with its references")
	}
}
