package archive

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/sim"
)

// writeMembers archives snaps through AddDataset, or, with perLevel, through
// BeginMember and one AddLevel per level.
func writeMembers(t testing.TB, snaps []*amr.Dataset, keyframe, batchBlocks int, cfg codec.Config, perLevel bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = batchBlocks
	w.Keyframe = keyframe
	for _, ds := range snaps {
		if !perLevel {
			if err := w.AddDataset(ds, cfg); err != nil {
				t.Fatal(err)
			}
			continue
		}
		mw, err := w.BeginMember(ds.Name, ds.Field, ds.Ratio, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range ds.Levels {
			if err := mw.AddLevel(l); err != nil {
				t.Fatal(err)
			}
		}
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// setCells overwrites the first cells of the k-th occupied block of l,
// along its first z-run, with vs.
func setCells(l *amr.Level, k int, vs ...amr.Value) {
	b := l.BlockRegion(l.Mask.Dim.Coords(l.Mask.OccupiedIndices()[k]))
	i := l.Grid.Dim.Index(b.X0, b.Y0, b.Z0)
	copy(l.Grid.Data[i:i+len(vs)], vs)
}

// rangeEdgeCampaign is a five-step campaign at one AMR structure whose
// steps put what a range scanned in batch spans could get wrong where a
// span of batchBlocks blocks starts: a NaN as a level's first cell; a NaN
// as the first cell of a later batch, with the level's new extremes right
// behind it; ±Inf; and a constant coarse level.
func rangeEdgeCampaign(t testing.TB, batchBlocks int) []*amr.Dataset {
	snaps := campaignOf(t, 16, 4, 5)
	nan, inf := amr.Value(math.NaN()), amr.Value(math.Inf(1))
	setCells(snaps[1].Levels[0], 0, nan)
	setCells(snaps[2].Levels[0], batchBlocks, nan, 1e30, -1e30)
	setCells(snaps[2].Levels[1], 2*batchBlocks, nan, -1e30)
	setCells(snaps[3].Levels[0], 3, 0, inf)
	setCells(snaps[3].Levels[1], 5, -inf)
	coarse := snaps[4].Levels[1].Grid.Data
	for i := range coarse {
		coarse[i] = 42
	}
	return snaps
}

// TestZeroFrameLevelKeepsItsPlace writes members whose middle level has an
// empty mask between two occupied ones: the member keeps its three levels
// in order, the middle one an index entry without frames, and AddDataset's
// pool and one AddLevel per level write and extract the same, intra and
// Keyframe=4, at Workers 1, 2 and -1.
func TestZeroFrameLevelKeepsItsPlace(t *testing.T) {
	base, err := sim.Generate(sim.Spec{
		Name: "z0", FinestN: 32, Levels: 3, UnitBlock: 4,
		Seed: 11, LeafFractions: []float64{0.2, 0.3, 0.5},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	base.Levels[1].Mask.Fill(false)
	snaps := []*amr.Dataset{base, driftDataset(base, "z1", testEB, 1)}
	const batchBlocks = 4
	for _, keyframe := range []int{0, 4} {
		for _, workers := range []int{1, 2, -1} {
			cfg := codec.Config{ErrorBound: testEB, Workers: workers}
			pooled := writeMembers(t, snaps, keyframe, batchBlocks, cfg, false)
			perLevel := writeMembers(t, snaps, keyframe, batchBlocks, cfg, true)
			if !bytes.Equal(pooled, perLevel) {
				t.Fatalf("keyframe %d workers %d: AddDataset wrote %d bytes, AddLevel %d", keyframe, workers, len(pooled), len(perLevel))
			}
			var readers [2]*Reader
			for i, blob := range [][]byte{pooled, perLevel} {
				if readers[i], err = Open(bytes.NewReader(blob), int64(len(blob))); err != nil {
					t.Fatal(err)
				}
			}
			for mi, m := range readers[0].Members() {
				ds := snaps[mi]
				if len(m.Levels) != len(ds.Levels) {
					t.Fatalf("keyframe %d workers %d: member %d indexes %d levels, want %d", keyframe, workers, mi, len(m.Levels), len(ds.Levels))
				}
				for li := range m.Levels {
					idx, l := &m.Levels[li], ds.Levels[li]
					if idx.Dims != l.Grid.Dim || !idx.Mask.Equal(l.Mask) {
						t.Fatalf("keyframe %d workers %d: member %d level %d is %v, want %v", keyframe, workers, mi, li, idx.Dims, l.Grid.Dim)
					}
					if empty := len(idx.Batches) == 0; empty != (li == 1) {
						t.Fatalf("keyframe %d workers %d: member %d level %d has %d frames", keyframe, workers, mi, li, len(idx.Batches))
					}
				}
				var got [2]*amr.Dataset
				for i, r := range readers {
					if got[i], err = r.Extract(mi); err != nil {
						t.Fatal(err)
					}
				}
				for li, l := range ds.Levels {
					a, b := got[0].Levels[li], got[1].Levels[li]
					if !a.Mask.Equal(b.Mask) || !sameBits(a.Grid.Data, b.Grid.Data) {
						t.Fatalf("keyframe %d workers %d: member %d level %d extracts differently", keyframe, workers, mi, li)
					}
					if worst := maskedMaxErr(l, a, l.Mask); worst > testEB {
						t.Fatalf("keyframe %d workers %d: member %d level %d max err %.4g > bound %.4g", keyframe, workers, mi, li, worst, testEB)
					}
				}
			}
		}
	}
}
