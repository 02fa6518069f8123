package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/sim"
	"repro/internal/sz"
)

// writeMembers archives snaps through AddDataset.
func writeMembers(t testing.TB, snaps []*amr.Dataset, keyframe, batchBlocks int, cfg codec.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = batchBlocks
	w.Keyframe = keyframe
	for _, ds := range snaps {
		if err := w.AddDataset(ds, cfg); err != nil {
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
// in order, the middle one an index entry without frames, the archive is
// the same at Workers 1, 2 and -1, and every level extracts within the
// bound, intra and Keyframe=4.
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
		blob := writeMembers(t, snaps, keyframe, batchBlocks, codec.Config{ErrorBound: testEB, Workers: 1})
		for _, workers := range []int{2, -1} {
			if got := writeMembers(t, snaps, keyframe, batchBlocks, codec.Config{ErrorBound: testEB, Workers: workers}); !bytes.Equal(got, blob) {
				t.Fatalf("keyframe %d workers %d: wrote %d bytes, %d at Workers 1", keyframe, workers, len(got), len(blob))
			}
		}
		r, err := Open(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			t.Fatal(err)
		}
		for mi, m := range r.Members() {
			ds := snaps[mi]
			if len(m.Levels) != len(ds.Levels) {
				t.Fatalf("keyframe %d: member %d indexes %d levels, want %d", keyframe, mi, len(m.Levels), len(ds.Levels))
			}
			for li := range m.Levels {
				idx, l := &m.Levels[li], ds.Levels[li]
				if idx.Dims != l.Grid.Dim || !idx.Mask.Equal(l.Mask) {
					t.Fatalf("keyframe %d: member %d level %d is %v, want %v", keyframe, mi, li, idx.Dims, l.Grid.Dim)
				}
				if empty := len(idx.Batches) == 0; empty != (li == 1) {
					t.Fatalf("keyframe %d: member %d level %d has %d frames", keyframe, mi, li, len(idx.Batches))
				}
			}
			got, err := r.Extract(mi)
			if err != nil {
				t.Fatal(err)
			}
			for li, l := range ds.Levels {
				if worst := maskedMaxErr(l, got.Levels[li], l.Mask); worst > testEB {
					t.Fatalf("keyframe %d: member %d level %d max err %.4g > bound %.4g", keyframe, mi, li, worst, testEB)
				}
			}
		}
	}
}

// parentWriterCase is one archive testdata/parent_writer.txt pins.
type parentWriterCase struct {
	name        string
	snaps       []*amr.Dataset
	keyframe    int
	batchBlocks int
	cfg         codec.Config
}

// parentWriterCases are rangeEdgeCampaign at 2 blocks a frame and
// testSnapshots at 16, each Abs and Rel, intra and Keyframe=4.
func parentWriterCases(t testing.TB) []parentWriterCase {
	var cases []parentWriterCase
	for _, src := range []struct {
		name        string
		snaps       []*amr.Dataset
		batchBlocks int
	}{
		{"edges", rangeEdgeCampaign(t, 2), 2},
		{"snapshots", testSnapshots(t), 16},
	} {
		for _, mode := range []struct {
			name string
			cfg  codec.Config
		}{
			{"abs", codec.Config{ErrorBound: testEB}},
			{"rel", codec.Config{ErrorBound: 1e-3, Mode: sz.Rel}},
		} {
			for _, keyframe := range []int{0, 4} {
				cases = append(cases, parentWriterCase{
					name:  fmt.Sprintf("%s/%s/keyframe%d", src.name, mode.name, keyframe),
					snaps: src.snaps, keyframe: keyframe, batchBlocks: src.batchBlocks, cfg: mode.cfg,
				})
			}
		}
	}
	return cases
}

// TestWriterMatchesParentHashes rewrites every archive of
// parentWriterCases at Workers 1, 2 and -1: each must hash to what
// testdata/parent_writer.txt says, the SHA-256 of the archive the writer's
// serial per-level path wrote (Workers 1, one level at a time) before that
// path was removed. Never rewrite the file with the current writer.
func TestWriterMatchesParentHashes(t *testing.T) {
	text, err := os.ReadFile("testdata/parent_writer.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("fixture line %q: want name, sha256", line)
		}
		want[f[0]] = f[1]
	}
	cases := parentWriterCases(t)
	if len(want) != len(cases) {
		t.Fatalf("%d fixtures for %d cases", len(want), len(cases))
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, -1} {
			cfg := c.cfg
			cfg.Workers = workers
			sum := sha256.Sum256(writeMembers(t, c.snaps, c.keyframe, c.batchBlocks, cfg))
			if got := hex.EncodeToString(sum[:]); got != want[c.name] {
				t.Errorf("%s workers %d: sha256 %s, the parent wrote %s", c.name, workers, got, want[c.name])
			}
		}
	}
}
