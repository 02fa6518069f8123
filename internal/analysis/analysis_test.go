package analysis

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

func TestPowerSpectrumOfSineMode(t *testing.T) {
	// A density field with a single Fourier mode at |k|=4 concentrates all
	// power in that bin.
	n := 32
	g := grid.NewCube[float64](n)
	for x := 0; x < n; x++ {
		v := 1 + 0.5*math.Cos(2*math.Pi*4*float64(x)/float64(n))
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				g.Set(x, y, z, v)
			}
		}
	}
	ps, err := ComputePowerSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	var peakK float64
	var peakP float64
	for i := range ps.K {
		if ps.Pk[i] > peakP {
			peakP, peakK = ps.Pk[i], ps.K[i]
		}
	}
	if peakK != 4 {
		t.Fatalf("power peak at k=%v, want 4", peakK)
	}
	// Power away from the peak should be tiny.
	for i := range ps.K {
		if ps.K[i] != 4 && ps.Pk[i] > peakP*1e-9 {
			t.Fatalf("leakage at k=%v: %v", ps.K[i], ps.Pk[i])
		}
	}
}

func TestPowerSpectrumSelfError(t *testing.T) {
	g := grid.NewCube[float64](16)
	for i := range g.Data {
		g.Data[i] = 1 + 0.1*math.Sin(float64(i))
	}
	ps, err := ComputePowerSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	_, maxErr, err := ps.RelativeError(ps, 8)
	if err != nil || maxErr != 0 {
		t.Fatalf("self relative error %v, %v", maxErr, err)
	}
}

func TestPowerSpectrumErrGrowsWithDistortion(t *testing.T) {
	spec := sim.Spec{
		Name: "ps", FinestN: 32, Levels: 1, UnitBlock: 4, Seed: 21,
		LeafFractions: []float64{1},
	}
	ds, err := sim.Generate(spec, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	orig := ds.FlattenToUniform()
	ps0, err := ComputePowerSpectrum(orig)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, noise := range []float64{1e8, 1e9, 1e10} {
		rng := rand.New(rand.NewSource(99))
		pert := orig.Clone()
		for i := range pert.Data {
			pert.Data[i] += float32(noise * rng.NormFloat64())
		}
		ps1, err := ComputePowerSpectrum(pert)
		if err != nil {
			t.Fatal(err)
		}
		_, maxErr, err := ps1.RelativeError(ps0, 10)
		if err != nil {
			t.Fatal(err)
		}
		_ = maxErr
		// Compare against the original's binning orientation too.
		_, e, err := ps0.RelativeError(ps1, 10)
		if err != nil {
			t.Fatal(err)
		}
		if e <= prev {
			t.Fatalf("noise %v: power-spectrum error %v did not grow (prev %v)", noise, e, prev)
		}
		prev = e
	}
}

func TestPowerSpectrumRejectsBadInput(t *testing.T) {
	if _, err := ComputePowerSpectrum(grid.New[float64](grid.Dims{X: 8, Y: 8, Z: 4})); err == nil {
		t.Fatal("non-cube should be rejected")
	}
	if _, err := ComputePowerSpectrum(grid.New[float64](grid.Dims{X: 12, Y: 12, Z: 12})); err == nil {
		t.Fatal("non-pow2 should be rejected")
	}
	zero := grid.NewCube[float64](8)
	if _, err := ComputePowerSpectrum(zero); err == nil {
		t.Fatal("zero-mean field should be rejected")
	}
}

// blobField places a dense spherical over-density in a flat background.
func blobField(n int, cx, cy, cz, r int, amp float64) *grid.Grid3[float32] {
	g := grid.NewCube[float32](n)
	g.Fill(1)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				dx, dy, dz := x-cx, y-cy, z-cz
				if dx*dx+dy*dy+dz*dz <= r*r {
					g.Set(x, y, z, float32(amp))
				}
			}
		}
	}
	return g
}

func TestHaloFinderFindsBlob(t *testing.T) {
	g := blobField(32, 16, 16, 16, 4, 1e5)
	halos := FindHalos(g)
	if len(halos) != 1 {
		t.Fatalf("found %d halos, want 1", len(halos))
	}
	h := halos[0]
	if math.Abs(h.X-16) > 0.5 || math.Abs(h.Y-16) > 0.5 || math.Abs(h.Z-16) > 0.5 {
		t.Fatalf("halo center (%v,%v,%v), want ≈(16,16,16)", h.X, h.Y, h.Z)
	}
	if h.Cells < 200 || h.Cells > 400 {
		t.Fatalf("halo has %d cells, expected ≈257 (r=4 sphere)", h.Cells)
	}
}

func TestHaloFinderSeparatesTwoBlobs(t *testing.T) {
	g := blobField(64, 8, 8, 8, 3, 1e5)
	// Second, bigger blob.
	for x := 40; x < 48; x++ {
		for y := 40; y < 48; y++ {
			for z := 40; z < 48; z++ {
				g.Set(x, y, z, 2e5)
			}
		}
	}
	halos := FindHalos(g)
	if len(halos) != 2 {
		t.Fatalf("found %d halos, want 2", len(halos))
	}
	if halos[0].Mass < halos[1].Mass {
		t.Fatal("halos not sorted by mass")
	}
	if halos[0].Cells != 512 {
		t.Fatalf("biggest halo %d cells, want 512", halos[0].Cells)
	}
}

func TestHaloFinderMinCells(t *testing.T) {
	// A rod of c over-dense cells in a flat background is one component
	// of c cells: a halo from minCells cells up, none below.
	for _, c := range []int{minCells - 1, minCells} {
		g := grid.NewCube[float32](16)
		g.Fill(1)
		for x := 0; x < c; x++ {
			g.Set(4+x, 8, 8, 1e6)
		}
		halos := FindHalos(g)
		switch {
		case c < minCells && len(halos) != 0:
			t.Fatalf("%d cells found %d halos, want 0", c, len(halos))
		case c >= minCells && (len(halos) != 1 || halos[0].Cells != c):
			t.Fatalf("%d cells found %+v, want one halo of %d cells", c, halos, c)
		}
	}
}

func TestCompareHalosIdentical(t *testing.T) {
	g := blobField(32, 16, 16, 16, 4, 1e5)
	d, err := CompareHalos(g, g)
	if err != nil {
		t.Fatal(err)
	}
	if d.RelMassDiff != 0 || d.CellNumDiff != 0 {
		t.Fatalf("self-compare diff: %+v", d)
	}
}

func TestCompareHalosDetectsDistortion(t *testing.T) {
	g := blobField(64, 16, 16, 16, 5, 1e5)
	pert := g.Clone()
	// Erode the halo: pull boundary cells below threshold.
	for x := 0; x < 64; x++ {
		for y := 0; y < 64; y++ {
			for z := 0; z < 64; z++ {
				dx, dy, dz := x-16, y-16, z-16
				r2 := dx*dx + dy*dy + dz*dz
				if r2 > 16 && r2 <= 25 {
					pert.Set(x, y, z, 1)
				}
			}
		}
	}
	d, err := CompareHalos(g, pert)
	if err != nil {
		t.Fatal(err)
	}
	if d.RelMassDiff <= 0 || d.CellNumDiff <= 0 {
		t.Fatalf("distortion not detected: %+v", d)
	}
}

func TestCompareHalosNoOriginal(t *testing.T) {
	g := grid.NewCube[float32](8)
	g.Fill(1)
	if _, err := CompareHalos(g, g); err == nil {
		t.Fatal("flat field has no halos; CompareHalos should error")
	}
}

func TestHaloFinderOnSimulatedField(t *testing.T) {
	// The synthetic baryon density must contain halos (heavy lognormal
	// tail) — this is what makes the Table 3 experiment meaningful.
	ds, err := sim.Generate(sim.Spec{
		Name: "h", FinestN: 64, Levels: 1, UnitBlock: 4, Seed: 31,
		LeafFractions: []float64{1},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	halos := FindHalos(ds.FlattenToUniform())
	if len(halos) == 0 {
		t.Fatal("no halos in simulated baryon density field")
	}
}
