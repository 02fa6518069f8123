package sim

import (
	"math"
	"testing"

	"repro/internal/grid"
)

func TestGRFStatistics(t *testing.T) {
	g := GaussianRandomField(32, 1)
	var sum, sum2 float64
	for _, v := range g.Data {
		sum += v
		sum2 += v * v
	}
	n := float64(len(g.Data))
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 1e-10 {
		t.Fatalf("GRF mean %v, want 0", mean)
	}
	if math.Abs(variance-1) > 1e-6 {
		t.Fatalf("GRF variance %v, want 1", variance)
	}
}

func TestGRFDeterministic(t *testing.T) {
	a := GaussianRandomField(16, 9)
	b := GaussianRandomField(16, 9)
	if grid.MaxAbsDiff(a, b) != 0 {
		t.Fatal("same seed produced different fields")
	}
	c := GaussianRandomField(16, 10)
	if grid.MaxAbsDiff(a, c) == 0 {
		t.Fatal("different seeds produced identical fields")
	}
}

func TestGRFSmoothness(t *testing.T) {
	// A falling spectrum must be smoother than white noise: neighboring
	// cells should correlate strongly.
	g := GaussianRandomField(32, 2)
	var corr float64
	n := 0
	for x := 0; x < 31; x++ {
		for y := 0; y < 32; y++ {
			for z := 0; z < 32; z++ {
				corr += g.At(x, y, z) * g.At(x+1, y, z)
				n++
			}
		}
	}
	corr /= float64(n)
	if corr < 0.5 {
		t.Fatalf("lag-1 correlation %v; field not smooth", corr)
	}
}

func TestGenerateValidDataset(t *testing.T) {
	spec := Spec{
		Name: "test", FinestN: 32, Levels: 2, UnitBlock: 4, Seed: 3,
		LeafFractions: []float64{0.25, 0.75},
	}
	ds, err := Generate(spec, BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	dens := ds.Densities()
	if math.Abs(dens[0]-0.25) > 0.05 {
		t.Fatalf("fine density %v, want ≈0.25", dens[0])
	}
	if math.Abs(dens[1]-0.75) > 0.05 {
		t.Fatalf("coarse density %v, want ≈0.75", dens[1])
	}
}

func TestGenerateMultiLevel(t *testing.T) {
	spec := Spec{
		Name: "test3", FinestN: 64, Levels: 3, UnitBlock: 4, Seed: 4,
		LeafFractions: []float64{0.01, 0.09, 0.90},
	}
	ds, err := Generate(spec, BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	dens := ds.Densities()
	if math.Abs(dens[2]-0.90) > 0.03 {
		t.Fatalf("coarsest density %v, want ≈0.90", dens[2])
	}
	if dens[0] <= 0 || dens[0] > 0.05 {
		t.Fatalf("finest density %v, want small nonzero", dens[0])
	}
}

func TestGenerateSingleLevel(t *testing.T) {
	spec := Spec{
		Name: "uni", FinestN: 16, Levels: 1, UnitBlock: 4, Seed: 5,
		LeafFractions: []float64{1},
	}
	ds, err := Generate(spec, Temperature)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := ds.Levels[0].Density(); d != 1 {
		t.Fatalf("single level density %v, want 1", d)
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "x", FinestN: 30, Levels: 1, UnitBlock: 2, LeafFractions: []float64{1}},            // not pow2
		{Name: "x", FinestN: 32, Levels: 2, UnitBlock: 2, LeafFractions: []float64{1}},            // wrong frac count
		{Name: "x", FinestN: 32, Levels: 1, UnitBlock: 2, LeafFractions: []float64{0.2}},          // sums to 0.2
		{Name: "x", FinestN: 32, Levels: 4, UnitBlock: 8, LeafFractions: []float64{0, 0, 0, 1}},   // coarsest 4 cells < ub
		{Name: "x", FinestN: 8, Levels: 5, UnitBlock: 2, LeafFractions: []float64{0, 0, 0, 0, 1}}, // coarsest 0 cells
		{Name: "x", FinestN: 32, Levels: 1, UnitBlock: -4, LeafFractions: []float64{1}},           // negative unit block
	}
	for i, s := range bad {
		if _, err := Generate(s, BaryonDensity); err == nil {
			t.Fatalf("spec %d should be rejected", i)
		}
	}
}

func TestFieldsShareRefinement(t *testing.T) {
	spec := Spec{
		Name: "t", FinestN: 32, Levels: 2, UnitBlock: 4, Seed: 6,
		LeafFractions: []float64{0.3, 0.7},
	}
	a, err := Generate(spec, BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, VelocityX)
	if err != nil {
		t.Fatal(err)
	}
	for li := range a.Levels {
		am, bm := a.Levels[li].Mask, b.Levels[li].Mask
		for i := 0; i < am.Len(); i++ {
			if am.AtIndex(i) != bm.AtIndex(i) {
				t.Fatalf("level %d masks differ between fields", li)
			}
		}
	}
}

func TestBaryonDensityHeavyTail(t *testing.T) {
	spec := Spec{
		Name: "t", FinestN: 32, Levels: 1, UnitBlock: 4, Seed: 7,
		LeafFractions: []float64{1},
	}
	ds, err := Generate(spec, BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Levels[0].Grid
	lo, hi := g.MinMax()
	if lo <= 0 {
		t.Fatalf("density must be positive, min %v", lo)
	}
	mean := g.Mean()
	if float64(hi) < 10*mean {
		t.Fatalf("max %v vs mean %v: tail not heavy enough for halo analysis", hi, mean)
	}
}

func TestCatalogSpecsValid(t *testing.T) {
	for _, scale := range []int{4, 8, 16} {
		specs, err := Catalog(scale)
		if err != nil {
			t.Fatalf("scale %d: %v", scale, err)
		}
		if len(specs) != 7 {
			t.Fatalf("scale %d: %d specs, want 7", scale, len(specs))
		}
	}
	if _, err := Catalog(3); err == nil {
		t.Fatal("scale 3 should be rejected")
	}
}

func TestCatalogDensitiesMatchTable1(t *testing.T) {
	// At scale 16 (fast), the generated densities should track Table 1.
	specs, err := Catalog(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if spec.Name == "Run2_T4" || spec.Name == "Run2_T3" {
			continue // too few blocks at scale 16 for tight density checks
		}
		ds, err := Generate(spec, BaryonDensity)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		dens := ds.Densities()
		for li, want := range spec.LeafFractions {
			tol := 0.1
			if got := dens[li]; math.Abs(got-want) > tol && math.Abs(got-want) > 0.5*want {
				t.Errorf("%s level %d density %.4f, want ≈%.4f", spec.Name, li, got, want)
			}
		}
	}
}

func TestSpecByName(t *testing.T) {
	s, err := SpecByName("Run1_Z10", 8)
	if err != nil || s.Name != "Run1_Z10" {
		t.Fatalf("SpecByName: %+v, %v", s, err)
	}
	if _, err := SpecByName("nope", 8); err == nil {
		t.Fatal("unknown name should error")
	}
}
