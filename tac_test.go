package tac_test

import (
	"math"
	"path/filepath"
	"testing"

	tac "repro"
	"repro/internal/amr"
	"repro/internal/grid"
)

func quickDataset(t *testing.T) *tac.Dataset {
	t.Helper()
	ds, err := tac.Generate(tac.Spec{
		Name: "facade", FinestN: 32, Levels: 2, UnitBlock: 4, Seed: 77,
		LeafFractions: []float64{0.3, 0.7},
	}, tac.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFacadeRoundTrip(t *testing.T) {
	ds := quickDataset(t)
	eb := 1e9
	blob, err := tac.Compress(ds, tac.Config{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	recon, err := tac.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for li := range ds.Levels {
		ov := ds.Levels[li].MaskedValues(nil)
		rv := recon.Levels[li].MaskedValues(nil)
		for i := range ov {
			if e := math.Abs(float64(ov[i]) - float64(rv[i])); e > eb*(1+1e-6) {
				t.Fatalf("level %d cell %d error %v exceeds bound", li, i, e)
			}
		}
	}
}

// TestCompressRefusesWhatDecompressRefuses: a valid one-level dataset of
// 2^21×1×1 cells, whose extent no payload reader accepts, is refused by
// every one-shot codec instead of coded into a payload that Decompress
// refuses.
func TestCompressRefusesWhatDecompressRefuses(t *testing.T) {
	l := amr.NewLevel(grid.Dims{X: 1 << 21, Y: 1, Z: 1}, 1)
	l.Mask.Fill(true)
	ds := &tac.Dataset{Name: "wide", Field: "f", Ratio: 2, Levels: []*tac.Level{l}}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	codecs := []tac.Codec{tac.NewTAC()}
	for _, name := range []string{"1D", "zMesh", "3D"} {
		c, err := tac.NewBaseline(name)
		if err != nil {
			t.Fatal(err)
		}
		codecs = append(codecs, c)
	}
	for _, c := range codecs {
		if blob, err := c.Compress(ds, tac.Config{ErrorBound: 1}); err == nil {
			t.Errorf("%s: wrote a %d-byte payload of a 2^21-cell extent", c.Name(), len(blob))
		}
	}
}

func TestFacadeBaselines(t *testing.T) {
	ds := quickDataset(t)
	for _, name := range []string{"1D", "zMesh", "3D"} {
		c, err := tac.NewBaseline(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name {
			t.Fatalf("baseline %q reports name %q", name, c.Name())
		}
		blob, err := c.Compress(ds, tac.Config{ErrorBound: 1e9})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := c.Decompress(blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := tac.NewBaseline("nope"); err == nil {
		t.Fatal("unknown baseline should error")
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	ds := quickDataset(t)
	path := filepath.Join(t.TempDir(), "f.amr")
	if err := tac.Save(ds, path); err != nil {
		t.Fatal(err)
	}
	got, err := tac.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.StoredCells() != ds.StoredCells() || got.Name != ds.Name {
		t.Fatal("loaded dataset differs")
	}
}

func TestFacadeRelModeAndScales(t *testing.T) {
	ds := quickDataset(t)
	blob, err := tac.Compress(ds, tac.Config{
		ErrorBound:  1e-3,
		Mode:        tac.Rel,
		LevelScales: []float64{3, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tac.Decompress(blob); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeForcedStrategy(t *testing.T) {
	ds := quickDataset(t)
	for _, st := range []tac.Config{
		{ErrorBound: 1e9, Strategy: tac.OpST},
		{ErrorBound: 1e9, Strategy: tac.AKDTree},
		{ErrorBound: 1e9, Strategy: tac.GSP},
		{ErrorBound: 1e9, Strategy: tac.NaST},
		{ErrorBound: 1e9, Strategy: tac.ClassicKD},
	} {
		blob, err := tac.Compress(ds, st)
		if err != nil {
			t.Fatalf("strategy %v: %v", st.Strategy, err)
		}
		if _, err := tac.Decompress(blob); err != nil {
			t.Fatalf("strategy %v: %v", st.Strategy, err)
		}
	}
}
