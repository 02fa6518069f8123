package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/amr"
	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sz"
)

// testDataset builds a small two-level dataset with the given fine-level
// volume fraction.
func testDataset(t *testing.T, fineFrac float64, seed int64) *amr.Dataset {
	t.Helper()
	ds, err := sim.Generate(sim.Spec{
		Name: "test", FinestN: 32, Levels: 2, UnitBlock: 4, Seed: seed,
		LeafFractions: []float64{fineFrac, 1 - fineFrac},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds
}

func allCodecs() []codec.Codec {
	return []codec.Codec{TAC{}, baseline.Naive1D{}, baseline.ZMesh{}, baseline.Uniform3D{}}
}

func TestAllCodecsRoundTripWithinBound(t *testing.T) {
	ds := testDataset(t, 0.25, 1)
	eb := 1e8 // baryon density scale ~1e11
	for _, c := range allCodecs() {
		blob, err := c.Compress(ds, codec.Config{ErrorBound: eb})
		if err != nil {
			t.Fatalf("%s: compress: %v", c.Name(), err)
		}
		got, err := c.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: decompress: %v", c.Name(), err)
		}
		if got.Name != ds.Name || len(got.Levels) != len(ds.Levels) {
			t.Fatalf("%s: structure mismatch", c.Name())
		}
		dist, err := metrics.DatasetDistortion(ds, got)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if dist.MaxErr > eb*(1+1e-6) {
			t.Fatalf("%s: max error %v exceeds bound %v", c.Name(), dist.MaxErr, eb)
		}
		if dist.N != ds.StoredCells() {
			t.Fatalf("%s: compared %d cells, want %d", c.Name(), dist.N, ds.StoredCells())
		}
	}
}

func TestAllCodecsCompress(t *testing.T) {
	// Compression must actually shrink the data at a loose bound.
	ds := testDataset(t, 0.25, 2)
	eb := 1e9
	for _, c := range allCodecs() {
		blob, err := c.Compress(ds, codec.Config{ErrorBound: eb})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if cr := metrics.CompressionRatio(ds.OriginalBytes(), len(blob)); cr < 2 {
			t.Fatalf("%s: compression ratio %.2f < 2", c.Name(), cr)
		}
	}
}

func TestTACStrategySelection(t *testing.T) {
	cfg := codec.Config{}.WithDefaults()
	cases := []struct {
		density float64
		want    codec.Strategy
	}{
		{0.01, codec.OpST},
		{0.49, codec.OpST},
		{0.50, codec.AKD},
		{0.59, codec.AKD},
		{0.60, codec.GSP},
		{0.99, codec.GSP},
	}
	for _, c := range cases {
		if got := PickStrategy(c.density, cfg); got != c.want {
			t.Fatalf("density %v: strategy %v, want %v", c.density, got, c.want)
		}
	}
	// Forced strategies bypass the filter.
	cfg.Strategy = codec.NaST
	if got := PickStrategy(0.01, cfg); got != codec.NaST {
		t.Fatalf("forced strategy ignored: %v", got)
	}
}

func TestTACForcedStrategiesRoundTrip(t *testing.T) {
	ds := testDataset(t, 0.4, 3)
	eb := 5e8
	for _, st := range []codec.Strategy{codec.ZF, codec.NaST, codec.OpST, codec.AKD, codec.GSP, codec.ClassicKD} {
		blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: eb, Strategy: st})
		if err != nil {
			t.Fatalf("%s: compress: %v", st, err)
		}
		got, err := TAC{}.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: decompress: %v", st, err)
		}
		dist, err := metrics.DatasetDistortion(ds, got)
		if err != nil {
			t.Fatal(err)
		}
		if dist.MaxErr > eb*(1+1e-6) {
			t.Fatalf("%s: max error %v exceeds bound", st, dist.MaxErr)
		}
	}
}

// levelMaxErr is the largest absolute error over the stored cells of a
// reconstructed level.
func levelMaxErr(t *testing.T, orig, recon *amr.Level) float64 {
	t.Helper()
	ov, rv := orig.MaskedValues(nil), recon.MaskedValues(nil)
	if len(rv) != len(ov) {
		t.Fatalf("%d stored cells reconstructed, want %d", len(rv), len(ov))
	}
	var m float64
	for i := range ov {
		m = max(m, math.Abs(float64(ov[i])-float64(rv[i])))
	}
	return m
}

func TestTACRelativeMode(t *testing.T) {
	ds := testDataset(t, 0.3, 4)
	rel := 1e-3
	blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: rel, Mode: sz.Rel})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TAC{}.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Per level, the bound is rel × that level's stored-value range.
	for li := range ds.Levels {
		ov := ds.Levels[li].MaskedValues(nil)
		bound := rel * (float64(slices.Max(ov)) - float64(slices.Min(ov)))
		if e := levelMaxErr(t, ds.Levels[li], got.Levels[li]); e > bound*(1+1e-6) {
			t.Fatalf("level %d: max err %v exceeds rel bound %v", li, e, bound)
		}
	}
}

func TestTACPerLevelErrorBounds(t *testing.T) {
	// LevelScales {4,1}: the fine level gets a 4× looser bound.
	ds := testDataset(t, 0.3, 5)
	eb := 1e8
	blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: eb, LevelScales: []float64{4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TAC{}.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if e := levelMaxErr(t, ds.Levels[0], got.Levels[0]); e > 4*eb*(1+1e-6) {
		t.Fatalf("fine level err %v exceeds scaled bound", e)
	}
	if e := levelMaxErr(t, ds.Levels[1], got.Levels[1]); e > eb*(1+1e-6) {
		t.Fatalf("coarse level err %v exceeds base bound", e)
	}
	// The scaled payload should be smaller than the uniform one.
	uniform, err := TAC{}.Compress(ds, codec.Config{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) >= len(uniform) {
		t.Fatalf("4:1 scaling produced payload %d ≥ uniform %d", len(blob), len(uniform))
	}
}

func TestAdaptiveBaselineSwitch(t *testing.T) {
	// Dense finest level (75%) with AdaptiveBaseline: the payload should be
	// a 3D-baseline container, and TAC.Decompress must still read it.
	ds := testDataset(t, 0.75, 6)
	blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: 1e8, AdaptiveBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	u3 := baseline.Uniform3D{}
	if _, err := u3.Decompress(blob); err != nil {
		t.Fatalf("payload is not a 3D-baseline container: %v", err)
	}
	got, err := TAC{}.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := metrics.DatasetDistortion(ds, got)
	if err != nil {
		t.Fatal(err)
	}
	if dist.MaxErr > 1e8*(1+1e-6) {
		t.Fatalf("max err %v exceeds bound", dist.MaxErr)
	}

	// Sparse finest level: stays a TAC container.
	ds2 := testDataset(t, 0.2, 7)
	blob2, err := TAC{}.Compress(ds2, codec.Config{ErrorBound: 1e8, AdaptiveBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u3.Decompress(blob2); err == nil {
		t.Fatal("sparse dataset should not be routed to the 3D baseline")
	}
}

func TestCodecIDMismatch(t *testing.T) {
	ds := testDataset(t, 0.3, 8)
	blob, err := (baseline.Naive1D{}).Compress(ds, codec.Config{ErrorBound: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	var tc TAC
	if _, err := tc.Decompress(blob); err == nil {
		t.Fatal("TAC must reject a 1D-baseline payload")
	}
	var zm baseline.ZMesh
	if _, err := zm.Decompress(blob); err == nil {
		t.Fatal("zMesh must reject a 1D-baseline payload")
	}
}

func TestCorruptContainer(t *testing.T) {
	ds := testDataset(t, 0.3, 9)
	blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	var tc TAC
	if _, err := tc.Decompress(nil); err == nil {
		t.Fatal("nil payload should error")
	}
	if _, err := tc.Decompress(blob[:len(blob)/3]); err == nil {
		t.Fatal("truncated payload should error")
	}
}

func TestMultiLevelDatasetRoundTrip(t *testing.T) {
	ds, err := sim.Generate(sim.Spec{
		Name: "t3", FinestN: 64, Levels: 3, UnitBlock: 4, Seed: 10,
		LeafFractions: []float64{0.02, 0.18, 0.80},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e8
	for _, c := range allCodecs() {
		blob, err := c.Compress(ds, codec.Config{ErrorBound: eb})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, err := c.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		dist, err := metrics.DatasetDistortion(ds, got)
		if err != nil {
			t.Fatal(err)
		}
		if dist.MaxErr > eb*(1+1e-6) {
			t.Fatalf("%s: max err %v exceeds bound", c.Name(), dist.MaxErr)
		}
	}
}

func TestVelocityFieldRoundTrip(t *testing.T) {
	// Velocities are signed; make sure nothing assumes positivity.
	ds, err := sim.Generate(sim.Spec{
		Name: "v", FinestN: 32, Levels: 2, UnitBlock: 4, Seed: 11,
		LeafFractions: []float64{0.3, 0.7},
	}, sim.VelocityX)
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e4 // velocity scale ~1e7
	blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TAC{}.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := metrics.DatasetDistortion(ds, got)
	if err != nil {
		t.Fatal(err)
	}
	if dist.MaxErr > eb*(1+1e-6) {
		t.Fatalf("max err %v exceeds bound", dist.MaxErr)
	}
}

func TestTighterBoundHigherPSNR(t *testing.T) {
	ds := testDataset(t, 0.25, 12)
	var prevPSNR float64 = math.Inf(-1)
	for _, eb := range []float64{1e10, 1e9, 1e8} {
		blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		got, err := TAC{}.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := metrics.DatasetDistortion(ds, got)
		if err != nil {
			t.Fatal(err)
		}
		if p := dist.PSNR(); p < prevPSNR {
			t.Fatalf("eb %v: PSNR %v dropped below %v", eb, p, prevPSNR)
		} else {
			prevPSNR = p
		}
	}
}

// workerCounts are the Workers values every fan-out test compares with
// Workers = 1: even, odd, more than there are units or cores, and all CPUs.
var workerCounts = []int{2, 3, 8, -1}

type workerCase struct {
	name string
	ds   *amr.Dataset
	cfg  codec.Config
}

// workerCases covers every shape a plan takes: each forced strategy, the
// density filter over three levels, and the Sec. 4.4 hand-off to the 3D
// baseline.
func workerCases(t *testing.T) []workerCase {
	t.Helper()
	var cases []workerCase
	two := testDataset(t, 0.4, 14)
	for _, st := range []codec.Strategy{codec.ZF, codec.GSP, codec.NaST, codec.OpST, codec.AKD, codec.ClassicKD} {
		cases = append(cases, workerCase{st.String(), two, codec.Config{ErrorBound: 1e9, Strategy: st}})
	}
	three, err := sim.Generate(sim.Spec{
		Name: "t3", FinestN: 64, Levels: 3, UnitBlock: 4, Seed: 15,
		LeafFractions: []float64{0.05, 0.33, 0.62},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, workerCase{"Auto", three, codec.Config{ErrorBound: 1e9}})
	cases = append(cases, workerCase{"AdaptiveBaseline", testDataset(t, 0.75, 16), codec.Config{ErrorBound: 1e9, AdaptiveBaseline: true}})
	return cases
}

func TestParallelWorkersIdenticalPayload(t *testing.T) {
	for _, c := range workerCases(t) {
		c.cfg.Workers = 1
		serial, err := TAC{}.Compress(c.ds, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, w := range workerCounts {
			c.cfg.Workers = w
			par, err := TAC{}.Compress(c.ds, c.cfg)
			if err != nil {
				t.Fatalf("%s workers %d: %v", c.name, w, err)
			}
			if !bytes.Equal(serial, par) {
				t.Fatalf("%s workers %d: payload differs from Workers = 1", c.name, w)
			}
		}
	}
}
