package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sz"
)

// PickStrategyForTest exposes the density filter with default thresholds
// for the experiment tests without importing internal/core (which imports
// this package's sibling codecs).
func PickStrategyForTest(density float64) codec.Strategy {
	switch {
	case density < 0.5:
		return codec.OpST
	case density < 0.6:
		return codec.AKD
	default:
		return codec.GSP
	}
}

// codecConfig is a test helper building a plain absolute-bound config.
func codecConfig(eb float64) codec.Config { return codec.Config{ErrorBound: eb} }

func TestAblationDimsOrdering(t *testing.T) {
	// The Sec. 2.3 premise at dataset scale: 3D < 2D < 1D bits/value on
	// the flattened field.
	env := testEnv()
	ds, err := env.Dataset("Run1_Z10", sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	uni := ds.FlattenToUniform()
	opts := sz.Options{ErrorBound: 1e9}
	b1, _, err := sz.Compress1D(uni.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := sz.CompressSlices(uni, opts)
	if err != nil {
		t.Fatal(err)
	}
	b3, _, err := sz.Compress3D(uni, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !(len(b3) < len(b2) && len(b2) < len(b1)) {
		t.Fatalf("want 3D < 2D < 1D, got %d / %d / %d", len(b3), len(b2), len(b1))
	}
}

func TestFieldsExhibitCoversAllSix(t *testing.T) {
	var buf bytes.Buffer
	if err := Fields(&buf, testEnv()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, f := range sim.Fields() {
		if !strings.Contains(out, string(f)) {
			t.Fatalf("fields exhibit missing %s:\n%s", f, out)
		}
	}
}

func TestFig16Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig16(&buf, testEnv()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tree-structured") || !strings.Contains(out, "block-structured") {
		t.Fatalf("fig16 output malformed:\n%s", out)
	}
}

func TestFig18MonotoneBitRates(t *testing.T) {
	// Fig 18's premise: bit-rate decreases monotonically with the bound,
	// for both levels.
	env := testEnv()
	ds, err := env.Dataset("Run1_Z2", sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range ds.Levels {
		prev := 1e18
		for _, eb := range []float64{1e8, 1e9, 1e10, 1e11} {
			res, err := RunLevel(l, PickStrategyForTest(l.Density()), eb)
			if err != nil {
				t.Fatal(err)
			}
			if res.BitRate > prev*1.02 { // small tolerance for entropy noise
				t.Fatalf("level %d: bit-rate %v at eb %v above %v at looser bound", li, res.BitRate, eb, prev)
			}
			prev = res.BitRate
		}
	}
}

func TestTable2ThroughputSane(t *testing.T) {
	// One throughput cell, checked for sanity: positive, finite.
	env := testEnv()
	ds, err := env.Dataset("Run1_Z10", sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	p, ct, dt, err := RunCodec(Codecs()[0], ds, codecConfig(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if ct <= 0 || dt <= 0 {
		t.Fatalf("non-positive timings: %v %v", ct, dt)
	}
	if p.Ratio < 1 {
		t.Fatalf("TAC expanded the data: CR %.2f", p.Ratio)
	}
	if p.BitRate <= 0 || p.BitRate > 32 {
		t.Fatalf("implausible bit-rate %v", p.BitRate)
	}
	if r := metrics.CompressionRatio(ds.OriginalBytes(), 1); r <= 0 {
		t.Fatal("metrics sanity")
	}
}

func TestRunAllExhibitsAtTinyScale(t *testing.T) {
	// End-to-end smoke of every exhibit runner, paper + extras, at scale
	// 16 (Run1 at 32³/16³). Catches panics, format errors and broken
	// plumbing across the whole harness.
	if testing.Short() {
		t.Skip("full harness run skipped in -short mode")
	}
	env := NewEnv(16)
	var buf bytes.Buffer
	if err := RunAll(&buf, env); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, marker := range []string{"Table 1", "Fig 7", "Fig 11", "Fig 12", "Fig 13", "Fig 14", "Fig 15", "Fig 16", "Fig 18", "Fig 19", "Table 2", "Table 3", "Ablation", "Extension"} {
		if !strings.Contains(out, marker) {
			t.Fatalf("harness output missing %q", marker)
		}
	}
}
