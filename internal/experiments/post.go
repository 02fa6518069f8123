package experiments

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Fig19 reproduces the power-spectrum experiment on Run1_Z2: at (almost)
// the same compression ratio, compare the relative P(k) error of the 3D
// baseline, TAC with a uniform error bound (1:1), and TAC with the paper's
// 3:1 fine:coarse adaptive bound. Expected shape: TAC(1:1) ≈ 3D baseline;
// TAC(3:1) clearly better, comfortably under the 1% acceptance line.
func Fig19(w io.Writer, env *Env) error {
	ds, err := env.Dataset("Run1_Z2", sim.BaryonDensity)
	if err != nil {
		return err
	}
	orig := ds.FlattenToUniform()
	psOrig, err := analysis.ComputePowerSpectrum(orig)
	if err != nil {
		return err
	}
	// Anchor: the 3D baseline at a mid-sweep bound sets the target ratio.
	anchor := codec.Config{ErrorBound: 2e9}
	u3 := baseline.Uniform3D{}
	blob, err := u3.Compress(ds, anchor)
	if err != nil {
		return err
	}
	target := metrics.CompressionRatio(ds.OriginalBytes(), len(blob))

	type variant struct {
		label string
		c     codec.Codec
		base  codec.Config
	}
	variants := []variant{
		{"3D baseline", u3, anchor},
		{"TAC (1:1)", core.TAC{}, codec.Config{}},
		{"TAC (3:1)", core.TAC{}, codec.Config{LevelScales: []float64{3, 1}}},
	}
	// kMax: the paper uses k < 10 on 512³ grids; scale proportionally.
	kMax := float64(ds.FinestDims().X) * 10 / 512
	if kMax < 4 {
		kMax = 4
	}
	fprintf(w, "Fig 19: power-spectrum error on Run1_Z2 at matched CR ≈ %.1f (k < %.0f)\n", target, kMax)
	fprintf(w, "%-14s %-10s %-10s %-14s\n", "Method", "eb", "CR", "maxRelErr P(k)")
	for _, v := range variants {
		eb, got, err := MatchRatio(v.c, ds, v.base, target, 0.02, 24)
		if err != nil {
			return err
		}
		cfg := v.base
		cfg.ErrorBound = eb
		blob, err := v.c.Compress(ds, cfg)
		if err != nil {
			return err
		}
		recon, err := v.c.Decompress(blob)
		if err != nil {
			return err
		}
		ps, err := analysis.ComputePowerSpectrum(recon.FlattenToUniform())
		if err != nil {
			return err
		}
		_, maxErr, err := psOrig.RelativeError(ps, kMax)
		if err != nil {
			return err
		}
		fprintf(w, "%-14s %-10.3g %-10.1f %-14.6f\n", v.label, eb, got, maxErr)
	}
	return nil
}

// Table3 reproduces the halo-finder experiment on Run1_Z2: at matched CR,
// compare the biggest halo's relative mass difference and cell-count
// difference for the 3D baseline, TAC (1:1), and TAC with the paper's 2:1
// halo-tuned bound. Expected ordering: TAC(2:1) ≤ TAC(1:1) ≤ 3D baseline.
func Table3(w io.Writer, env *Env) error {
	ds, err := env.Dataset("Run1_Z2", sim.BaryonDensity)
	if err != nil {
		return err
	}
	orig := ds.FlattenToUniform()
	if len(analysis.FindHalos(orig)) == 0 {
		fprintf(w, "Table 3: skipped — no halos above 81.66× mean at this scale (rerun at scale ≤ 8)\n")
		return nil
	}
	u3 := baseline.Uniform3D{}
	anchor := codec.Config{ErrorBound: 2e9}
	blob, err := u3.Compress(ds, anchor)
	if err != nil {
		return err
	}
	target := metrics.CompressionRatio(ds.OriginalBytes(), len(blob))

	type variant struct {
		label string
		c     codec.Codec
		base  codec.Config
	}
	variants := []variant{
		{"3D baseline", u3, anchor},
		{"TAC (1:1)", core.TAC{}, codec.Config{}},
		{"TAC (2:1)", core.TAC{}, codec.Config{LevelScales: []float64{2, 1}}},
	}
	fprintf(w, "Table 3: halo finder on Run1_Z2 at matched CR ≈ %.1f\n", target)
	fprintf(w, "%-14s %-10s %-14s %-14s\n", "Method", "CR", "RelMassDiff", "CellNumsDiff")
	for _, v := range variants {
		eb, got, err := MatchRatio(v.c, ds, v.base, target, 0.02, 24)
		if err != nil {
			return err
		}
		cfg := v.base
		cfg.ErrorBound = eb
		blob, err := v.c.Compress(ds, cfg)
		if err != nil {
			return err
		}
		recon, err := v.c.Decompress(blob)
		if err != nil {
			return err
		}
		diff, err := analysis.CompareHalos(orig, recon.FlattenToUniform())
		if err != nil {
			return err
		}
		fprintf(w, "%-14s %-10.1f %-14.3e %-14d\n", v.label, got, diff.RelMassDiff, diff.CellNumDiff)
	}
	return nil
}

// Table2 measures overall throughput (compression + decompression,
// including pre-processing) in MB/s for the 1D baseline, the 3D baseline
// and TAC at three absolute error bounds across all seven datasets.
// Expected shape: 1D fastest; TAC close behind; the 3D baseline collapses
// on the sparse Run2 datasets where up-sampling inflates the data (the
// paper measures up to 75× advantage for TAC there).
func Table2(w io.Writer, env *Env) error {
	names := []string{"Run1_Z2", "Run1_Z3", "Run1_Z5", "Run1_Z10", "Run2_T2", "Run2_T3", "Run2_T4"}
	codecs := []codec.Codec{baseline.Naive1D{}, baseline.Uniform3D{}, core.TAC{}}
	fprintf(w, "Table 2: overall throughput (MB/s), compress+decompress\n")
	fprintf(w, "%-8s %-10s", "eb", "dataset")
	for _, c := range codecs {
		fprintf(w, " %8s", c.Name())
	}
	fprintf(w, "\n")
	for _, eb := range []float64{1e8, 1e9, 1e10} {
		for _, name := range names {
			ds, err := env.Dataset(name, sim.BaryonDensity)
			if err != nil {
				return err
			}
			fprintf(w, "%-8.0e %-10s", eb, name)
			mb := float64(ds.OriginalBytes()) / 1e6
			for _, c := range codecs {
				_, ct, dt, err := RunCodec(c, ds, codec.Config{ErrorBound: eb})
				if err != nil {
					return err
				}
				secs := (ct + dt).Seconds()
				fprintf(w, " %8.1f", mb/secs)
			}
			fprintf(w, "\n")
		}
	}
	return nil
}
