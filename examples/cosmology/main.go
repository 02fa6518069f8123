// Cosmology post-analysis: the Sec. 4.5 workflow. Compress a two-level
// snapshot three ways — 3D baseline, TAC with a uniform error bound, and
// TAC with the paper's adaptive per-level bounds — and compare what each
// does to the matter power spectrum and the halo catalog at a matched
// compression ratio.
package main

import (
	"fmt"
	"log"

	tac "repro"
	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	log.SetFlags(0)

	env := experiments.NewEnv(8) // Run1 at 64³/32³ for a fast demo
	ds, err := env.Dataset("Run1_Z2", tac.BaryonDensity)
	if err != nil {
		log.Fatal(err)
	}
	orig := ds.FlattenToUniform()
	psOrig, err := analysis.ComputePowerSpectrum(orig)
	if err != nil {
		log.Fatal(err)
	}
	halosOrig := analysis.FindHalos(orig)
	fmt.Printf("dataset %s: %d stored cells, %d halos in the original field\n\n",
		ds.Name, ds.StoredCells(), len(halosOrig))

	// Anchor the comparison at the 3D baseline's ratio for eb 2e9.
	base3D, err := tac.NewBaseline("3D")
	if err != nil {
		log.Fatal(err)
	}
	anchor, err := base3D.Compress(ds, tac.Config{ErrorBound: 2e9})
	if err != nil {
		log.Fatal(err)
	}
	target := metrics.CompressionRatio(ds.OriginalBytes(), len(anchor))
	fmt.Printf("matched compression ratio: %.1f\n\n", target)
	fmt.Printf("%-22s %-8s %-16s %-14s %-10s\n", "method", "CR", "P(k) max rel err", "halo mass diff", "cell diff")

	run := func(label string, c tac.Codec, base tac.Config) {
		eb, got, err := experiments.MatchRatio(c, ds, base, target, 0.02, 24)
		if err != nil {
			log.Fatal(err)
		}
		cfg := base
		cfg.ErrorBound = eb
		blob, err := c.Compress(ds, cfg)
		if err != nil {
			log.Fatal(err)
		}
		recon, err := c.Decompress(blob)
		if err != nil {
			log.Fatal(err)
		}
		flat := recon.FlattenToUniform()
		ps, err := analysis.ComputePowerSpectrum(flat)
		if err != nil {
			log.Fatal(err)
		}
		_, maxErr, err := psOrig.RelativeError(ps, 10)
		if err != nil {
			log.Fatal(err)
		}
		hd, err := analysis.CompareHalos(orig, flat)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %-8.1f %-16.6f %-14.3e %-10d\n", label, got, maxErr, hd.RelMassDiff, hd.CellNumDiff)
	}

	run("3D baseline", base3D, tac.Config{})
	run("TAC uniform (1:1)", tac.NewTAC(), tac.Config{})
	// Sec. 4.5: 3:1 fine:coarse for power spectrum, 2:1 for halo finder.
	run("TAC adaptive (3:1)", tac.NewTAC(), tac.Config{LevelScales: []float64{3, 1}})
	run("TAC adaptive (2:1)", tac.NewTAC(), tac.Config{LevelScales: []float64{2, 1}})

	fmt.Println("\nlower P(k) error / halo diffs at the same ratio = better post-analysis quality")
}
