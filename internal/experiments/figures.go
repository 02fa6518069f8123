package experiments

import (
	"io"
	"strconv"
	"time"

	"repro/internal/codec"
	"repro/internal/kdtree"
	"repro/internal/preprocess"
	"repro/internal/sim"
	"repro/internal/sz"
)

// Table1 prints the dataset inventory: per-level grid sizes and densities,
// generated vs the paper's targets.
func Table1(w io.Writer, env *Env) error {
	fprintf(w, "Table 1: tested datasets (scale 1/%d of the paper's resolutions)\n", env.Scale)
	fprintf(w, "%-10s %-7s %-22s %-30s %-30s\n", "Dataset", "Levels", "Grids (fine→coarse)", "Density target (Table 1)", "Density generated")
	specs, err := sim.Catalog(env.Scale)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		ds, err := env.Dataset(spec.Name, sim.BaryonDensity)
		if err != nil {
			return err
		}
		grids := ""
		for li := range ds.Levels {
			if li > 0 {
				grids += ","
			}
			grids += itoa(ds.Levels[li].Grid.Dim.X)
		}
		targets, got := "", ""
		for li, f := range spec.LeafFractions {
			if li > 0 {
				targets += ", "
				got += ", "
			}
			targets += pct(f)
			got += pct(ds.Densities()[li])
		}
		fprintf(w, "%-10s %-7d %-22s %-30s %-30s\n", spec.Name, len(ds.Levels), grids, targets, got)
	}
	return nil
}

func itoa(v int) string { return strconv.Itoa(v) }

func pct(f float64) string {
	switch {
	case f >= 0.01 || f == 0:
		return trim(f*100, 1) + "%"
	case f >= 0.0001:
		return trim(f*100, 3) + "%"
	default:
		return trim(f*100, 6) + "%"
	}
}

func trim(v float64, prec int) string {
	s := strconv.FormatFloat(v, 'f', prec, 64)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// Fig7 compares NaST vs OpST on Run1_Z10's fine level (23% density) at the
// paper's relative error bound of 4.8e-4: OpST should achieve both a higher
// compression ratio and a higher PSNR (Fig. 7's CR 233.8/241.1 and PSNR
// 76.9/77.8 dB).
func Fig7(w io.Writer, env *Env) error {
	l, err := env.Level(LevelRef{Label: "z10 fine", Dataset: "Run1_Z10", Level: 0}, sim.BaryonDensity)
	if err != nil {
		return err
	}
	fprintf(w, "Fig 7: NaST vs OpST on Run1_Z10 fine level (density %.0f%%)\n", l.Density()*100)
	fprintf(w, "%-10s %-12s %-18s %-18s\n", "rel eb", "abs eb", "NaST cr/psnr", "OpST cr/psnr")
	// The paper reports the single point rel eb = 4.8e-4 (CR 233.8 vs
	// 241.1, PSNR 76.9 vs 77.8 dB). Our synthetic field has a different
	// range/compressibility profile, so we sweep around it; the claim
	// under test is OpST ≥ NaST on both axes in the discriminative regime.
	for _, rel := range []float64{1.2e-5, 4.8e-5, 1.2e-4, 4.8e-4} {
		eb := codec.Config{ErrorBound: rel, Mode: sz.Rel}.LevelEB(0, l)
		na, err := RunLevel(l, codec.NaST, eb)
		if err != nil {
			return err
		}
		op, err := RunLevel(l, codec.OpST, eb)
		if err != nil {
			return err
		}
		fprintf(w, "%-10.1e %-12.3g %8.1f/%-8.2f %8.1f/%-8.2f\n", rel, eb, na.Ratio, na.PSNR, op.Ratio, op.PSNR)
	}
	return nil
}

// Fig11 sweeps rate-distortion for GSP, OpST and AKDTree over the six
// density points. The paper's reading: OpST and AKDTree are nearly
// identical everywhere; GSP loses at low density and wins at very high
// density.
func Fig11(w io.Writer, env *Env) error {
	fprintf(w, "Fig 11: per-strategy rate-distortion at six densities\n")
	for _, ref := range env.DensityLevels() {
		l, err := env.Level(ref, sim.BaryonDensity)
		if err != nil {
			return err
		}
		fprintf(w, "-- %s (density %.1f%%)\n", ref.Label, l.Density()*100)
		fprintf(w, "%-10s", "eb")
		for _, st := range []codec.Strategy{codec.GSP, codec.OpST, codec.AKD} {
			fprintf(w, " %14s", st.String()+" br/psnr")
		}
		fprintf(w, "\n")
		for _, eb := range ebSweep() {
			fprintf(w, "%-10.1g", eb)
			for _, st := range []codec.Strategy{codec.GSP, codec.OpST, codec.AKD} {
				res, err := RunLevel(l, st, eb)
				if err != nil {
					return err
				}
				fprintf(w, "   %5.3f/%-6.1f", res.BitRate, res.PSNR)
			}
			fprintf(w, "\n")
		}
	}
	return nil
}

// Fig12 compares zero filling (ZF) vs ghost-shell padding (GSP) on two
// high-density levels: Run1_Z10's coarse level (77%, the paper's Fig. 12
// point: CR 156.7 vs 161.3, PSNR 32.8 vs 33.5 dB) and Run2_T2's coarse
// level (99.8%, the density regime TAC's hybrid actually routes to GSP).
// On our substrate the GSP advantage emerges at the higher density — the
// DEFLATE stage absorbs much of the zero-boundary entropy the paper's SZ
// pays for at 77% (see EXPERIMENTS.md).
func Fig12(w io.Writer, env *Env) error {
	refs := []LevelRef{
		{Label: "z10 coarse", Dataset: "Run1_Z10", Level: 1},
		{Label: "T2 coarse", Dataset: "Run2_T2", Level: 1},
	}
	fprintf(w, "Fig 12: ZF vs GSP on high-density levels, rel eb 6.7e-3\n")
	fprintf(w, "%-12s %-10s %-8s %-10s %-10s %-10s\n", "Level", "density", "Method", "CR", "PSNR(dB)", "bitrate")
	for _, ref := range refs {
		l, err := env.Level(ref, sim.BaryonDensity)
		if err != nil {
			return err
		}
		eb := codec.Config{ErrorBound: 6.7e-3, Mode: sz.Rel}.LevelEB(0, l)
		for _, st := range []codec.Strategy{codec.ZF, codec.GSP} {
			res, err := RunLevel(l, st, eb)
			if err != nil {
				return err
			}
			fprintf(w, "%-12s %-10.3f %-8s %-10.1f %-10.2f %-10.3f\n", ref.Label, l.Density(), st, res.Ratio, res.PSNR, res.BitRate)
		}
	}
	return nil
}

// Fig13 measures pre-processing time (extraction only, no SZ) of OpST vs
// AKDTree across the six densities. The paper's reading: AKDTree is flat
// while OpST grows roughly linearly with density, crossing near 50%.
func Fig13(w io.Writer, env *Env) error {
	fprintf(w, "Fig 13: pre-process time (extraction only), OpST vs AKDTree vs ClassicKD\n")
	fprintf(w, "%-14s %-10s %-12s %-12s %-12s %-8s\n", "Level", "density", "OpST", "AKDTree", "ClassicKD", "boxes(Op/AKD)")
	for _, ref := range env.DensityLevels() {
		l, err := env.Level(ref, sim.BaryonDensity)
		if err != nil {
			return err
		}
		mask := l.Mask
		t0 := time.Now()
		ob := preprocess.OpST(mask)
		opT := time.Since(t0)
		t0 = time.Now()
		ab, _ := kdtree.Adaptive(mask)
		akT := time.Since(t0)
		t0 = time.Now()
		cb, _ := kdtree.Classic(mask)
		ckT := time.Since(t0)
		_ = cb
		fprintf(w, "%-14s %-10.3f %-12v %-12v %-12v %d/%d\n",
			ref.Label, l.Density(), opT.Round(time.Microsecond), akT.Round(time.Microsecond), ckT.Round(time.Microsecond), len(ob), len(ab))
	}
	return nil
}
