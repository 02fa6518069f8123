package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// gen generates the seven synthetic Table-1 datasets (or one of them) as
// .amr snapshot files.
func gen(args []string, stdout io.Writer) error {
	fs := newFlags("gen")
	scale := fs.Int("scale", 4, "resolution divisor vs the paper (power of two, 1-16)")
	field := fs.String("field", string(sim.BaryonDensity), "field to generate")
	dataset := fs.String("dataset", "", "single dataset name (default: all seven)")
	out := fs.String("out", "data", "output directory")
	if _, err := parseArgs(fs, args, 0, 0); err != nil {
		return err
	}
	specs, err := sim.Catalog(*scale)
	if err != nil {
		return err
	}
	if *dataset != "" {
		spec, err := sim.SpecByName(*dataset, *scale)
		if err != nil {
			return err
		}
		specs = []sim.Spec{spec}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, spec := range specs {
		ds, err := sim.Generate(spec, sim.Field(*field))
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		if err := ds.Validate(); err != nil {
			return fmt.Errorf("%s: generated dataset invalid: %w", spec.Name, err)
		}
		path := filepath.Join(*out, fmt.Sprintf("%s_%s.amr", spec.Name, *field))
		if err := ds.Save(path); err != nil {
			return err
		}
		densities := make([]string, len(ds.Levels))
		for i, d := range ds.Densities() {
			densities[i] = fmt.Sprintf("%.4g%%", d*100)
		}
		fmt.Fprintf(stdout, "%-28s levels=%d cells=%d densities=%v\n",
			path, len(ds.Levels), ds.StoredCells(), densities)
	}
	return nil
}

// exhibits regenerates every table and figure of the paper's evaluation
// section on the synthetic datasets and prints them in paper order.
// EXPERIMENTS.md holds the paper-vs-measured record. (Performance of the
// storage stack is measured by bench/, not here.)
func exhibits(args []string, stdout io.Writer) error {
	fs := newFlags("exhibits")
	scale := fs.Int("scale", experiments.DefaultScale, "resolution divisor vs the paper (power of two, 1-16)")
	only := fs.String("only", "", "run a single exhibit (e.g. table2, fig15)")
	list := fs.Bool("list", false, "list exhibit IDs and exit")
	if _, err := parseArgs(fs, args, 0, 0); err != nil {
		return err
	}
	if *list {
		for _, ex := range experiments.Exhibits() {
			fmt.Fprintf(stdout, "%-8s %s\n", ex.ID, ex.Desc)
		}
		return nil
	}
	env := experiments.NewEnv(*scale)
	start := time.Now()
	var err error
	if *only != "" {
		err = experiments.RunByID(stdout, env, *only)
	} else {
		err = experiments.RunAll(stdout, env)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n[exhibits completed in %v at scale 1/%d]\n", time.Since(start).Round(time.Second), *scale)
	return nil
}
