// Package experiments reproduces every table and figure of the TAC paper's
// evaluation (Sec. 4) on the synthetic Nyx-like datasets of internal/sim.
// Each runner prints the rows/series of one exhibit; `tacc exhibits` drives
// them all, and bench_test.go exposes one testing.B benchmark per exhibit.
//
// Absolute numbers differ from the paper (scaled datasets, reimplemented
// SZ, different hardware); the claims under test are the *shapes*: who
// wins, by what rough factor, and where the crossovers sit. EXPERIMENTS.md
// records paper-vs-measured for each exhibit.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// DefaultScale divides the paper's resolutions by 4 (Run1: 128³/64³,
// Run2_T4 finest: 256³), the largest size that keeps the full suite in
// laptop territory.
const DefaultScale = 4

// Env generates and caches datasets for the experiment runners.
type Env struct {
	Scale int

	mu    sync.Mutex
	cache map[string]*amr.Dataset
}

// NewEnv returns an environment at the given scale divisor (0 means
// DefaultScale).
func NewEnv(scale int) *Env {
	if scale == 0 {
		scale = DefaultScale
	}
	return &Env{Scale: scale, cache: make(map[string]*amr.Dataset)}
}

// Dataset returns the named catalog dataset for the field, generating it on
// first use.
func (e *Env) Dataset(name string, field sim.Field) (*amr.Dataset, error) {
	key := name + "/" + string(field)
	e.mu.Lock()
	ds, ok := e.cache[key]
	e.mu.Unlock()
	if ok {
		return ds, nil
	}
	spec, err := sim.SpecByName(name, e.Scale)
	if err != nil {
		return nil, err
	}
	ds, err = sim.Generate(spec, field)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.cache[key] = ds
	e.mu.Unlock()
	return ds, nil
}

// Custom generates (and caches) a non-catalog dataset, used for the
// synthetic density points of Fig. 11/13.
func (e *Env) Custom(spec sim.Spec, field sim.Field) (*amr.Dataset, error) {
	key := "custom/" + spec.Name + "/" + string(field)
	e.mu.Lock()
	ds, ok := e.cache[key]
	e.mu.Unlock()
	if ok {
		return ds, nil
	}
	ds, err := sim.Generate(spec, field)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.cache[key] = ds
	e.mu.Unlock()
	return ds, nil
}

// LevelRef names one AMR level of one dataset, the unit of the per-level
// strategy experiments (Fig. 7/11/12/13).
type LevelRef struct {
	Label   string
	Dataset string // catalog name; empty means Custom spec
	Spec    sim.Spec
	Level   int
}

// Level materializes the referenced level.
func (e *Env) Level(ref LevelRef, field sim.Field) (*amr.Level, error) {
	var ds *amr.Dataset
	var err error
	if ref.Dataset != "" {
		ds, err = e.Dataset(ref.Dataset, field)
	} else {
		ds, err = e.Custom(ref.Spec, field)
	}
	if err != nil {
		return nil, err
	}
	if ref.Level < 0 || ref.Level >= len(ds.Levels) {
		return nil, fmt.Errorf("experiments: %s has no level %d", ref.Label, ref.Level)
	}
	return ds.Levels[ref.Level], nil
}

// DensityLevels returns the six density points of Fig. 11/13: the finest
// levels of Run1's four timesteps (23%–64%) and two near-dense coarse
// levels (≈99.8%, ≈99.9%).
func (e *Env) DensityLevels() []LevelRef {
	n := 256 / e.Scale
	ub := max(16/e.Scale, 2)
	return []LevelRef{
		{Label: "z10 (d=23)", Dataset: "Run1_Z10", Level: 0},
		{Label: "z5 (d=58)", Dataset: "Run1_Z5", Level: 0},
		{Label: "z2 (d=63)", Dataset: "Run1_Z2", Level: 0},
		{Label: "z3 (d=64)", Dataset: "Run1_Z3", Level: 0},
		{Label: "d=99.8", Dataset: "Run2_T2", Level: 1},
		{Label: "d=99.9", Spec: sim.Spec{
			Name: "dense999", FinestN: n, Levels: 2, UnitBlock: ub, Seed: 2202,
			LeafFractions: []float64{0.001, 0.999},
		}, Level: 1},
	}
}

// LevelResult is one measured point of a per-level compression run.
type LevelResult struct {
	Strategy codec.Strategy
	EB       float64
	Bytes    int
	BitRate  float64
	PSNR     float64
	Ratio    float64
	Total    time.Duration
}

// RunLevel compresses and decompresses one level with a forced strategy and
// absolute error bound, measuring size, distortion, and time.
func RunLevel(l *amr.Level, st codec.Strategy, eb float64) (LevelResult, error) {
	start := time.Now()
	blob, err := core.CompressLevel(l, st, eb, codec.Config{ErrorBound: eb})
	if err != nil {
		return LevelResult{}, err
	}
	compTime := time.Since(start)
	recon := amr.NewLevel(l.Grid.Dim, l.UnitBlock)
	recon.Mask.CopyFrom(l.Mask)
	if err := core.DecompressLevel(recon, blob); err != nil {
		return LevelResult{}, err
	}
	// Distortion over the level's full extent, as in the paper's per-level
	// error maps (Figs. 7 and 12 show whole slices): strategies that
	// restore empty regions exactly (everything except ZF) are credited
	// for it.
	dist, err := metrics.GridDistortion(l.Grid, recon.Grid)
	if err != nil {
		return LevelResult{}, err
	}
	n := l.StoredCells()
	return LevelResult{
		Strategy: st,
		EB:       eb,
		Bytes:    len(blob),
		BitRate:  metrics.BitRate(len(blob), n),
		PSNR:     dist.PSNR(),
		Ratio:    metrics.CompressionRatio(amr.ValueBytes*n, len(blob)),
		Total:    compTime,
	}, nil
}

// ebSweep returns a geometric sweep of absolute error bounds appropriate
// for the synthetic baryon-density fields (mean ~1e11).
func ebSweep() []float64 {
	return []float64{1e8, 3e8, 1e9, 3e9, 1e10, 3e10, 1e11}
}

// fprintf discards the error: experiment output goes to a terminal or a
// build log, where a failed write has nowhere better to be reported.
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
