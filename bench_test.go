// Benchmarks: one testing.B benchmark per reproduced table/figure of the
// TAC paper (run the exhibit end to end at a reduced scale), plus
// micro-benchmarks for the kernels the exhibits are built from (the SZ
// stages, the three pre-process strategies, and the post-analysis tools).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The paper-style tables themselves are printed by `tacc exhibits`; the
// storage stack's end-to-end and per-layer numbers come from bench/.
package tac_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	tac "repro"
	"repro/internal/amr"
	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/preprocess"
	"repro/internal/sim"
	"repro/internal/sz"
)

// benchScale keeps the full exhibit set fast enough for -bench=. runs;
// `tacc exhibits` defaults to the larger scale 4.
const benchScale = 8

var (
	envOnce  sync.Once
	benchEnv *experiments.Env
)

func env() *experiments.Env {
	envOnce.Do(func() { benchEnv = experiments.NewEnv(benchScale) })
	return benchEnv
}

func dataset(b *testing.B, name string) *amr.Dataset {
	b.Helper()
	ds, err := env().Dataset(name, sim.BaryonDensity)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func level(b *testing.B, ref experiments.LevelRef) *amr.Level {
	b.Helper()
	l, err := env().Level(ref, sim.BaryonDensity)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// benchExhibit runs one full table/figure reproduction per iteration.
func benchExhibit(b *testing.B, id string) {
	b.Helper()
	e := env()
	// Warm the dataset cache outside the timed region.
	if err := experiments.RunByID(io.Discard, e, id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunByID(io.Discard, e, id); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper exhibit.

func BenchmarkTable1Datasets(b *testing.B)      { benchExhibit(b, "table1") }
func BenchmarkFig7NaSTvsOpST(b *testing.B)      { benchExhibit(b, "fig7") }
func BenchmarkFig11Strategies(b *testing.B)     { benchExhibit(b, "fig11") }
func BenchmarkFig12ZFvsGSP(b *testing.B)        { benchExhibit(b, "fig12") }
func BenchmarkFig13PreprocessTime(b *testing.B) { benchExhibit(b, "fig13") }
func BenchmarkFig14Run1RateDist(b *testing.B)   { benchExhibit(b, "fig14") }
func BenchmarkFig15Run2RateDist(b *testing.B)   { benchExhibit(b, "fig15") }
func BenchmarkFig18EBSweep(b *testing.B)        { benchExhibit(b, "fig18") }
func BenchmarkFig19PowerSpectrum(b *testing.B)  { benchExhibit(b, "fig19") }
func BenchmarkTable2Throughput(b *testing.B)    { benchExhibit(b, "table2") }
func BenchmarkTable3HaloFinder(b *testing.B)    { benchExhibit(b, "table3") }

// Codec-level benchmarks (Table 2's throughput building blocks).

func benchCompress(b *testing.B, c codec.Codec, name string) {
	ds := dataset(b, name)
	cfg := codec.Config{ErrorBound: 1e9}
	b.SetBytes(int64(ds.OriginalBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecompress(b *testing.B, c codec.Codec, name string) {
	ds := dataset(b, name)
	blob, err := c.Compress(ds, codec.Config{ErrorBound: 1e9})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(ds.OriginalBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTACCompressZ10(b *testing.B)   { benchCompress(b, core.TAC{}, "Run1_Z10") }
func BenchmarkTACDecompressZ10(b *testing.B) { benchDecompress(b, core.TAC{}, "Run1_Z10") }
func BenchmarkTACCompressT2(b *testing.B)    { benchCompress(b, core.TAC{}, "Run2_T2") }
func Benchmark1DCompressZ10(b *testing.B)    { benchCompress(b, baseline.Naive1D{}, "Run1_Z10") }
func BenchmarkZMeshCompressZ10(b *testing.B) { benchCompress(b, baseline.ZMesh{}, "Run1_Z10") }
func Benchmark3DCompressZ10(b *testing.B)    { benchCompress(b, baseline.Uniform3D{}, "Run1_Z10") }
func Benchmark3DCompressT2(b *testing.B)     { benchCompress(b, baseline.Uniform3D{}, "Run2_T2") }

// Pre-process strategy kernels (Fig. 13's building blocks, plus the
// ClassicKD ablation for AKDTree's adaptive split choice).

func BenchmarkOpSTExtractSparse(b *testing.B) {
	l := level(b, experiments.LevelRef{Label: "z10 fine", Dataset: "Run1_Z10", Level: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preprocess.OpST(l.Mask)
	}
}

func BenchmarkOpSTExtractDense(b *testing.B) {
	l := level(b, experiments.LevelRef{Label: "T2 coarse", Dataset: "Run2_T2", Level: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preprocess.OpST(l.Mask)
	}
}

func BenchmarkAKDTreeExtractSparse(b *testing.B) {
	l := level(b, experiments.LevelRef{Label: "z10 fine", Dataset: "Run1_Z10", Level: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kdtree.Adaptive(l.Mask)
	}
}

func BenchmarkAKDTreeExtractDense(b *testing.B) {
	l := level(b, experiments.LevelRef{Label: "T2 coarse", Dataset: "Run2_T2", Level: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kdtree.Adaptive(l.Mask)
	}
}

func BenchmarkClassicKDExtract(b *testing.B) {
	l := level(b, experiments.LevelRef{Label: "z10 fine", Dataset: "Run1_Z10", Level: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kdtree.Classic(l.Mask)
	}
}

func BenchmarkGSPPad(b *testing.B) {
	l := level(b, experiments.LevelRef{Label: "z10 coarse", Dataset: "Run1_Z10", Level: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := l.Grid.Clone()
		preprocess.GSP(g, l.Mask, l.UnitBlock, preprocess.GSPOptions{})
	}
}

// SZ kernel benchmarks.

func BenchmarkSZCompress3D(b *testing.B) {
	ds := dataset(b, "Run1_Z10")
	uni := ds.FlattenToUniform()
	b.SetBytes(int64(4 * uni.Dim.Count()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sz.Compress3D(uni, sz.Options{ErrorBound: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSZDecompress3D(b *testing.B) {
	ds := dataset(b, "Run1_Z10")
	uni := ds.FlattenToUniform()
	blob, _, err := sz.Compress3D(uni, sz.Options{ErrorBound: 1e9})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * uni.Dim.Count()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sz.Decompress3D[float32](blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSZCompress1D(b *testing.B) {
	ds := dataset(b, "Run1_Z10")
	vals := ds.Levels[0].MaskedValues(nil)
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sz.Compress1D(vals, sz.Options{ErrorBound: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
}

// Post-analysis benchmarks (metrics 5 and 6).

func BenchmarkPowerSpectrum(b *testing.B) {
	ds := dataset(b, "Run1_Z2")
	uni := ds.FlattenToUniform()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.ComputePowerSpectrum(uni); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHaloFinder(b *testing.B) {
	ds := dataset(b, "Run1_Z2")
	uni := ds.FlattenToUniform()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.FindHalos(uni)
	}
}

// Data generation benchmark (the substrate itself).

func BenchmarkGenerateDataset(b *testing.B) {
	spec, err := sim.SpecByName("Run1_Z10", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Generate(spec, sim.BaryonDensity); err != nil {
			b.Fatal(err)
		}
	}
}

// Facade round trip, as a user would call it.

func BenchmarkFacadeRoundTrip(b *testing.B) {
	ds := dataset(b, "Run1_Z10")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := tac.Compress(ds, tac.Config{ErrorBound: 1e9})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tac.Decompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTACCompressZ10Parallel(b *testing.B) {
	ds := dataset(b, "Run1_Z10")
	cfg := codec.Config{ErrorBound: 1e9, Workers: -1}
	b.SetBytes(int64(ds.OriginalBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.TAC{}).Compress(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTACDecompressZ10Parallel measures the decompress-side fan-out
// (one job per payload unit, heaviest first) with all CPUs.
func BenchmarkTACDecompressZ10Parallel(b *testing.B) {
	benchDecompress(b, core.TAC{Workers: -1}, "Run1_Z10")
}

// Archive (TACA container) benchmarks: streaming write throughput and the
// random-access read paths a serving layer exercises.

func archiveSnapshots(b *testing.B) []*amr.Dataset {
	b.Helper()
	var out []*amr.Dataset
	for _, name := range []string{"Run1_Z10", "Run1_Z5", "Run1_Z2"} {
		out = append(out, dataset(b, name))
	}
	return out
}

func buildBenchArchive(b *testing.B, snaps []*amr.Dataset, workers int) []byte {
	b.Helper()
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	for _, ds := range snaps {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: 1e9, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func benchArchiveWrite(b *testing.B, workers int) {
	snaps := archiveSnapshots(b)
	var orig int64
	for _, ds := range snaps {
		orig += int64(ds.OriginalBytes())
	}
	b.SetBytes(orig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildBenchArchive(b, snaps, workers)
	}
}

func BenchmarkArchiveWrite(b *testing.B)         { benchArchiveWrite(b, 1) }
func BenchmarkArchiveWriteParallel(b *testing.B) { benchArchiveWrite(b, -1) }

func BenchmarkArchiveExtractMember(b *testing.B) {
	snaps := archiveSnapshots(b)
	blob := buildBenchArchive(b, snaps, -1)
	r, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(snaps[0].OriginalBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Extract(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArchiveExtractLevel(b *testing.B) {
	snaps := archiveSnapshots(b)
	blob := buildBenchArchive(b, snaps, -1)
	r, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * snaps[0].Levels[1].StoredCells()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ExtractLevel(0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArchiveExtractRegion(b *testing.B) {
	snaps := archiveSnapshots(b)
	blob := buildBenchArchive(b, snaps, -1)
	r, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		b.Fatal(err)
	}
	fd := snaps[0].FinestDims()
	roi := grid.Region{X1: fd.X / 2, Y1: fd.Y / 2, Z1: fd.Z / 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ExtractRegion(0, roi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArchiveOpen(b *testing.B) {
	snaps := archiveSnapshots(b)
	blob := buildBenchArchive(b, snaps, -1)
	rd := bytes.NewReader(blob)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := archive.Open(rd, int64(len(blob))); err != nil {
			b.Fatal(err)
		}
	}
}
