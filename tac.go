// Package tac is the public facade of the TAC reproduction: error-bounded
// lossy compression for three-dimensional adaptive-mesh-refinement (AMR)
// simulation data, after Wang et al., "TAC: Optimizing Error-Bounded Lossy
// Compression for Three-Dimensional Adaptive Mesh Refinement Simulations"
// (HPDC '22).
//
// The package re-exports the user-facing pieces of the internal packages:
// the AMR dataset model, the TAC codec and its baselines, the configuration
// type, and the post-analysis tools. A typical round trip:
//
//	ds, _ := tac.Generate(tac.Spec{ ... }, tac.BaryonDensity)
//	blob, _ := tac.Compress(ds, tac.Config{ErrorBound: 1e9})
//	recon, _ := tac.Decompress(blob)
//
// See examples/ for complete programs and internal/experiments for the
// paper's evaluation harness.
package tac

import (
	"fmt"
	"io"
	"os"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/sz"
)

// Dataset is a tree-structured AMR snapshot (levels ordered fine to
// coarse, every cell stored at its finest refinement).
type Dataset = amr.Dataset

// Level is one refinement level of a Dataset.
type Level = amr.Level

// Config carries compression parameters: error bound, bounding mode,
// per-level bound scaling, strategy overrides and hybrid thresholds.
type Config = codec.Config

// Codec is the interface shared by TAC and the three baselines.
type Codec = codec.Codec

// Spec describes a synthetic Nyx-like dataset to generate.
type Spec = sim.Spec

// Field names a physical field of a snapshot.
type Field = sim.Field

// The supported simulation fields.
const (
	BaryonDensity     = sim.BaryonDensity
	DarkMatterDensity = sim.DarkMatterDensity
	Temperature       = sim.Temperature
	VelocityX         = sim.VelocityX
	VelocityY         = sim.VelocityY
	VelocityZ         = sim.VelocityZ
)

// Error-bounding modes.
const (
	Abs = sz.Abs // point-wise absolute bound
	Rel = sz.Rel // value-range-relative bound, resolved per level
)

// Pre-process strategies for Config.Strategy; Auto applies the density
// filter (OpST below 50%, AKDTree to 60%, GSP above).
const (
	Auto      = codec.Auto
	ZF        = codec.ZF
	NaST      = codec.NaST
	OpST      = codec.OpST
	AKDTree   = codec.AKD
	GSP       = codec.GSP
	ClassicKD = codec.ClassicKD
)

// Compress compresses ds with the TAC codec.
func Compress(ds *Dataset, cfg Config) ([]byte, error) {
	return core.TAC{}.Compress(ds, cfg)
}

// Decompress reconstructs a dataset from a payload written by Compress
// (including payloads the adaptive switch routed to the 3D baseline).
func Decompress(blob []byte) (*Dataset, error) {
	return core.TAC{}.Decompress(blob)
}

// DecompressParallel is Decompress with the payload units — one per
// dense level, one per shape group of a sparse level — decoded by up to
// workers goroutines, largest first (-1 means all CPUs, ≤ 1 is serial).
func DecompressParallel(blob []byte, workers int) (*Dataset, error) {
	return core.TAC{Workers: workers}.Decompress(blob)
}

// NewTAC returns the TAC codec as a Codec.
func NewTAC() Codec { return core.TAC{} }

// NewBaseline returns one of the paper's comparison codecs by name: "1D",
// "zMesh", or "3D".
func NewBaseline(name string) (Codec, error) {
	switch name {
	case "1D":
		return baseline.Naive1D{}, nil
	case "zMesh":
		return baseline.ZMesh{}, nil
	case "3D":
		return baseline.Uniform3D{}, nil
	default:
		return nil, fmt.Errorf("tac: unknown baseline %q (want 1D, zMesh, or 3D)", name)
	}
}

// Generate synthesizes an AMR dataset from a spec (see internal/sim for
// how the Nyx-like fields and refinement are constructed).
func Generate(spec Spec, field Field) (*Dataset, error) {
	return sim.Generate(spec, field)
}

// Load reads a .amr snapshot written by Save or `tacc gen`.
func Load(path string) (*Dataset, error) { return amr.Load(path) }

// Save writes a dataset as a .amr snapshot.
func Save(ds *Dataset, path string) error { return ds.Save(path) }

// Region is an axis-aligned half-open box of cells, used to address
// spatial subsets of an archive member in finest-level coordinates.
type Region = grid.Region

// ArchiveWriter streams snapshot members into a seekable .taca archive.
type ArchiveWriter = archive.Writer

// ArchiveReader is a random-access view of a .taca archive, safe for
// concurrent extraction.
type ArchiveReader = archive.Reader

// ArchiveMember is one snapshot × field entry of an archive index.
type ArchiveMember = archive.Member

// NewArchive starts a TACA archive on w. Append snapshots with
// AddDataset, which codes all of a snapshot's levels through one worker
// pool, and seal the index with Close.
func NewArchive(w io.Writer) (*ArchiveWriter, error) { return archive.NewWriter(w) }

// OpenArchive opens an archive from any io.ReaderAt covering size bytes.
func OpenArchive(r io.ReaderAt, size int64) (*ArchiveReader, error) {
	return archive.Open(r, size)
}

// OpenArchiveFile opens a .taca archive from disk; the returned reader
// must be closed.
func OpenArchiveFile(path string) (*archive.FileReader, error) {
	return archive.OpenFile(path)
}

// OpenArchiveAppend reopens a .taca archive for crash-safe in-place
// growth: new members are laid down after the newest committed
// generation (a torn tail from an earlier crash is truncated first) and
// sealed by Commit/Close with fsync ordering that keeps the file
// openable at every instant. Close the returned file after the writer.
func OpenArchiveAppend(path string) (*ArchiveWriter, *os.File, error) {
	return archive.OpenAppendFile(path)
}
