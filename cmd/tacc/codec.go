package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/amr"
	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/sz"
)

// codecs is every codec tacc can name: -codec resolves through Name
// (case-folded) and decompress through the container's codec id.
var codecs = []struct {
	id byte
	c  codec.Codec
}{
	{core.ID, core.TAC{}},
	{baseline.IDNaive1D, baseline.Naive1D{}},
	{baseline.IDZMesh, baseline.ZMesh{}},
	{baseline.IDUniform3D, baseline.Uniform3D{}},
}

// coding is a codec and its Config, as the codec flags chose them.
type coding struct {
	codec.Codec
	codec.Config
}

// codecFlags adds -codec and -adaptive to boundFlags, for the one-shot
// codec subcommands.
func codecFlags(fs *flag.FlagSet) *coding {
	k := &coding{Codec: core.TAC{}}
	fs.Func("codec", "codec: TAC, 1D, zMesh, 3D (default TAC)", func(name string) error {
		for _, e := range codecs {
			if strings.EqualFold(e.c.Name(), name) {
				k.Codec = e.c
				return nil
			}
		}
		return fmt.Errorf("unknown codec %q", name)
	})
	fs.BoolVar(&k.AdaptiveBaseline, "adaptive", false, "switch to the 3D baseline when the finest level is dense (Sec. 4.4)")
	boundFlags(fs, &k.Config)
	return k
}

// roundTrip loads a snapshot, compresses it and decompresses the payload.
func (k *coding) roundTrip(path string) (ds, recon *amr.Dataset, blob []byte, err error) {
	if ds, err = amr.Load(path); err == nil {
		if blob, err = k.Compress(ds, k.Config); err == nil {
			recon, err = k.Decompress(blob)
		}
	}
	return ds, recon, blob, err
}

// save writes ds to path and reports it.
func save(ds *amr.Dataset, path string, stdout io.Writer) error {
	if err := ds.Save(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d stored cells, %d levels)\n", path, ds.StoredCells(), len(ds.Levels))
	return nil
}

func compress(args []string, stdout io.Writer) error {
	fs := newFlags("compress")
	k := codecFlags(fs)
	rest, err := parseArgs(fs, args, 2, 2)
	if err != nil {
		return err
	}
	ds, err := amr.Load(rest[0])
	if err != nil {
		return err
	}
	t0 := time.Now()
	blob, err := k.Compress(ds, k.Config)
	if err != nil {
		return err
	}
	dt := time.Since(t0)
	if err := os.WriteFile(rest[1], blob, 0o644); err != nil {
		return err
	}
	orig := ds.OriginalBytes()
	fmt.Fprintf(stdout, "%s: %d -> %d bytes (CR %.1f, %.3f bits/val) in %v (%.1f MB/s)\n",
		k.Name(), orig, len(blob),
		metrics.CompressionRatio(orig, len(blob)),
		metrics.BitRate(len(blob), ds.StoredCells()),
		dt.Round(time.Millisecond), float64(orig)/1e6/dt.Seconds())
	return nil
}

// decompress hands the payload to the codec its container names, so a
// damaged payload reports that codec's error.
func decompress(args []string, stdout io.Writer) error {
	rest, err := parseArgs(newFlags("decompress"), args, 2, 2)
	if err != nil {
		return err
	}
	blob, err := os.ReadFile(rest[0])
	if err != nil {
		return err
	}
	id, _, err := codec.ContainerCodecID(blob)
	if err != nil {
		return fmt.Errorf("%s: %w", rest[0], err)
	}
	for _, e := range codecs {
		if e.id == id {
			ds, err := e.c.Decompress(blob)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", rest[0], e.c.Name(), err)
			}
			return save(ds, rest[1], stdout)
		}
	}
	return fmt.Errorf("%s: payload written by codec id %d, which tacc does not know", rest[0], id)
}

func info(args []string, stdout io.Writer) error {
	rest, err := parseArgs(newFlags("info"), args, 1, 1)
	if err != nil {
		return err
	}
	ds, err := amr.Load(rest[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "name: %s\nfield: %s\nratio: %d\nlevels: %d\nstored cells: %d (%.1f MB)\n",
		ds.Name, ds.Field, ds.Ratio, len(ds.Levels), ds.StoredCells(), float64(ds.OriginalBytes())/1e6)
	for li, l := range ds.Levels {
		fmt.Fprintf(stdout, "  level %d: %v cells, unit block %d, density %.4g%%\n",
			li, l.Grid.Dim, l.UnitBlock, l.Density()*100)
	}
	fmt.Fprintf(stdout, "codec kernels: %s\n", sz.KernelPath())
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("%s: VALIDATION FAILED: %w", rest[0], err)
	}
	fmt.Fprintln(stdout, "structure: valid")
	return nil
}

// verify has two modes, dispatched on the file's magic: a .taca archive
// is scrubbed in place (verifyArchive) and damage fails; anything else is
// the compress/decompress round-trip distortion check.
func verify(args []string, stdout io.Writer) error {
	fs := newFlags("verify")
	k := codecFlags(fs)
	rest, err := parseArgs(fs, args, 1, 1)
	if err != nil {
		return err
	}
	if isArchive(rest[0]) {
		return verifyArchive(rest[0], stdout)
	}
	ds, recon, blob, err := k.roundTrip(rest[0])
	if err != nil {
		return err
	}
	dist, err := metrics.DatasetDistortion(ds, recon)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: CR %.1f, PSNR %.2f dB, max err %.4g\n",
		k.Name(), metrics.CompressionRatio(ds.OriginalBytes(), len(blob)), dist.PSNR(), dist.MaxErr)
	return nil
}

// errmap compresses, decompresses, and renders a Fig. 7/12-style error-map
// slice of one level (brighter = larger error).
func errmap(args []string, stdout io.Writer) error {
	fs := newFlags("errmap")
	level := fs.Int("level", 0, "AMR level to render (0 = finest)")
	slice := fs.Int("slice", -1, "z slice index (-1 = middle)")
	k := codecFlags(fs)
	rest, err := parseArgs(fs, args, 2, 2)
	if err != nil {
		return err
	}
	ds, recon, blob, err := k.roundTrip(rest[0])
	if err != nil {
		return err
	}
	if *level < 0 || *level >= len(ds.Levels) {
		return fmt.Errorf("%s has no level %d", rest[0], *level)
	}
	l, rl := ds.Levels[*level], recon.Levels[*level]
	z := *slice
	if z < 0 {
		z = l.Grid.Dim.Z / 2
	}
	if err := render.WriteErrorMap(rest[1], l.Grid, rl.Grid, z); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: wrote error map of level %d slice %d to %s (CR %.1f)\n",
		k.Name(), *level, z, rest[1], metrics.CompressionRatio(ds.OriginalBytes(), len(blob)))
	return nil
}
