// Command tacc compresses and decompresses .amr snapshots with TAC or one
// of the paper's baselines.
//
// Usage (as usage() prints it):
//
//	tacc [-cpuprofile cpu.pprof] [-memprofile mem.pprof] <subcommand> ...
//	  tacc compress   [-codec TAC|1D|zMesh|3D] [-eb 1e9] [-rel] [-scales 3,1] [-adaptive] in.amr out.tacz
//	  tacc decompress in.tacz out.amr
//	  tacc info       in.amr
//	  tacc verify     [-codec ...] [-eb ...] [-rel] in.amr      (round-trip check)
//	  tacc verify     [-repair replica.taca] in.taca    (archive scrub; non-zero exit on damage)
//	  tacc repair     -replica replica.taca in.taca     (splice damaged frames back from a replica)
//	  tacc errmap     [-codec ...] [-eb ...] [-rel] [-level 0] [-slice -1] in.amr out.png
//	  tacc archive    [-eb 1e9] [-rel] [-scales 3,1] [-workers -1] [-batch 64] [-append] [-delta] [-keyframe 8] out.taca in.amr...
//	  tacc ls         [-scrub] in.taca
//	  tacc extract    [-member 0] [-level -1] [-roi x0:x1,y0:y1,z0:z1] in.taca out.amr
//
// compress, verify and errmap take the same codec flags; errmap renders
// one z slice of a level's pointwise compression error as a PNG.
//
// The global -cpuprofile/-memprofile flags write runtime/pprof profiles
// of whatever subcommand follows, so perf work can profile the real
// pipeline on real files instead of guessing from microbenchmarks:
//
//	tacc -cpuprofile cpu.pprof compress -eb 1e9 in.amr out.tacz
//	go tool pprof cpu.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/render"
	"repro/internal/sz"
)

// openArchive opens a .taca archive named by a local path or an
// http(s):// URL of any range-capable server (a tacd /v1/a/{name}/raw
// endpoint, nginx, an S3-style store). ls, extract and verify work
// identically either way; over a URL only the footer and the frames a
// command touches cross the wire.
func openArchive(spec string) (*archive.Reader, io.Closer, error) {
	if remote.IsURL(spec) {
		rr, err := remote.Open(spec, remote.Config{})
		if err != nil {
			return nil, nil, err
		}
		r, err := archive.Open(rr, rr.Size())
		if err != nil {
			rr.Close()
			return nil, nil, fmt.Errorf("%s: %w", spec, err)
		}
		return r, rr, nil
	}
	fr, err := archive.OpenFile(spec)
	if err != nil {
		return nil, nil, err
	}
	return fr.Reader, fr, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tacc: ")
	global := flag.NewFlagSet("tacc", flag.ExitOnError)
	global.Usage = usageExit
	cpuprofile := global.String("cpuprofile", "", "write a CPU profile of the subcommand to this file")
	memprofile := global.String("memprofile", "", "write a heap profile (taken after the subcommand) to this file")
	// Parse stops at the first non-flag argument — the subcommand.
	if err := global.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	args := global.Args()
	if len(args) < 1 {
		usage()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		// Subcommands exit through log.Fatal on errors, so the profile is
		// only complete for successful runs — the case profiling targets.
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	run(args[0], args[1:])
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
}

func run(cmd string, args []string) {
	switch cmd {
	case "compress":
		compress(args)
	case "decompress":
		decompress(args)
	case "info":
		info(args)
	case "verify":
		verify(args)
	case "repair":
		repairCmd(args)
	case "errmap":
		errmap(args)
	case "archive":
		archiveCmd(args)
	case "ls":
		lsCmd(args)
	case "extract":
		extractCmd(args)
	default:
		usage()
	}
}

// usageExit adapts usage to flag.FlagSet's Usage hook.
func usageExit() { usage() }

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tacc [-cpuprofile cpu.pprof] [-memprofile mem.pprof] <subcommand> ...
  tacc compress   [-codec TAC|1D|zMesh|3D] [-eb 1e9] [-rel] [-scales 3,1] [-adaptive] in.amr out.tacz
  tacc decompress in.tacz out.amr
  tacc info       in.amr
  tacc verify     [-codec ...] [-eb ...] [-rel] in.amr      (round-trip check)
  tacc verify     [-repair replica.taca] in.taca    (archive scrub; non-zero exit on damage)
  tacc repair     -replica replica.taca in.taca     (splice damaged frames back from a replica)
  tacc errmap     [-codec ...] [-eb ...] [-rel] [-level 0] [-slice -1] in.amr out.png
  tacc archive    [-eb 1e9] [-rel] [-scales 3,1] [-workers -1] [-batch 64] [-append] [-delta] [-keyframe 8] out.taca in.amr...
  tacc ls         [-scrub] in.taca
  tacc extract    [-member 0] [-level -1] [-roi x0:x1,y0:y1,z0:z1] in.taca out.amr`)
	os.Exit(2)
}

func pickCodec(name string) codec.Codec {
	switch name {
	case "TAC", "tac":
		return core.TAC{}
	case "1D", "1d":
		return baseline.Naive1D{}
	case "zMesh", "zmesh":
		return baseline.ZMesh{}
	case "3D", "3d":
		return baseline.Uniform3D{}
	default:
		log.Fatalf("unknown codec %q", name)
		return nil
	}
}

func parseCfg(fs *flag.FlagSet, args []string) (codec.Codec, codec.Config, []string) {
	name := fs.String("codec", "TAC", "codec: TAC, 1D, zMesh, 3D")
	eb := fs.Float64("eb", 1e9, "error bound")
	rel := fs.Bool("rel", false, "interpret -eb as value-range-relative")
	scales := fs.String("scales", "", "per-level error-bound multipliers, fine to coarse (e.g. 3,1)")
	adaptive := fs.Bool("adaptive", false, "switch to the 3D baseline when the finest level is dense (Sec. 4.4)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	cfg := codec.Config{ErrorBound: *eb, AdaptiveBaseline: *adaptive}
	if *rel {
		cfg.Mode = sz.Rel
	}
	if *scales != "" {
		cfg.LevelScales = parseScales(*scales)
	}
	return pickCodec(*name), cfg, fs.Args()
}

func compress(args []string) {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	c, cfg, rest := parseCfg(fs, args)
	if len(rest) != 2 {
		usage()
	}
	ds, err := amr.Load(rest[0])
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	blob, err := c.Compress(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	dt := time.Since(t0)
	if err := os.WriteFile(rest[1], blob, 0o644); err != nil {
		log.Fatal(err)
	}
	orig := ds.OriginalBytes()
	fmt.Printf("%s: %d -> %d bytes (CR %.1f, %.3f bits/val) in %v (%.1f MB/s)\n",
		c.Name(), orig, len(blob),
		metrics.CompressionRatio(orig, len(blob)),
		metrics.BitRate(len(blob), ds.StoredCells()),
		dt.Round(time.Millisecond), float64(orig)/1e6/dt.Seconds())
}

func decompress(args []string) {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	rest := fs.Args()
	if len(rest) != 2 {
		usage()
	}
	blob, err := os.ReadFile(rest[0])
	if err != nil {
		log.Fatal(err)
	}
	// TAC's decompressor dispatches 3D-baseline payloads itself; try the
	// other codecs for completeness.
	var ds *amr.Dataset
	for _, c := range []codec.Codec{core.TAC{}, baseline.Naive1D{}, baseline.ZMesh{}, baseline.Uniform3D{}} {
		if ds, err = c.Decompress(blob); err == nil {
			break
		}
	}
	if ds == nil {
		log.Fatalf("no codec accepts this payload: %v", err)
	}
	if err := ds.Save(rest[1]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d stored cells, %d levels)\n", rest[1], ds.StoredCells(), len(ds.Levels))
}

func info(args []string) {
	if len(args) != 1 {
		usage()
	}
	ds, err := amr.Load(args[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("name: %s\nfield: %s\nratio: %d\nlevels: %d\nstored cells: %d (%.1f MB)\n",
		ds.Name, ds.Field, ds.Ratio, len(ds.Levels), ds.StoredCells(), float64(ds.OriginalBytes())/1e6)
	for li, l := range ds.Levels {
		fmt.Printf("  level %d: %v cells, unit block %d, density %.4g%%\n",
			li, l.Grid.Dim, l.UnitBlock, l.Density()*100)
	}
	fmt.Printf("codec kernels: %s\n", sz.KernelPath())
	if err := ds.Validate(); err != nil {
		fmt.Printf("VALIDATION FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("structure: valid")
}

// verify has two modes, dispatched on the file's magic: a .taca archive
// is scrubbed in place (every frame of every member verified — by stored
// digest on checksummed archives, by full decode otherwise) and damage
// exits non-zero; anything else is the original compress/decompress
// round-trip distortion check.
func verify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	repairFrom := fs.String("repair", "", "for archives: splice damaged frames back from this replica before the scrub")
	c, cfg, rest := parseCfg(fs, args)
	if len(rest) == 1 && isArchive(rest[0]) {
		if *repairFrom != "" {
			repairArchive(rest[0], *repairFrom)
		}
		verifyArchive(rest[0])
		return
	}
	if *repairFrom != "" {
		log.Fatal("-repair only applies to .taca archives")
	}
	if len(rest) != 1 {
		usage()
	}
	ds, err := amr.Load(rest[0])
	if err != nil {
		log.Fatal(err)
	}
	blob, err := c.Compress(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	recon, err := c.Decompress(blob)
	if err != nil {
		log.Fatal(err)
	}
	dist, err := metrics.DatasetDistortion(ds, recon)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: CR %.1f, PSNR %.2f dB, max err %.4g\n",
		c.Name(), metrics.CompressionRatio(ds.OriginalBytes(), len(blob)), dist.PSNR(), dist.MaxErr)
}

// isArchive sniffs the TACA magic so verify dispatches on content, not
// file naming. URLs always dispatch as archives — that is the only mode
// that can read one.
func isArchive(path string) bool {
	if remote.IsURL(path) {
		return true
	}
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == "TACA"
}

// verifyArchive scrubs every frame of every member and exits non-zero if
// any damage is found, so cron jobs and CI can gate on the exit status.
func verifyArchive(path string) {
	r, closer, err := openArchive(path)
	if err != nil {
		log.Fatal(err)
	}
	defer closer.Close()
	members := r.Members()
	frames, per := 0, make([]int, len(members))
	for mi, m := range members {
		for li := range m.Levels {
			per[mi] += len(m.Levels[li].Batches)
		}
		frames += per[mi]
	}
	mode := "decode-verified (no stored digests; legacy v1/v2 archive)"
	if r.Checksummed() {
		mode = "digest-verified"
	}
	// The scrub reads every frame anyway: count, per member, the frames whose
	// code section the writer stored and those it handed to DEFLATE.
	stored, deflated := make([]int, len(members)), make([]int, len(members))
	t0 := time.Now()
	var issues []archive.ScrubIssue
	for mi := range members {
		issues = append(issues, r.ScrubMemberFrames(mi, func(_, _ int, info sz.BatchInfo) {
			if info.CodeStored {
				stored[mi]++
			} else {
				deflated[mi]++
			}
		})...)
	}
	dt := time.Since(t0)
	if len(issues) > 0 {
		for _, is := range issues {
			fmt.Fprintf(os.Stderr, "tacc: DAMAGED %s\n", is)
		}
		log.Fatalf("%s: %d of %d frames damaged (%d members, %s)",
			path, len(issues), frames, len(members), mode)
	}
	for mi, m := range members {
		fmt.Printf("  %s/%s: %d frames, %d stored + %d deflated code sections\n",
			m.Name, m.Field, per[mi], stored[mi], deflated[mi])
	}
	fmt.Printf("%s: %d members, %d frames %s in %v — clean\n",
		path, len(members), frames, mode, dt.Round(time.Millisecond))
}

// repairCmd heals a damaged archive offline: every frame that fails its
// scrub is re-fetched from the replica, digest-verified, and rewritten
// in place at the same offset. The exit status follows the repair — a
// replica damaged at the same frames, or fetch errors, exit non-zero
// with the archive's clean frames untouched.
func repairCmd(args []string) {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	replica := fs.String("replica", "", "healthy copy of the archive to re-fetch damaged frames from")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	rest := fs.Args()
	if len(rest) != 1 || *replica == "" {
		usage()
	}
	repairArchive(rest[0], *replica)
}

// repairArchive is the shared splice step of `tacc repair` and
// `tacc verify -repair`. The replica may be a URL: damaged frames are
// then re-fetched over HTTP ranges, so a fleet node can heal from a
// central healthy copy without mirroring it. The archive being repaired
// must be a local file (the splice rewrites it in place).
func repairArchive(path, replicaPath string) {
	if remote.IsURL(path) {
		log.Fatalf("%s: cannot repair a remote archive in place (repair the file on its host)", path)
	}
	var src io.ReaderAt
	if remote.IsURL(replicaPath) {
		rr, err := remote.Open(replicaPath, remote.Config{})
		if err != nil {
			log.Fatal(err)
		}
		defer rr.Close()
		src = rr
	} else {
		f, err := os.Open(replicaPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		src = f
	}
	t0 := time.Now()
	rs, err := archive.Repair(path, src)
	if err != nil {
		log.Fatalf("repairing %s from %s: %v", path, replicaPath, err)
	}
	if rs.FramesRepaired == 0 {
		fmt.Printf("%s: %d frames scanned, nothing to repair\n", path, rs.FramesScanned)
		return
	}
	fmt.Printf("%s: repaired %d of %d frames (%d bytes respliced, members %v) from %s in %v\n",
		path, rs.FramesRepaired, rs.FramesScanned, rs.BytesRespliced, rs.Members,
		replicaPath, time.Since(t0).Round(time.Millisecond))
}

// archiveCmd compresses a sequence of .amr snapshots into one seekable
// .taca archive, streaming each member out as it is compressed. With
// -append the archive is grown in place: new members land after the
// existing committed generation (a torn tail from an earlier crash is
// truncated first), and the commit ordering keeps the file openable at
// every instant. With -delta the writer runs in campaign mode: each
// member delta-codes against the previous member of its field where that
// pays, with a keyframe every -keyframe members bounding the reference
// chain (appends continue the chain of the committed tail).
func archiveCmd(args []string) {
	fs := flag.NewFlagSet("archive", flag.ExitOnError)
	eb := fs.Float64("eb", 1e9, "error bound")
	rel := fs.Bool("rel", false, "interpret -eb as value-range-relative")
	scales := fs.String("scales", "", "per-level error-bound multipliers, fine to coarse")
	workers := fs.Int("workers", -1, "compression workers per level (-1 = all CPUs)")
	batch := fs.Int("batch", archive.DefaultBatchBlocks, "unit blocks per seekable frame")
	appendTo := fs.Bool("append", false, "append to an existing archive instead of creating it")
	delta := fs.Bool("delta", false, "campaign mode: delta-code members against their predecessors")
	keyframe := fs.Int("keyframe", 8, "with -delta, keyframe interval bounding reference chains")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *delta && *keyframe < 2 {
		log.Fatalf("-keyframe must be >= 2 (got %d)", *keyframe)
	}
	rest := fs.Args()
	if len(rest) < 2 {
		usage()
	}
	cfg := codec.Config{ErrorBound: *eb, Workers: *workers}
	if *rel {
		cfg.Mode = sz.Rel
	}
	if *scales != "" {
		cfg.LevelScales = parseScales(*scales)
	}
	var (
		f    *os.File
		w    *archive.Writer
		err  error
		base int
	)
	if *appendTo {
		w, f, err = archive.OpenAppendFile(rest[0])
		if err != nil {
			log.Fatal(err)
		}
		base = len(w.Members())
	} else {
		f, err = os.Create(rest[0])
		if err != nil {
			log.Fatal(err)
		}
		w, err = archive.NewWriter(f)
		if err != nil {
			f.Close()
			log.Fatal(err)
		}
	}
	defer f.Close()
	w.BatchBlocks = *batch
	if *delta {
		w.Keyframe = *keyframe
	}
	t0 := time.Now()
	var orig int64
	startOff := w.Stats().BytesWritten
	for _, path := range rest[1:] {
		ds, err := amr.Load(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := w.AddDataset(ds, cfg); err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		orig += int64(ds.OriginalBytes())
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	dt := time.Since(t0)
	st := w.Stats()
	verb := ""
	if *appendTo {
		// Generation() counts commits; the file's newest trailer is
		// stamped one less.
		verb = fmt.Sprintf(" (+%d appended, generation %d)", st.Members-base, w.Generation()-1)
	}
	fmt.Printf("%s: %d members%s, %d -> %d bytes (CR %.1f) in %v (%.1f MB/s)\n",
		rest[0], st.Members, verb, orig, st.BytesWritten-startOff,
		float64(orig)/float64(st.BytesWritten-startOff),
		dt.Round(time.Millisecond), float64(orig)/1e6/dt.Seconds())
}

// lsCmd lists the members of an archive from its footer index alone:
// per-member generation, coding mode (intra, or delta with its reference
// member), and compression ratio come straight from the footer, no frame
// is read. With -scrub every member's frames are verified too, a health
// column (ok / DAMAGED) is appended, and any damage exits non-zero — the
// quick way to see which member a `tacc repair` would target.
func lsCmd(args []string) {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	scrub := fs.Bool("scrub", false, "verify every member's frames and append a health column")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	rest := fs.Args()
	if len(rest) != 1 {
		usage()
	}
	r, closer, err := openArchive(rest[0])
	if err != nil {
		log.Fatal(err)
	}
	defer closer.Close()
	health := ""
	if *scrub {
		health = "  health"
	}
	fmt.Printf("%-4s %-16s %-20s %6s %4s %-10s %12s %12s %8s %10s%s\n",
		"#", "name", "field", "levels", "gen", "mode", "cells", "bytes", "CR", "eb", health)
	damaged := 0
	for i, m := range r.Members() {
		mode := "intra"
		if m.IsDelta() {
			mode = fmt.Sprintf("delta->%d", m.Ref)
		}
		if *scrub {
			health = "  ok"
			if issues := r.ScrubMember(i); len(issues) > 0 {
				health = fmt.Sprintf("  DAMAGED (%d frames)", len(issues))
				damaged++
			}
		}
		fmt.Printf("%-4d %-16s %-20s %6d %4d %-10s %12d %12d %8.1f %10.3g%s\n",
			i, m.Name, m.Field, len(m.Levels), m.Gen, mode, m.StoredCells(), m.CompressedBytes(),
			float64(m.OriginalBytes())/float64(m.CompressedBytes()), m.ErrorBound, health)
	}
	if damaged > 0 {
		log.Fatalf("%s: %d of %d members damaged", rest[0], damaged, len(r.Members()))
	}
}

// extractCmd pulls a member, a level, or a spatial region out of an
// archive, reading only the covered frames.
func extractCmd(args []string) {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	member := fs.String("member", "0", "member index, or name[/field]")
	level := fs.Int("level", -1, "extract a single level (-1 = all)")
	roi := fs.String("roi", "", "region of interest x0:x1,y0:y1,z0:z1 in finest cells")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	rest := fs.Args()
	if len(rest) != 2 {
		usage()
	}
	r, closer, err := openArchive(rest[0])
	if err != nil {
		log.Fatal(err)
	}
	defer closer.Close()
	mi := resolveMember(r, *member)
	var ds *amr.Dataset
	switch {
	case *roi != "" && *level >= 0:
		log.Fatal("-level and -roi are mutually exclusive")
	case *roi != "":
		ds, err = r.ExtractRegion(mi, parseROI(*roi))
	case *level >= 0:
		var l *amr.Level
		l, err = r.ExtractLevel(mi, *level)
		if err == nil {
			m := r.Members()[mi]
			ds = &amr.Dataset{Name: m.Name, Field: m.Field, Ratio: m.Ratio, Levels: []*amr.Level{l}}
		}
	default:
		ds, err = r.Extract(mi)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.Save(rest[1]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d stored cells, %d levels)\n", rest[1], ds.StoredCells(), len(ds.Levels))
}

// resolveMember accepts an index or a name[/field] selector.
func resolveMember(r *archive.Reader, sel string) int {
	if i, err := strconv.Atoi(sel); err == nil {
		return i
	}
	name, field, _ := strings.Cut(sel, "/")
	i := r.Find(name, field)
	if i < 0 {
		log.Fatalf("archive has no member %q", sel)
	}
	return i
}

// parseROI parses "x0:x1,y0:y1,z0:z1" via the shared grid parser.
func parseROI(s string) grid.Region {
	r, err := grid.ParseRegion(s)
	if err != nil {
		log.Fatalf("bad -roi: %v", err)
	}
	return r
}

// parseScales parses a comma-separated multiplier list.
func parseScales(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			log.Fatalf("bad -scales entry %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out
}

// errmap compresses, decompresses, and renders a Fig. 7/12-style error-map
// slice of one level (brighter = larger error).
func errmap(args []string) {
	fs := flag.NewFlagSet("errmap", flag.ExitOnError)
	level := fs.Int("level", 0, "AMR level to render (0 = finest)")
	slice := fs.Int("slice", -1, "z slice index (-1 = middle)")
	c, cfg, rest := parseCfg(fs, args)
	if len(rest) != 2 {
		usage()
	}
	ds, err := amr.Load(rest[0])
	if err != nil {
		log.Fatal(err)
	}
	if *level < 0 || *level >= len(ds.Levels) {
		log.Fatalf("dataset has no level %d", *level)
	}
	blob, err := c.Compress(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	recon, err := c.Decompress(blob)
	if err != nil {
		log.Fatal(err)
	}
	l, rl := ds.Levels[*level], recon.Levels[*level]
	k := *slice
	if k < 0 {
		k = l.Grid.Dim.Z / 2
	}
	if err := render.WriteErrorMap(rest[1], l.Grid, rl.Grid, k); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: wrote error map of level %d slice %d to %s (CR %.1f)\n",
		c.Name(), *level, k, rest[1],
		metrics.CompressionRatio(ds.OriginalBytes(), len(blob)))
}
