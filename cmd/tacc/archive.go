package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/remote"
	"repro/internal/replica"
	"repro/internal/sz"
)

// archiveCmd compresses a sequence of .amr snapshots into one seekable
// .taca archive, streaming each member out as it is compressed. With
// -append the archive is grown in place: new members land after the
// existing committed generation (a torn tail from an earlier crash is
// truncated first), and the commit ordering keeps the file openable at
// every instant. With -keyframe K ≥ 2 the writer runs in campaign mode:
// each member delta-codes against the previous member of its field where
// that pays, with a keyframe every K members bounding the reference chain
// (appends continue the chain of the committed tail).
func archiveCmd(args []string, stdout io.Writer) error {
	fs := newFlags("archive")
	var cfg codec.Config
	boundFlags(fs, &cfg)
	fs.IntVar(&cfg.Workers, "workers", -1, "compression workers per member (-1 = all CPUs)")
	batch := fs.Int("batch", archive.DefaultBatchBlocks, "unit blocks per seekable frame")
	appendTo := fs.Bool("append", false, "append to an existing archive instead of creating it")
	keyframe := fs.Int("keyframe", 0, "delta-code members against their predecessors with this keyframe interval (0 = intra only)")
	rest, err := parseArgs(fs, args, 2, -1)
	if err != nil {
		return err
	}
	if *keyframe == 1 || *keyframe < 0 {
		return usageError{fmt.Errorf("-keyframe must be 0 (off) or >= 2 (got %d)", *keyframe), fs}
	}
	var f *os.File
	var w *archive.Writer
	if *appendTo {
		w, f, err = archive.OpenAppendFile(rest[0])
		if err != nil {
			return err
		}
	} else {
		f, err = os.Create(rest[0])
		if err != nil {
			return err
		}
		w, err = archive.NewWriter(f)
		if err != nil {
			f.Close()
			return err
		}
	}
	defer f.Close()
	w.BatchBlocks = *batch
	w.Keyframe = *keyframe
	t0 := time.Now()
	var orig int64
	startOff := w.Stats().BytesWritten
	for _, path := range rest[1:] {
		ds, err := amr.Load(path)
		if err != nil {
			return err
		}
		if err := w.AddDataset(ds, cfg); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		orig += int64(ds.OriginalBytes())
	}
	if err := errors.Join(w.Close(), f.Close()); err != nil {
		return err
	}
	dt := time.Since(t0)
	st := w.Stats()
	verb := ""
	if *appendTo {
		// Generation() counts commits; the file's newest trailer is
		// stamped one less.
		verb = fmt.Sprintf(" (+%d appended, generation %d)", len(rest)-1, w.Generation()-1)
	}
	fmt.Fprintf(stdout, "%s: %d members%s, %d -> %d bytes (CR %.1f) in %v (%.1f MB/s)\n",
		rest[0], st.Members, verb, orig, st.BytesWritten-startOff,
		float64(orig)/float64(st.BytesWritten-startOff),
		dt.Round(time.Millisecond), float64(orig)/1e6/dt.Seconds())
	return nil
}

// ls lists the members of an archive from its footer index alone:
// per-member generation, coding mode (intra, or delta with its reference
// member), and compression ratio come straight from the footer, no frame
// is read. verify is the command that reads them.
func ls(args []string, stdout io.Writer) error {
	rest, err := parseArgs(newFlags("ls"), args, 1, 1)
	if err != nil {
		return err
	}
	r, closer, err := openArchive(rest[0])
	if err != nil {
		return err
	}
	defer closer.Close()
	fmt.Fprintf(stdout, "%-4s %-16s %-20s %6s %4s %-10s %12s %12s %8s %10s\n",
		"#", "name", "field", "levels", "gen", "mode", "cells", "bytes", "CR", "eb")
	for i, m := range r.Members() {
		mode := "intra"
		if m.IsDelta() {
			mode = fmt.Sprintf("delta->%d", m.Ref)
		}
		fmt.Fprintf(stdout, "%-4d %-16s %-20s %6d %4d %-10s %12d %12d %8.1f %10.3g\n",
			i, m.Name, m.Field, len(m.Levels), m.Gen, mode, m.StoredCells(), m.CompressedBytes(),
			float64(m.OriginalBytes())/float64(m.CompressedBytes()), m.ErrorBound)
	}
	return nil
}

// extract pulls a member, a level, or a spatial region out of an
// archive, reading only the covered frames.
func extract(args []string, stdout io.Writer) error {
	fs := newFlags("extract")
	member := fs.String("member", "0", "member index, or name[/field]")
	level := fs.Int("level", -1, "extract a single level (-1 = all)")
	roi := fs.String("roi", "", "region of interest x0:x1,y0:y1,z0:z1 in finest cells")
	rest, err := parseArgs(fs, args, 2, 2)
	if err != nil {
		return err
	}
	if *roi != "" && *level >= 0 {
		return usageError{fmt.Errorf("-level and -roi are mutually exclusive"), fs}
	}
	r, closer, err := openArchive(rest[0])
	if err != nil {
		return err
	}
	defer closer.Close()
	mi, err := resolveMember(r, *member)
	if err != nil {
		return err
	}
	var ds *amr.Dataset
	switch {
	case *roi != "":
		var region grid.Region
		if region, err = grid.ParseRegion(*roi); err != nil {
			return usageError{fmt.Errorf("bad -roi: %v", err), fs}
		}
		ds, err = r.ExtractRegion(mi, region)
	case *level >= 0:
		var l *amr.Level
		if l, err = r.ExtractLevel(mi, *level); err == nil {
			m := r.Members()[mi]
			ds = &amr.Dataset{Name: m.Name, Field: m.Field, Ratio: m.Ratio, Levels: []*amr.Level{l}}
		}
	default:
		ds, err = r.Extract(mi)
	}
	if err != nil {
		return err
	}
	return save(ds, rest[1], stdout)
}

// resolveMember accepts an index or a name[/field] selector.
func resolveMember(r *archive.Reader, sel string) (int, error) {
	if i, err := strconv.Atoi(sel); err == nil {
		return i, nil
	}
	name, field, _ := strings.Cut(sel, "/")
	if i := r.Find(name, field); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("archive has no member %q", sel)
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
	magic := make([]byte, 4)
	_, err = io.ReadFull(f, magic)
	return err == nil && string(magic) == "TACA"
}

// verifyArchive scrubs every frame of every member and fails, naming each
// damaged frame with its member, if any damage is found, so cron jobs and
// CI can gate on the exit status.
func verifyArchive(path string, stdout io.Writer) error {
	r, closer, err := openArchive(path)
	if err != nil {
		return err
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
	var damaged []string
	for mi := range members {
		for _, is := range r.ScrubMemberFrames(mi, func(_, _ int, info sz.BatchInfo) {
			if info.CodeStored {
				stored[mi]++
			} else {
				deflated[mi]++
			}
		}) {
			damaged = append(damaged, "DAMAGED "+is.Err.Error())
		}
	}
	if len(damaged) > 0 {
		return fmt.Errorf("%s: %d of %d frames damaged (%d members, %s): %s",
			path, len(damaged), frames, len(members), mode, strings.Join(damaged, "; "))
	}
	for mi, m := range members {
		fmt.Fprintf(stdout, "  %s/%s: %d frames, %d stored + %d deflated code sections\n",
			m.Name, m.Field, per[mi], stored[mi], deflated[mi])
	}
	fmt.Fprintf(stdout, "%s: %d members, %d frames %s in %v — clean\n",
		path, len(members), frames, mode, time.Since(t0).Round(time.Millisecond))
	return nil
}

// repair heals a local archive file offline: every frame that fails its
// scrub is re-fetched from the replica (a file, or a URL read by HTTP
// ranges), digest-verified, and rewritten in place at the same offset. A
// replica damaged at the same frames, or a fetch error, fails the repair
// with the archive's clean frames untouched.
func repair(args []string, stdout io.Writer) error {
	fs := newFlags("repair")
	from := fs.String("replica", "", "healthy copy of the archive to re-fetch damaged frames from")
	rest, err := parseArgs(fs, args, 1, 1)
	if err != nil {
		return err
	}
	if *from == "" {
		return usageError{fmt.Errorf("-replica is required"), fs}
	}
	path := rest[0]
	if remote.IsURL(path) {
		return fmt.Errorf("%s: cannot repair a remote archive in place (repair the file on its host)", path)
	}
	src, _, err := replica.Open(*from, remote.Config{})
	if err != nil {
		return err
	}
	defer src.Close()
	t0 := time.Now()
	rs, err := archive.Repair(path, src)
	if err != nil {
		return fmt.Errorf("repairing %s from %s: %w", path, *from, err)
	}
	if rs.FramesRepaired == 0 {
		fmt.Fprintf(stdout, "%s: %d frames scanned, nothing to repair\n", path, rs.FramesScanned)
		return nil
	}
	fmt.Fprintf(stdout, "%s: repaired %d of %d frames (%d bytes respliced, members %v) from %s in %v\n",
		path, rs.FramesRepaired, rs.FramesScanned, rs.BytesRespliced, rs.Members,
		*from, time.Since(t0).Round(time.Millisecond))
	return nil
}
