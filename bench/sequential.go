package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/grid"
)

// writeWorkload is campaign_write: per round, archive the catalog
// snapshots intra into a fresh file, then the drifting campaign with
// Keyframe=4 into another. An operation is one AddDataset.
type writeWorkload struct {
	c       *corpus
	dir     string
	rounds  int
	last    archiveSet      // the archives of the last completed round
	commits []time.Duration // Writer.Close of each archive of a traced window
}

func (w *writeWorkload) build(rc *runCtx, c *corpus) error {
	w.c, w.dir, w.rounds = c, rc.tmp, 0
	w.last.snaps[intraArchive], w.last.snaps[deltaArchive] = c.snaps, c.campaign
	// One untimed round warms the encoder pools and the page cache.
	warm := newRecorder()
	w.round(warm, nil)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up round failed: %v", warm.failures)
	}
	return nil
}

func (w *writeWorkload) teardown() {}

func (w *writeWorkload) measure(rc *runCtx, rec *recorder, dur time.Duration, tc *traceCounters) {
	w.commits = nil
	for time.Since(rec.t0) < dur {
		w.round(rec, tc)
	}
	rec.close()
}

// round writes both archives once, each as one slice of the window. Files
// alternate between two names so the previous round's pair stays readable
// for verify.
func (w *writeWorkload) round(rec *recorder, tc *traceCounters) {
	w.rounds++
	for _, kind := range []archiveKind{intraArchive, deltaArchive} {
		path := filepath.Join(w.dir, fmt.Sprintf("round%d-%s.taca", w.rounds%2, kind))
		var size int64
		var err error
		rec.slice(kind == deltaArchive, func() { size, err = w.writeOne(rec, tc, path, kind) })
		if err != nil {
			rec.check("writing "+path, err)
			continue
		}
		// The codec is deterministic: a round that stores a different
		// number of bytes than the one before wrote something else.
		if prev := w.last.size[kind]; prev != 0 && prev != size {
			rec.check("archive size", fmt.Errorf("%s archive is %d bytes, previous round wrote %d", kind, size, prev))
		}
		w.last.path[kind], w.last.size[kind] = path, size
	}
}

func (w *writeWorkload) writeOne(rec *recorder, tc *traceCounters, path string, kind archiveKind) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var sink io.Writer = f
	if tc != nil {
		sink = countingWriter{f, &tc.sink}
	}
	aw, err := newArchiveWriter(sink, kind)
	if err != nil {
		return 0, err
	}
	for _, s := range w.last.snaps[kind] {
		start := time.Now()
		err := aw.AddDataset(s.ds, s.cfg)
		rec.op(sample{kind: "add_" + kind.String(), bytes: s.rawBytes()}, start, err)
		if err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if err := aw.Close(); err != nil {
		return 0, err
	}
	if tc != nil {
		w.commits = append(w.commits, time.Since(start))
	}
	return aw.Stats().BytesWritten, f.Close()
}

// verify decodes the last round's archives and holds every cell to the
// error bound.
func (w *writeWorkload) verify(rc *runCtx, rec *recorder) (float64, float64) {
	return w.last.storedRatio(), verifyArchives(rec, &w.last)
}

// verifyArchives extracts every member of both archives, checks the
// error bound cell by cell against the originals, and returns the PSNR.
func verifyArchives(rec *recorder, a *archiveSet) float64 {
	var fid fidelity
	for kind, path := range a.path {
		if path == "" {
			continue
		}
		fr, err := archive.OpenFile(path)
		if err != nil {
			rec.check("reopening "+path, err)
			continue
		}
		if n := len(fr.Members()); n != len(a.snaps[kind]) {
			rec.check("member count", fmt.Errorf("%s holds %d members, wrote %d", path, n, len(a.snaps[kind])))
		}
		for mi, s := range a.snaps[kind] {
			ds, err := fr.Extract(mi)
			if err == nil {
				var bad int64
				if bad, err = fid.checkMember(s, ds); err == nil && bad > 0 {
					err = fmt.Errorf("%d cells beyond the error bound", bad)
				}
			}
			rec.check(fmt.Sprintf("%s member %d (%s/%s)", path, mi, s.ds.Name, s.ds.Field), err)
		}
		fr.Close()
	}
	return fid.psnr()
}

func (w *writeWorkload) layerMetrics(rc *runCtx, traced *recorder, out map[string]float64) {
	out["archive.write_intra_mb_s"] = traced.kindRate("add_intra")
	out["archive.write_delta_mb_s"] = traced.kindRate("add_delta")
	var cs []float64
	for _, d := range w.commits {
		cs = append(cs, ms(d))
	}
	out["archive.commit_ms"] = median(cs)
}

// extractOp is one operation of cold_extract: what one `tacc extract`
// invocation does, from opening the archive to closing it.
type extractOp struct {
	kind archiveKind
	mi   int
	what string // "member", "level_fine", "level_coarse" or "region"
	li   int
	roi  grid.Region
	// The reference, computed in set-up through the same Reader calls.
	wantHash  uint64
	wantBytes int64
}

// extractSliceOps is how many operations of cold_extract's round of 80
// run between two calibration probes: a fifth of a second of work.
const extractSliceOps = 20

// extractWorkload is cold_extract: a fixed seeded sequence of
// open + extract + close over A_intra and A_delta, no cache anywhere.
type extractWorkload struct {
	a    *archiveSet
	ops  []extractOp
	psnr float64
}

func (w *extractWorkload) build(rc *runCtx, c *corpus) error {
	a, err := buildArchives(rc.tmp, c, intraArchive, deltaArchive)
	if err != nil {
		return err
	}
	w.a = a
	w.ops = extractOps(a, rc.cfg.seed)
	// References: every operation once, untimed, through the same path.
	for i := range w.ops {
		op := &w.ops[i]
		ds, err := op.run(a.path[op.kind], nil)
		if err != nil {
			return fmt.Errorf("reference for %v: %w", *op, err)
		}
		op.wantHash, op.wantBytes = hashDataset(ds), storedBytes(ds)
	}
	check := newRecorder()
	w.psnr = verifyArchives(check, a)
	if check.failed > 0 {
		return fmt.Errorf("archives built in set-up do not verify: %v", check.failures)
	}
	return nil
}

// extractOps lists, for every member of both archives, the whole member,
// its finest and its coarsest level, and two regions at seeded offsets,
// in a seeded order. Two regions, not one: the regions are then the
// biggest group of a round and its median falls inside them, not on the
// edge between two kinds of extraction.
func extractOps(a *archiveSet, seed int64) []extractOp {
	rng := rand.New(rand.NewSource(seed*15485863 + 7))
	var ops []extractOp
	for _, kind := range []archiveKind{intraArchive, deltaArchive} {
		for mi, s := range a.snaps[kind] {
			ops = append(ops,
				extractOp{kind: kind, mi: mi, what: "member"},
				extractOp{kind: kind, mi: mi, what: "level_fine", li: 0},
				extractOp{kind: kind, mi: mi, what: "level_coarse", li: len(s.ds.Levels) - 1})
			fd, ub := s.ds.FinestDims(), s.ds.Levels[0].UnitBlock
			for k := 0; k < 2; k++ {
				// A box of half the edge on each axis — an eighth of the
				// volume — at a seeded offset of whole unit blocks, so that
				// every seed's box covers the same number of them.
				roi := grid.Region{X0: ub * rng.Intn(fd.X/2/ub+1), Y0: ub * rng.Intn(fd.Y/2/ub+1), Z0: ub * rng.Intn(fd.Z/2/ub+1)}
				roi.X1, roi.Y1, roi.Z1 = roi.X0+fd.X/2, roi.Y0+fd.Y/2, roi.Z0+fd.Z/2
				ops = append(ops, extractOp{kind: kind, mi: mi, what: "region", roi: roi})
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// open opens the archive the way the operation's caller would: through
// archive.OpenFile, or, when tracing, through a counting ReaderAt.
func openArchive(path string, tc *traceCounters) (*archive.Reader, io.Closer, error) {
	if tc == nil {
		fr, err := archive.OpenFile(path)
		if err != nil {
			return nil, nil, err
		}
		return fr.Reader, fr, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	r, err := archive.Open(countingReaderAt{f, &tc.source}, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// run performs the operation and returns what it extracted; a single
// level comes back wrapped in a one-level dataset.
func (op *extractOp) run(path string, tc *traceCounters) (*amr.Dataset, error) {
	r, closer, err := openArchive(path, tc)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	return op.extract(r)
}

func (op *extractOp) extract(r *archive.Reader) (*amr.Dataset, error) {
	switch op.what {
	case "member":
		return r.Extract(op.mi)
	case "region":
		return r.ExtractRegion(op.mi, op.roi)
	default:
		l, err := r.ExtractLevel(op.mi, op.li)
		if err != nil {
			return nil, err
		}
		return &amr.Dataset{Levels: []*amr.Level{l}}, nil
	}
}

func (w *extractWorkload) teardown() {}

func (w *extractWorkload) measure(rc *runCtx, rec *recorder, dur time.Duration, tc *traceCounters) {
	n := 0
	for time.Since(rec.t0) < dur {
		for lo := 0; lo < len(w.ops); lo += extractSliceOps {
			hi := min(lo+extractSliceOps, len(w.ops))
			rec.slice(hi == len(w.ops), func() {
				for i := lo; i < hi; i++ {
					n++
					w.extractOne(rec, tc, &w.ops[i], n%8 == 0)
				}
			})
		}
	}
	rec.close()
}

// extractOne times one operation and holds what it delivered to the
// reference: the byte count always, the hash when hashed is set.
func (w *extractWorkload) extractOne(rec *recorder, tc *traceCounters, op *extractOp, hashed bool) {
	start := time.Now()
	ds, err := op.run(w.a.path[op.kind], tc)
	rec.op(sample{kind: op.what + "_" + op.kind.String(), bytes: op.wantBytes}, start, err)
	if err != nil {
		return
	}
	if got := storedBytes(ds); got != op.wantBytes {
		rec.reject("%s of %s member %d delivered %d bytes, reference %d", op.what, op.kind, op.mi, got, op.wantBytes)
	} else if hashed && hashDataset(ds) != op.wantHash {
		rec.reject("%s of %s member %d differs from the reference extraction", op.what, op.kind, op.mi)
	}
}

func (w *extractWorkload) verify(rc *runCtx, rec *recorder) (float64, float64) {
	return w.a.storedRatio(), w.psnr
}

func (w *extractWorkload) layerMetrics(rc *runCtx, traced *recorder, out map[string]float64) {
	out["archive.extract_intra_mb_s"] = traced.kindRate("member_intra")
	out["archive.extract_delta_mb_s"] = traced.kindRate("member_delta")
	levels := append(traced.latencies("level_fine_intra"), traced.latencies("level_fine_delta")...)
	levels = append(levels, traced.latencies("level_coarse_intra")...)
	levels = append(levels, traced.latencies("level_coarse_delta")...)
	out["archive.extract_level_ms"] = median(levels)
	out["archive.extract_region_ms"] = median(append(traced.latencies("region_intra"), traced.latencies("region_delta")...))
}

// replay replays one full round: every AddDataset of both archives, the
// campaign first so a short budget still covers the temporal path.
func (w *writeWorkload) replay(rc *runCtx, rp *replayer, budget time.Duration) error {
	for _, kind := range []archiveKind{deltaArchive, intraArchive} {
		deltaMember := func(int) bool { return false }
		if kind == deltaArchive {
			// The archive the window wrote says which members the writer
			// ended up coding temporally.
			fr, err := archive.OpenFile(w.last.path[kind])
			if err != nil {
				return err
			}
			members := fr.Members()
			deltaMember = func(i int) bool { return members[i].IsDelta() }
			fr.Close()
		}
		rp.allow(budget / 2)
		path := filepath.Join(w.dir, "replay-"+kind.String()+".taca")
		if err := rp.replayWrites(path, kind, w.last.snaps[kind], deltaMember); err != nil {
			return err
		}
	}
	return nil
}

// replay replays the operations in their seeded order until the budget
// is spent.
func (w *extractWorkload) replay(rc *runCtx, rp *replayer, budget time.Duration) error {
	rp.allow(budget)
	for i := range w.ops {
		if rp.expired() {
			break
		}
		op := &w.ops[i]
		if err := rp.replayExtract(w.a.path[op.kind], op, w.a.snaps[op.kind][op.mi]); err != nil {
			return err
		}
	}
	return nil
}
