package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/kdtree"
	"repro/internal/preprocess"
	"repro/internal/remote"
	"repro/internal/sz"
)

// layerCounts are the exact counts the stage replays make on the way.
type layerCounts struct {
	levelsOpST, levelsAKD, levelsGSP int
	values, literals                 int64
	symbols, huffmanBytes            int64
	framesNeeded, readOps            int
}

// replayer re-executes the stages of finished operations one by one
// through the exported functions of each layer, each under a span.
type replayer struct {
	tr       *tracer
	nproc    int
	deadline time.Time
	counts   layerCounts

	enc  *sz.Encoder[amr.Value]
	dec  *sz.Decoder[amr.Value]
	henc huffman.Encoder
	hdec huffman.Decoder
	syms []uint32
	hbuf []byte
}

func newReplayer(rc *runCtx, tr *tracer) *replayer {
	return &replayer{tr: tr, nproc: rc.nproc, enc: sz.NewEncoder[amr.Value](), dec: sz.NewDecoder[amr.Value]()}
}

// allow gives the replays that follow d of wall time.
func (rp *replayer) allow(d time.Duration) { rp.deadline = time.Now().Add(d) }

func (rp *replayer) expired() bool { return time.Now().After(rp.deadline) }

func levelOptions(cfg codec.Config, li int, l *amr.Level) sz.Options {
	return sz.Options{ErrorBound: cfg.LevelEB(li, l), QuantBits: cfg.QuantBits}
}

func blockBytes(blocks []*grid.Grid3[amr.Value]) int64 {
	var n int64
	for _, b := range blocks {
		n += int64(len(b.Data)) * amr.ValueBytes
	}
	return n
}

// spanSink is the io.Writer of a replayed archive write: every Write is a
// span under the AddDataset being replayed.
type spanSink struct {
	w          io.Writer
	tr         *tracer
	op, parent int
}

func (s *spanSink) Write(p []byte) (n int, err error) {
	s.tr.do(s.op, s.parent, "archive.sink_write", int64(len(p)), func() { n, err = s.w.Write(p) })
	return n, err
}

// replayWrites replays the AddDataset sequence of one archive. The root of
// each operation is the AddDataset itself run again with one worker, so
// that its stages — which run one after another here — can account for it.
func (rp *replayer) replayWrites(path string, kind archiveKind, snaps []snapshot, deltaMember func(i int) bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sink := &spanSink{w: f, tr: rp.tr}
	aw, err := newArchiveWriter(sink, kind)
	if err != nil {
		return err
	}
	var prev [][]*grid.Grid3[amr.Value] // previous member's reconstruction, per level
	for i, s := range snaps {
		if rp.expired() {
			break
		}
		op := rp.tr.newOp()
		serial := s.cfg
		serial.Workers = 1
		root := rp.tr.begin(op, 0, "op.add_dataset")
		sink.op, sink.parent = op, root
		err := aw.AddDataset(s.ds, serial)
		rp.tr.end(root, s.rawBytes())
		if err != nil {
			return err
		}
		if prev, err = rp.writeStages(op, root, s, kind == deltaArchive, deltaMember(i), prev); err != nil {
			return err
		}
		if err := rp.coreCompress(op, s); err != nil {
			return err
		}
	}
	rp.tr.do(rp.tr.newOp(), 0, "archive.commit", 0, func() { err = aw.Close() })
	return err
}

// writeStages replays the stages inside one AddDataset: gather the unit
// blocks, encode each batch (prediction and Huffman coding replayed once
// more on their own underneath), and — for a member the writer coded
// temporally — the second, delta encode. It returns the member's
// reconstruction, the next member's temporal reference.
func (rp *replayer) writeStages(op, root int, s snapshot, capture, delta bool, prev [][]*grid.Grid3[amr.Value]) ([][]*grid.Grid3[amr.Value], error) {
	var recon [][]*grid.Grid3[amr.Value]
	for li, l := range s.ds.Levels {
		opts := levelOptions(s.cfg, li, l)
		var blocks []*grid.Grid3[amr.Value]
		rp.tr.do(op, root, "archive.gather", int64(l.StoredCells())*amr.ValueBytes, func() {
			blocks = preprocess.Gather(l.Grid, preprocess.NaST(l.Mask), l.UnitBlock)
		})
		var caps []*grid.Grid3[amr.Value]
		if capture {
			ub := l.UnitBlock
			caps = grid.NewBlocks[amr.Value](grid.Dims{X: ub, Y: ub, Z: ub}, len(blocks))
		}
		for lo := 0; lo < len(blocks); lo += batchBlocks {
			hi := min(lo+batchBlocks, len(blocks))
			batch := blocks[lo:hi]
			var frame []byte
			var err error
			id := rp.tr.begin(op, root, "sz.encode_blocks")
			if capture {
				frame, _, err = rp.enc.CompressBlocksCapture(batch, opts, caps[lo:hi])
			} else {
				frame, _, err = rp.enc.CompressBlocks(batch, opts)
			}
			rp.tr.end(id, blockBytes(batch))
			if err != nil {
				return nil, err
			}
			if err := rp.encodeStages(op, id, batch, frame, opts); err != nil {
				return nil, err
			}
			if delta && li < len(prev) && len(prev[li]) == len(blocks) {
				deltaRec := grid.NewBlocks[amr.Value](batch[0].Dim, len(batch))
				var dframe []byte
				rp.tr.do(op, root, "sz.encode_delta", blockBytes(batch), func() {
					dframe, _, err = rp.enc.CompressBlocksDelta(batch, prev[li][lo:hi], opts, deltaRec)
				})
				if err != nil {
					return nil, err
				}
				if len(dframe) < len(frame) {
					for k := range deltaRec {
						copy(caps[lo+k].Data, deltaRec[k].Data)
					}
				}
			}
		}
		recon = append(recon, caps)
	}
	return recon, nil
}

// encodeStages replays, under one batch encode, its two measurable
// inner stages: Lorenzo prediction/quantization of every block, and
// Huffman coding of the code stream the frame carries.
func (rp *replayer) encodeStages(op, parent int, batch []*grid.Grid3[amr.Value], frame []byte, opts sz.Options) error {
	var err error
	rp.tr.do(op, parent, "sz.predict", blockBytes(batch), func() {
		for _, b := range batch {
			var nlit int
			if _, _, nlit, err = rp.enc.Predict3D(b, opts); err != nil {
				return
			}
			rp.counts.values += int64(len(b.Data))
			rp.counts.literals += int64(nlit)
		}
	})
	if err != nil {
		return err
	}
	codes, err := sz.ExtractCodes(frame)
	if err != nil {
		return err
	}
	rp.tr.do(op, parent, "huffman.encode", int64(len(codes))*4, func() {
		rp.hbuf = rp.henc.AppendEncode(rp.hbuf[:0], codes)
	})
	rp.counts.symbols += int64(len(codes))
	rp.counts.huffmanBytes += int64(len(rp.hbuf))
	return nil
}

// coreCompress replays the one-shot codec on the same snapshot — the path
// where the density filter picks OpST, AKDTree or GSP per level — at
// nproc workers and at one, and the pre-process stage underneath it.
func (rp *replayer) coreCompress(op int, s snapshot) error {
	eng := core.NewEngine(rp.nproc)
	var err error
	multi := s.cfg
	multi.Workers = rp.nproc
	root := rp.tr.do(op, 0, "core.compress", s.rawBytes(), func() { _, err = eng.Compress(s.ds, multi) })
	if err != nil {
		return err
	}
	single := s.cfg
	single.Workers = 1
	rp.tr.do(op, 0, "core.compress_w1", s.rawBytes(), func() { _, err = eng.Compress(s.ds, single) })
	if err != nil {
		return err
	}
	cfg := s.cfg.WithDefaults()
	for _, l := range s.ds.Levels {
		bytes := int64(l.StoredCells()) * amr.ValueBytes
		switch st := core.PickStrategy(l.Density(), cfg); st {
		case codec.GSP:
			rp.counts.levelsGSP++
			g := l.Grid.Clone()
			rp.tr.do(op, root, "preprocess.plan_gather", bytes, func() {
				preprocess.ZeroUnmasked(g, l.Mask, l.UnitBlock)
				preprocess.GSP(g, l.Mask, l.UnitBlock, cfg.GSP)
			})
		case codec.OpST, codec.AKD:
			rp.tr.do(op, root, "preprocess.plan_gather", bytes, func() {
				var boxes []kdtree.Box
				if st == codec.OpST {
					rp.counts.levelsOpST++
					boxes = preprocess.OpST(l.Mask)
				} else {
					rp.counts.levelsAKD++
					boxes, _ = kdtree.Adaptive(l.Mask)
				}
				for _, grp := range preprocess.GroupBoxes(boxes) {
					preprocess.Gather(l.Grid, grp.Boxes, l.UnitBlock)
				}
			})
		default:
			return fmt.Errorf("density filter picked %s for a level of %s", st, s.ds.Name)
		}
	}
	return nil
}

// frameRef names one frame an extraction needs.
type frameRef struct{ li, b int }

// neededFrames lists the frames op reads, by the reader's own rule: a
// batch is read when any of its blocks is wanted.
func neededFrames(m *archive.Member, op *extractOp) []frameRef {
	var out []frameRef
	scale := 1
	for li := range m.Levels {
		idx := &m.Levels[li]
		levelScale := scale
		scale *= m.Ratio
		if (op.what == "level_fine" || op.what == "level_coarse") && li != op.li {
			continue
		}
		var want grid.Region
		if op.what == "region" {
			roi, cell := op.roi.Intersect(m.Levels[0].Dims), levelScale*idx.UnitBlock
			want = grid.Region{
				X0: roi.X0 / cell, Y0: roi.Y0 / cell, Z0: roi.Z0 / cell,
				X1: (roi.X1 + cell - 1) / cell, Y1: (roi.Y1 + cell - 1) / cell, Z1: (roi.Z1 + cell - 1) / cell,
			}
		}
		ords := idx.Mask.OccupiedIndices()
		for b := range idx.Batches {
			lo, hi := idx.BatchSpan(b)
			hit := op.what != "region"
			for _, ord := range ords[lo:hi] {
				if hit {
					break
				}
				x, y, z := idx.Mask.Dim.Coords(ord)
				hit = x >= want.X0 && x < want.X1 && y >= want.Y0 && y < want.Y1 && z >= want.Z0 && z < want.Z1
			}
			if hit {
				out = append(out, frameRef{li, b})
			}
		}
	}
	return out
}

// replayExtract replays one cold extraction: the operation itself with
// one worker as the root, then open, frame reads, CRC, decode (entropy
// stage, Huffman and reconstruction replayed on their own underneath)
// and scatter. orig is the snapshot the member was made from.
func (rp *replayer) replayExtract(path string, op *extractOp, orig snapshot) error {
	id := rp.tr.newOp()
	var err error
	root := rp.tr.do(id, 0, "op.extract_"+op.what, op.wantBytes, func() {
		var fr *archive.FileReader
		if fr, err = archive.OpenFile(path); err != nil {
			return
		}
		fr.Workers = 1
		_, err = op.extract(fr.Reader)
		fr.Close()
	})
	if err != nil {
		return err
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	var r *archive.Reader
	rp.tr.do(id, root, "archive.open", 0, func() { r, err = archive.Open(f, st.Size()) })
	if err != nil {
		return err
	}
	m := &r.Members()[op.mi]
	frames := neededFrames(m, op)
	rp.counts.framesNeeded += len(frames)
	rp.counts.readOps++

	blobs := make([][]byte, len(frames))
	var stored int64
	read := rp.tr.begin(id, root, "archive.source_read")
	for i, fr := range frames {
		rec := m.Levels[fr.li].Batches[fr.b]
		blobs[i] = make([]byte, rec.Length)
		if _, err := f.ReadAt(blobs[i], rec.Offset); err != nil {
			return err
		}
		stored += rec.Length
	}
	rp.tr.end(read, stored)
	rp.tr.do(id, root, "archive.crc", stored, func() {
		for i, fr := range frames {
			if sums := m.Levels[fr.li].Sums; sums != nil && crc32.Checksum(blobs[i], castagnoli) != sums[fr.b] {
				err = fmt.Errorf("frame %v of member %d fails its CRC32C", fr, op.mi)
			}
		}
	})
	if err != nil {
		return err
	}

	decoded := map[int][]*grid.Grid3[amr.Value]{} // by level, batch order
	for i, fr := range frames {
		idx := &m.Levels[fr.li]
		var blocks []*grid.Grid3[amr.Value]
		var span int
		if idx.IsDelta(fr.b) {
			var refs []*grid.Grid3[amr.Value]
			rp.tr.do(id, root, "archive.chain_resolve", 0, func() { refs, err = r.DecodeBatch(m.Ref, fr.li, fr.b) })
			if err != nil {
				return err
			}
			span = rp.tr.begin(id, root, "sz.delta_decode")
			blocks, err = rp.dec.DecompressBlocksDelta(blobs[i], refs)
		} else {
			span = rp.tr.begin(id, root, "sz.decode_blocks")
			blocks, err = rp.dec.DecompressBlocks(blobs[i])
		}
		rp.tr.end(span, blockBytes(blocks))
		if err != nil {
			return err
		}
		if err := rp.decodeStages(id, span, blobs[i], idx, fr, orig, !idx.IsDelta(fr.b)); err != nil {
			return err
		}
		decoded[fr.li] = append(decoded[fr.li], blocks...)
		rp.tr.do(id, 0, "archive.decode_batch", blockBytes(blocks), func() { _, err = r.DecodeBatch(op.mi, fr.li, fr.b) })
		if err != nil {
			return err
		}
	}
	for li, blocks := range decoded {
		idx := &m.Levels[li]
		dst := grid.New[amr.Value](idx.Dims)
		boxes := preprocess.NaST(idx.Mask)
		// Region extractions decode a subset of batches; scatter what was
		// decoded into the boxes of exactly those batches.
		var sel []kdtree.Box
		for _, fr := range frames {
			if fr.li == li {
				lo, hi := idx.BatchSpan(fr.b)
				sel = append(sel, boxes[lo:hi]...)
			}
		}
		rp.tr.do(id, root, "preprocess.scatter", blockBytes(blocks), func() {
			err = preprocess.Scatter(dst, sel, idx.UnitBlock, blocks)
		})
		if err != nil {
			return err
		}
	}
	if op.what == "member" {
		return rp.coreDecompress(id, orig)
	}
	return nil
}

// decodeStages replays, under one batch decode, the entropy stage
// (inflate + Huffman, with Huffman decoding replayed alone on the same
// symbols) and, for intra frames, Lorenzo reconstruction of every block
// from the codes and literals prediction of the original block yields.
func (rp *replayer) decodeStages(op, parent int, blob []byte, idx *archive.LevelIndex, fr frameRef, orig snapshot, intra bool) error {
	// Timed on the replayer's warm decoder, as the batch decode above ran;
	// the symbols themselves come from an untimed second pass.
	var err error
	ent := rp.tr.do(op, parent, "sz.entropy_decode", int64(len(blob)), func() { err = sz.ExtractCodesInto(rp.dec, blob) })
	if err != nil {
		return err
	}
	codes, err := sz.ExtractCodes(blob)
	if err != nil {
		return err
	}
	hblob := huffman.Encode(codes)
	rp.tr.do(op, ent, "huffman.decode", int64(len(codes))*4, func() {
		rp.syms, err = rp.hdec.AppendDecode(rp.syms[:0], hblob)
	})
	if err != nil || !intra {
		return err
	}
	info, err := sz.PeekBatch(blob)
	if err != nil {
		return err
	}
	opts := sz.Options{ErrorBound: info.EffectiveEB, QuantBits: info.QuantBits}
	l := orig.ds.Levels[fr.li]
	ords := idx.Mask.OccupiedIndices()
	lo, hi := idx.BatchSpan(fr.b)
	out := grid.New[amr.Value](info.BlockDims)
	var dur time.Duration
	var bytes int64
	start := time.Since(rp.tr.t0)
	for _, ord := range ords[lo:hi] {
		bx, by, bz := idx.Mask.Dim.Coords(ord)
		block := l.Grid.Extract(l.BlockRegion(bx, by, bz))
		codes, lits, _, err := rp.enc.Predict3D(block, opts)
		if err != nil {
			return err
		}
		t := time.Now()
		err = sz.Reconstruct3D(out, codes, lits, opts)
		dur += time.Since(t)
		if err != nil {
			return err
		}
		bytes += int64(len(out.Data)) * amr.ValueBytes
	}
	// Prediction of the originals (untimed) alternates with reconstruction
	// (timed); the span is as long as the timed part alone.
	rp.tr.add(op, parent, "sz.reconstruct", bytes, start, start+dur)
	return nil
}

// coreDecompress replays the one-shot codec's decode of the same
// snapshot at nproc workers and at one.
func (rp *replayer) coreDecompress(op int, s snapshot) error {
	cfg := s.cfg
	cfg.Workers = rp.nproc
	blob, err := core.NewEngine(rp.nproc).Compress(s.ds, cfg)
	if err != nil {
		return err
	}
	for _, v := range []struct {
		name    string
		workers int
	}{{"core.decompress", rp.nproc}, {"core.decompress_w1", 1}} {
		eng := core.NewEngine(v.workers)
		rp.tr.do(op, 0, v.name, s.rawBytes(), func() { _, err = eng.Decompress(blob) })
		if err != nil {
			return err
		}
	}
	return nil
}

// replayRemote opens the origin a second time, on its own, and replays the
// frame reads of the given members through it.
func (rp *replayer) replayRemote(url string, cfg remote.Config, r *archive.Reader, members []int) (remote.Stats, error) {
	rr, err := remote.Open(url, cfg)
	if err != nil {
		return remote.Stats{}, err
	}
	defer rr.Close()
	// The segment size the server picks for a URL primary: the next power
	// of two above the typical frame.
	if fb := r.TypicalFrameBytes(); fb > 0 && cfg.SegmentBytes == 0 {
		seg := int64(1)
		for seg < fb {
			seg <<= 1
		}
		rr.Retune(seg)
	}
	op := rp.tr.newOp()
	for _, mi := range members {
		m := &r.Members()[mi]
		for li := range m.Levels {
			for _, rec := range m.Levels[li].Batches {
				if rp.expired() {
					return rr.Stats(), nil
				}
				buf := make([]byte, rec.Length)
				rp.tr.do(op, 0, "remote.readat", rec.Length, func() { _, err = rr.ReadAt(buf, rec.Offset) })
				if err != nil && err != io.EOF {
					return rr.Stats(), err
				}
			}
		}
	}
	return rr.Stats(), nil
}

// procStats is what the Go process has burnt so far.
type procStats struct {
	alloc   uint64
	gcPause time.Duration
	cpu     time.Duration
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // zero CPU on failure is visible in the output
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procStats{ms.TotalAlloc, time.Duration(ms.PauseTotalNs), cpu}
}

// heapWatcher samples the live heap while a window runs and keeps the peak.
type heapWatcher struct {
	stop chan struct{}
	done chan uint64
}

func watchHeap() *heapWatcher {
	h := &heapWatcher{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapWatcher) peak() uint64 {
	close(h.stop)
	return <-h.done
}

// lastLevelCacheBytes reads the size of the largest CPU cache from sysfs;
// 32 MiB when the kernel does not say.
func lastLevelCacheBytes() int64 {
	best := int64(0)
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			best = max(best, n*mult)
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}

// memcpyGBs copies between two arrays of arrayBytes each and returns the
// best of three passes in GB/s of bytes copied.
func memcpyGBs(arrayBytes int64) float64 {
	src, dst := make([]byte, arrayBytes), make([]byte, arrayBytes)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the destination in before timing
	best := time.Duration(1 << 62)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		copy(dst, src)
		best = min(best, time.Since(start))
	}
	return float64(arrayBytes) / 1e9 / best.Seconds()
}

// tracedRun is the -trace run: a third of the window untraced, a third
// with the wrappers armed, then a third for the stage replays, so that it
// takes as long as an untraced run. It fills every per-layer metric and
// returns the recorder holding both windows' correctness tallies.
func tracedRun(rc *runCtx, w workload, dur time.Duration, res *runResult) *recorder {
	plain := newRecorder()
	w.measure(rc, plain, dur/3, nil)

	tc := &traceCounters{}
	before := readProc()
	heap := watchHeap()
	traced := newRecorder()
	w.measure(rc, traced, dur/3, tc)
	heapPeak := heap.peak()
	after := readProc()

	tr := newTracer()
	rp := newReplayer(rc, tr)
	// A quick run is about coverage, not time: two seconds replay every
	// operation at scale 8.
	budget := dur / 3
	if rc.cfg.quick {
		budget = 2 * time.Second
	}
	traced.check("stage replay", w.replay(rc, rp, budget))
	w.verify(rc, traced)

	out := map[string]float64{}
	out["sim.generate_s"] = rc.corpus.genS
	spanMetrics(out, tr, &rp.counts)
	ops := max(len(traced.samples), 1)
	out["archive.sink_bytes"] = float64(tc.sink.bytes.Load())
	out["archive.sink_writes"] = float64(tc.sink.calls.Load())
	out["archive.sink_write_ms"] = ms(tc.sink.busy()) / float64(ops)
	out["archive.source_reads"] = float64(tc.source.calls.Load())
	out["archive.source_bytes"] = float64(tc.source.bytes.Load())
	out["archive.source_read_ms"] = ms(tc.source.busy()) / float64(ops)
	out["remote.origin_requests"] = float64(tc.origin.calls.Load())
	out["remote.origin_bytes"] = float64(tc.origin.bytes.Load())
	out["remote.origin_busy_ms"] = ms(tc.origin.busy())
	if pulled := tc.source.bytes.Load() + tc.origin.bytes.Load(); pulled > 0 {
		out["archive.read_amp"] = ratio(float64(pulled), float64(traced.totalBytes()))
	}
	w.layerMetrics(rc, traced, out)

	out["proc.alloc_mb_per_op"] = float64(after.alloc-before.alloc) / 1e6 / float64(ops)
	out["proc.heap_peak_mb"] = float64(heapPeak) / 1e6
	out["proc.gc_pause_ms"] = ms(after.gcPause - before.gcPause)
	out["proc.cpu_s"] = (after.cpu - before.cpu).Seconds()
	out["proc.cpu_util"] = ratio((after.cpu - before.cpu).Seconds(), traced.wall.Seconds()*float64(rc.nproc))
	// Four times the last-level cache, as a bandwidth measurement wants, but
	// at most 256 MiB per array: this VM reports the whole socket's 260 MiB
	// L3, and first-touching two arrays of 1 GiB costs ten seconds here.
	llc := lastLevelCacheBytes()
	arrayBytes := min(4*llc, 256<<20)
	if rc.cfg.quick {
		arrayBytes = 16 << 20
	}
	out["proc.memcpy_gb_s"] = memcpyGBs(arrayBytes)
	fmt.Fprintf(os.Stderr, "memcpy: two arrays of %d MiB each, last-level cache %d MiB\n", arrayBytes>>20, llc>>20)

	out["proc.machine_speed"] = median(append(plain.speeds, traced.speeds...))

	perOp := func(r *recorder) float64 { return ratio(r.busy().Seconds(), float64(len(r.samples))) }
	out["trace.overhead_ratio"] = ratio(perOp(traced), perOp(plain))
	out["trace.unattributed_share"] = tr.unattributedShare()

	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{Value: out[d.Name], Unit: d.Unit}
	}
	if err := tr.write(filepath.Join(rc.outDir, "trace-"+rc.cfg.workload+".json")); err != nil {
		fmt.Fprintln(os.Stderr, "writing spans:", err)
	}
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.failures = append(plain.failures, traced.failures...)
	return traced
}

// spanMetrics derives the per-layer metrics that are plain functions of
// the spans and of the replays' exact counts.
func spanMetrics(out map[string]float64, tr *tracer, c *layerCounts) {
	// share is what is left of a stage once the inner stages replayed on
	// their own are taken out. It can come out negative: the exported
	// per-block Predict3D and Reconstruct3D run one block at a time, while
	// inside a batch the kernels run four blocks in lock step, so the parts
	// measured alone can cost more than the whole.
	share := func(whole string, parts ...string) float64 {
		w, _ := tr.total(whole)
		rest := w
		for _, p := range parts {
			d, _ := tr.total(p)
			rest -= d
		}
		return ratio(float64(rest), float64(w))
	}
	out["preprocess.plan_gather_ms"] = tr.perOpMs("preprocess.plan_gather")
	out["preprocess.scatter_ms"] = tr.perOpMs("preprocess.scatter")
	out["preprocess.levels_opst"] = float64(c.levelsOpST)
	out["preprocess.levels_akd"] = float64(c.levelsAKD)
	out["preprocess.levels_gsp"] = float64(c.levelsGSP)

	out["sz.predict_mb_s"] = tr.rate("sz.predict")
	out["sz.encode_blocks_mb_s"] = tr.rate("sz.encode_blocks")
	out["sz.encode_other_share"] = share("sz.encode_blocks", "sz.predict", "huffman.encode")
	out["sz.literal_ratio"] = ratio(float64(c.literals), float64(c.values))
	out["sz.reconstruct_mb_s"] = tr.rate("sz.reconstruct")
	out["sz.decode_blocks_mb_s"] = tr.rate("sz.decode_blocks")
	out["sz.delta_decode_mb_s"] = tr.rate("sz.delta_decode")
	out["sz.entropy_decode_ms"] = tr.perOpMs("sz.entropy_decode")
	out["sz.deflate_share"] = share("sz.entropy_decode", "huffman.decode")
	out["sz.decode_other_share"] = share("sz.decode_blocks", "sz.entropy_decode", "sz.reconstruct")

	out["huffman.encode_mb_s"] = tr.rate("huffman.encode")
	out["huffman.decode_mb_s"] = tr.rate("huffman.decode")
	out["huffman.bits_per_symbol"] = ratio(8*float64(c.huffmanBytes), float64(c.symbols))

	for _, dir := range []string{"compress", "decompress"} {
		multi, single := tr.rate("core."+dir), tr.rate("core."+dir+"_w1")
		out["core."+dir+"_mb_s"], out["core."+dir+"_w1_mb_s"] = multi, single
		out["core."+dir+"_scaling"] = ratio(multi, single*float64(runtime.GOMAXPROCS(0)))
	}

	// AddDataset with one worker minus the one-shot codec with one worker
	// on the same snapshot: what the container costs on top of the codec.
	byOp := map[int]float64{}
	for _, s := range tr.named("op.add_dataset") {
		byOp[s.Op] += ms(s.dur())
	}
	for _, s := range tr.named("core.compress_w1") {
		byOp[s.Op] -= ms(s.dur())
	}
	var selfs []float64
	for _, v := range byOp {
		selfs = append(selfs, v)
	}
	out["archive.write_self_ms"] = median(selfs)
	if _, ok := out["archive.commit_ms"]; !ok {
		out["archive.commit_ms"] = tr.medianMs("archive.commit")
	}
	out["archive.open_ms"] = tr.medianMs("archive.open")
	out["archive.crc_ms"] = tr.perOpMs("archive.crc")
	out["archive.decode_batch_ms"] = tr.medianMs("archive.decode_batch")
	out["archive.frames_per_op"] = ratio(float64(c.framesNeeded), float64(c.readOps))

	out["server.level_inproc_ms"] = tr.medianMs("server.level_inproc")
	out["server.region_inproc_ms"] = tr.medianMs("server.region_inproc")
	var inproc, assembled float64
	for _, name := range []string{"server.level_inproc", "server.region_inproc", "server.snapshot_inproc"} {
		d, b := tr.total(name)
		inproc, assembled = inproc+d.Seconds(), assembled+float64(b)
	}
	out["server.assemble_mb_s"] = ratio(assembled/1e6, inproc)
	var gets, inprocs []float64
	for _, s := range tr.spans {
		switch {
		case s.Name == "op.get":
			gets = append(gets, ms(s.dur()))
		case strings.HasSuffix(s.Name, "_inproc"):
			inprocs = append(inprocs, ms(s.dur()))
		}
	}
	out["server.http_self_ms"] = median(gets) - median(inprocs)
	out["remote.readat_p50_ms"] = tr.medianMs("remote.readat")
}
