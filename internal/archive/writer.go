package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/fanout"
	"repro/internal/grid"
	"repro/internal/sz"
)

// frameEncoder is the per-goroutine state of the encode path, pooled
// process-wide so steady-state archive writes allocate nothing per frame
// but the frame: a warm sz encoder (code streams, recon slab, Huffman
// tables, DEFLATE staging) and the block scratch a batch is gathered
// into. The read side's counterpart is frameDecoder (reader.go).
type frameEncoder struct {
	enc sz.Encoder[amr.Value]
	blockScratch
}

var frameEncoders = sync.Pool{New: func() any { return new(frameEncoder) }}

// Writer appends members to a TACA archive, streaming frames to the
// underlying io.Writer as they are compressed. Only the unit-block batches
// currently being compressed are held uncompressed in memory (one per
// worker), so archives of arbitrarily long snapshot sequences stream
// through without full materialization.
//
// A Writer is not safe for concurrent use; the parallelism lives inside
// the worker pool AddDataset runs a member's frames through.
type Writer struct {
	// BatchBlocks is the number of unit blocks per frame for subsequently
	// added members; 0 means DefaultBatchBlocks.
	BatchBlocks int

	// Keyframe enables campaign (delta) coding for subsequently added
	// members: when a member's field was already written at identical AMR
	// structure, each batch is predicted both spatially and as residuals
	// against the previous member's reconstruction, and the coding that
	// seals smaller is the frame (sz.Encoder.CompressBlocksEither: frame
	// bytes against frame bytes, the spatial seal given up once it
	// outgrows the temporal frame) — so a delta archive is never larger
	// than its intra counterpart. A fresh keyframe (fully intra
	// member) starts at least every Keyframe members per field, bounding
	// every reference chain a reader must resolve; a chain's depth is
	// counted along the index's Ref links. A level codes against its
	// reference only where the reference member's index entry has its
	// layout (sameLayout). 0 or 1 disables delta coding entirely.
	// Delta mode keeps one reconstructed snapshot per field in memory,
	// relaxing the streaming-memory guarantee by the field's stored cells.
	Keyframe int

	// Deprecated: every archive is written at v4, with a digest of every
	// frame and of the footer; setting this has no effect.
	Checksums bool

	// Deprecated: every archive is written at v4, with a digest of every
	// frame and of the footer; setting this has no effect.
	FooterSum bool

	w       io.Writer
	file    *os.File // non-nil for append-mode writers: enables Commit's fsync ordering
	off     int64    // bytes emitted so far == next frame's offset
	members []Member
	closed  bool

	// prev holds, per field, the reconstruction of the newest sealed
	// member — the reference candidate for the next member of that field.
	// tail, set by OpenAppend, lazily primes prev from the committed
	// archive so delta chains continue across append generations.
	prev map[string]*fieldRecon
	tail *Reader

	committed uint64 // footer generations written so far (== next trailer's generation)
	dirty     bool   // members sealed since the last Commit

	// recs holds the footer records of members [0, recN), after countRoom
	// bytes kept free for the member count: a commit codes only the members
	// sealed since the one before (see footer).
	recs []byte
	recN int

	gatheredCells atomic.Int64 // cells currently gathered, pre-compression
	peakGathered  atomic.Int64
}

// fieldRecon is the retained reconstruction of one member, the temporal
// reference for the next member of the same field: per level, the
// reconstructed occupied blocks in row-major mask order. Everything else
// about the member — each level's layout, its delta links, its chain
// depth — is read from its entry in Writer.members.
type fieldRecon struct {
	index  int // member index the reconstruction belongs to
	levels [][]*grid.Grid3[amr.Value]
}

// Stats reports what a Writer has done so far.
type Stats struct {
	Members      int
	BytesWritten int64
	// PeakGatheredValues is the high-water mark of uncompressed cells the
	// writer's pipeline held at once — the streaming-memory guarantee made
	// observable (at most workers × BatchBlocks × UnitBlock³).
	PeakGatheredValues int64
}

// NewWriter writes the archive header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	hdr := append(headerMagic[:], Version)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("archive: writing header: %w", err)
	}
	return &Writer{w: w, off: headerLen}, nil
}

// Retained returns what campaign mode holds in memory anyway: for the
// newest sealed member of each field, by member index and then level, the
// reconstructed occupied unit blocks in row-major mask order — blocks
// [BatchSpan(b)) of a level are, value for value, what a Reader's
// DecodeBatch(mi, li, b) decodes from the frames; the layout they follow
// is the member's index entry. The map is the caller's; the per-level
// slices and the blocks are shared with the writer, which never writes
// them once the member is sealed, and the caller must not write them
// either. Nil when nothing is retained
// (Keyframe < 2 and no delta member written).
func (w *Writer) Retained() map[int][][]*grid.Grid3[amr.Value] {
	var out map[int][][]*grid.Grid3[amr.Value]
	for _, fr := range w.prev {
		if fr == nil {
			continue
		}
		if out == nil {
			out = make(map[int][][]*grid.Grid3[amr.Value], len(w.prev))
		}
		out[fr.index] = fr.levels
	}
	return out
}

// View returns a Reader over the generation just committed, reading frames
// through src (the file the writer appends to, or any copy of its bytes):
// field for field what Open parses from those bytes, built from the index
// the writer holds instead of from the footer it has just written. It
// needs a committed writer with nothing sealed since — call it after
// Commit or OpenAppend. The view stays valid while the writer goes on: its
// member slice is its own, and sealed members are never written again.
// On a legacy archive OpenAppend has opened, the view is already the v4
// index the next commit writes, digests backfilled.
func (w *Writer) View(src io.ReaderAt) (*Reader, error) {
	if w.committed == 0 || w.dirty {
		return nil, fmt.Errorf("archive: View needs a committed writer with no member sealed since")
	}
	return &Reader{r: src, size: w.off, gen: w.committed - 1, ver: currentTrailer.ver, members: slices.Clone(w.members)}, nil
}

// Stats returns the writer's progress counters.
func (w *Writer) Stats() Stats {
	return Stats{
		Members:            len(w.members),
		BytesWritten:       w.off,
		PeakGatheredValues: w.peakGathered.Load(),
	}
}

// AddDataset compresses a whole snapshot as one member and seals it. The
// member name is ds.Name and the field ds.Field; its levels are written
// fine to coarse, as ds lists them, through one worker pool (addLevels). A
// member that fails is not indexed and the writer stays usable for the
// next one: the frames it already streamed out stay in the file as dead
// bytes, never referenced by a footer, so they cost space, not
// correctness.
func (w *Writer) AddDataset(ds *amr.Dataset, cfg codec.Config) error {
	if w.closed {
		return fmt.Errorf("archive: writer is closed")
	}
	if ds.Ratio < 2 {
		return fmt.Errorf("archive: member %q has refinement ratio %d < 2", ds.Name, ds.Ratio)
	}
	if len(ds.Levels) == 0 {
		return fmt.Errorf("archive: member %q has no levels", ds.Name)
	}
	cfg = cfg.WithDefaults()
	mw := &memberWriter{
		w:   w,
		cfg: cfg,
		member: Member{
			Name:        ds.Name,
			Field:       ds.Field,
			Ratio:       ds.Ratio,
			ErrorBound:  cfg.ErrorBound,
			Mode:        cfg.Mode,
			QuantBits:   cfg.QuantBits,
			LevelScales: append([]float64(nil), cfg.LevelScales...),
			Ref:         -1,
		},
	}
	if w.Keyframe > 1 {
		mw.capturing = true
		fr, err := w.primed(ds.Field)
		if err != nil {
			return err
		}
		// Chains are cut BEFORE they would reach Keyframe members: a
		// reference at depth Keyframe−1 forces this member intra.
		if fr != nil && w.chain(fr.index)+1 < w.Keyframe {
			mw.ref = fr
		}
	}
	if err := mw.addLevels(ds.Levels); err != nil {
		return err
	}
	mw.seal()
	return nil
}

// chain returns the delta-chain depth of member mi, the number of Ref
// links from it to a keyframe (0 for a keyframe). Chains this writer
// builds are cut before Keyframe links, so it takes at most Keyframe steps.
func (w *Writer) chain(mi int) (n int) {
	for ; w.members[mi].Ref >= 0; n++ {
		mi = w.members[mi].Ref
	}
	return n
}

// primed returns the reference candidate for field: the reconstruction
// of the newest sealed member of that field, decoding it from the
// appended-to archive (through any delta chain) on first use. It returns
// nil when the field has never been written.
func (w *Writer) primed(field string) (*fieldRecon, error) {
	if fr, ok := w.prev[field]; ok {
		return fr, nil
	}
	if w.prev == nil {
		w.prev = make(map[string]*fieldRecon)
	}
	if w.tail == nil {
		return nil, nil
	}
	tm := w.tail.Members()
	mi := -1
	for i := len(tm) - 1; i >= 0; i-- {
		if tm[i].Field == field {
			mi = i
			break
		}
	}
	if mi < 0 {
		w.prev[field] = nil
		return nil, nil
	}
	fr := &fieldRecon{index: mi, levels: make([][]*grid.Grid3[amr.Value], len(tm[mi].Levels))}
	for li := range fr.levels {
		idx := &tm[mi].Levels[li]
		fr.levels[li] = make([]*grid.Grid3[amr.Value], 0, idx.occupied)
		for b := range idx.Batches {
			blocks, err := w.tail.DecodeBatch(mi, li, b)
			if err != nil {
				return nil, fmt.Errorf("archive: priming delta reference for field %q: %w", field, err)
			}
			fr.levels[li] = append(fr.levels[li], blocks...)
		}
	}
	w.prev[field] = fr
	return fr, nil
}

// memberWriter writes the levels of one member for AddDataset.
type memberWriter struct {
	w      *Writer
	cfg    codec.Config
	member Member

	// Campaign-mode state: ref is the reference reconstruction delta
	// batches code against (nil → all intra); capturing records this
	// member's own reconstruction level by level into capture, making it
	// the next member's reference candidate.
	ref       *fieldRecon
	capturing bool
	capture   [][]*grid.Grid3[amr.Value]
}

// levelWrite is one level of a member on its way out: the index entry its
// frames are recorded in as they are written, and what they are coded
// from.
type levelWrite struct {
	l     *amr.Level
	li    int
	idx   LevelIndex
	ords  []int      // the occupied block ordinals, row-major
	opts  sz.Options // ErrorBound is resolved before the first frame is coded
	first int        // the member-wide frame number of batch 0

	// Campaign mode: capture receives the level's reconstruction (so the
	// next member can reference it); ref is the reconstruction of the
	// reference level delta batches code against, only set at
	// bit-identical structure.
	capture []*grid.Grid3[amr.Value]
	ref     []*grid.Grid3[amr.Value]
}

// nbatch returns the number of frames of the level.
func (lv *levelWrite) nbatch() int {
	return (len(lv.ords) + lv.idx.BatchBlocks - 1) / lv.idx.BatchBlocks
}

// plan lays out l as level li of the member.
func (mw *memberWriter) plan(lv *levelWrite, li int, l *amr.Level) {
	batchBlocks := mw.w.BatchBlocks
	if batchBlocks <= 0 {
		batchBlocks = DefaultBatchBlocks
	}
	lv.l, lv.li = l, li
	lv.idx = LevelIndex{
		Dims:        l.Grid.Dim,
		UnitBlock:   l.UnitBlock,
		Mask:        l.Mask.Clone(),
		BatchBlocks: batchBlocks,
	}
	lv.ords = l.Mask.OccupiedIndices()
	lv.idx.occupied = len(lv.ords)
	lv.opts.QuantBits = mw.cfg.QuantBits
	if mw.capturing {
		lv.capture = grid.NewBlocks[amr.Value](lv.idx.unitDims(), len(lv.ords))
		mw.capture = append(mw.capture, lv.capture)
	}
	if mw.ref != nil {
		if ref := mw.w.members[mw.ref.index].Levels; li < len(ref) && sameLayout(&ref[li], &lv.idx) {
			lv.ref = mw.ref.levels[li]
		}
	}
}

// encode gathers batch b of lv into the worker's scratch and codes it,
// reporting whether the delta coding won.
func (mw *memberWriter) encode(fe *frameEncoder, lv *levelWrite, b int) ([]byte, bool, error) {
	lo, hi := lv.idx.BatchSpan(b)
	cells := int64(hi-lo) * int64(lv.idx.unitDims().Count())
	cur := mw.w.gatheredCells.Add(cells)
	for {
		peak := mw.w.peakGathered.Load()
		if cur <= peak || mw.w.peakGathered.CompareAndSwap(peak, cur) {
			break
		}
	}
	defer mw.w.gatheredCells.Add(-cells)
	blocks := fe.scratch(lv.idx.unitDims(), hi-lo)
	for k, ord := range lv.ords[lo:hi] {
		bx, by, bz := lv.l.Mask.Dim.Coords(ord)
		lv.l.Grid.CopyRegionTo(lv.l.BlockRegion(bx, by, bz), blocks[k].Data)
	}
	var blob []byte
	var isDelta bool
	var err error
	switch {
	case lv.ref != nil:
		// The retained reconstruction is that of the coding that ships.
		blob, isDelta, _, err = fe.enc.CompressBlocksEither(blocks, lv.ref[lo:hi], lv.opts, lv.capture[lo:hi])
	case lv.capture != nil:
		blob, _, err = fe.enc.CompressBlocksCapture(blocks, lv.opts, lv.capture[lo:hi])
	default:
		blob, _, err = fe.enc.CompressBlocks(blocks, lv.opts)
	}
	if err != nil {
		err = fmt.Errorf("archive: level %d batch %d: %w", lv.li, b, err)
	}
	return blob, isDelta, err
}

// write emits batch b's frame of lv and records its coding in the index:
// a delta frame sets its flag in the level's Delta and links the member to
// its reference. Only addLevels' loop calls it.
func (mw *memberWriter) write(lv *levelWrite, b int, blob []byte, isDelta bool) error {
	if err := mw.w.writeFrame(blob, &lv.idx); err != nil {
		return err
	}
	if isDelta {
		if lv.idx.Delta == nil {
			lv.idx.Delta = make([]bool, lv.nbatch())
		}
		lv.idx.Delta[b] = true
		mw.member.Ref = mw.ref.index
	}
	return nil
}

// addLevels compresses ls, the member's levels, into block-batch frames
// and streams them out in level-then-batch order; a level's index entry
// joins the member once its last frame is written, and a level without
// frames joins in its place. The frames of every level share one pool of
// cfg.Workers frame encoders (each batch is an independent sz stream, so
// frames gather and compress out of order while this goroutine writes
// them in order), with no barrier between levels, and only the frames in
// flight exist uncompressed outside ls itself. No frame reads ls once
// addLevels has returned, on success or on error.
func (mw *memberWriter) addLevels(ls []*amr.Level) error {
	type frame struct {
		lv *levelWrite
		b  int
	}
	lvs := make([]levelWrite, len(ls))
	var frames []frame
	for k, l := range ls {
		lv := &lvs[k]
		mw.plan(lv, k, l)
		lv.first = len(frames)
		for b := range lv.nbatch() {
			frames = append(frames, frame{lv, b})
		}
	}
	workers := max(1, min(codec.ResolveWorkers(mw.cfg.Workers), len(frames)))

	// A Rel level's bound needs the range of all its blocks before its
	// first frame is coded: every frame's span is scanned up front, the
	// levels balanced together, and each level merges its spans in order.
	spans := make([]codec.ValueRange, len(frames))
	if mw.cfg.Mode == sz.Rel {
		fanout.Run(len(frames), workers, func(j int) error {
			f := frames[j]
			lo, hi := f.lv.idx.BatchSpan(f.b)
			spans[j] = codec.BlockRange(f.lv.l, f.lv.ords[lo:hi])
			return nil
		})
	}
	for k := range lvs {
		lv := &lvs[k]
		var r codec.ValueRange
		for _, s := range spans[lv.first : lv.first+lv.nbatch()] {
			r = r.Merge(s)
		}
		lv.opts.ErrorBound = mw.cfg.RangeEB(lv.li, r)
	}

	// This goroutine starts frames as encoders come free and writes them
	// in order as they land. The tokens of active are the member's frame
	// encoders, drawn from frameEncoders once per worker, not once per
	// frame: a frame gathers its batch only while it holds one, so at most
	// workers batches are gathered at once (the streaming-memory
	// guarantee). A frame starts at most window frames past the next one
	// due, so a slow frame at the head of the queue idles nobody until the
	// pool is a full round ahead of it, yet a stalled sink cannot let
	// compressed frames pile up; done has room for all of them, so no
	// frame ever blocks on it. Each frame is its own short goroutine, not
	// a turn of a long-lived worker (which measured +20 % serve_churn
	// p95): a worker that never blocks holds its P for the member's whole
	// length, and in a process that also serves requests (tacd ingest)
	// the scheduler then notices a request whose bytes have arrived only
	// at its 10 ms preemption tick, instead of between two frames.
	type encoded struct {
		blob    []byte
		isDelta bool
		err     error
	}
	window := 2 * workers
	out := make([]encoded, len(frames))
	landed := make([]bool, len(frames)) // out[j] is in; this goroutine's alone
	done := make(chan int, window)
	active := make(chan *frameEncoder, workers)
	for range workers {
		active <- frameEncoders.Get().(*frameEncoder)
	}
	// The only barrier: a frame hands its encoder back last, so taking all
	// of them back waits out every frame still reading ls.
	defer func() {
		for range workers {
			frameEncoders.Put(<-active)
		}
	}()
	joined, next := 0, 0
	for written := 0; ; {
		for ; joined < len(lvs) && lvs[joined].first+lvs[joined].nbatch() <= written; joined++ {
			mw.member.Levels = append(mw.member.Levels, lvs[joined].idx)
		}
		if written == len(frames) {
			return nil
		}
		if landed[written] {
			f, r := frames[written], out[written]
			out[written] = encoded{}
			if r.err == nil {
				r.err = mw.write(f.lv, f.b, r.blob, r.isDelta)
			}
			if r.err != nil {
				return r.err
			}
			written++
			continue
		}
		var take chan *frameEncoder // nil, so never ready, while no frame may start
		if next < len(frames) && next-written < window {
			take = active
		}
		select {
		case j := <-done:
			landed[j] = true
		case fe := <-take:
			j := next
			next++
			go func() {
				f := frames[j]
				out[j].blob, out[j].isDelta, out[j].err = mw.encode(fe, f.lv, f.b)
				done <- j
				active <- fe
			}()
		}
	}
}

// writeFrame emits one batch frame and records it, with its digest, in the
// level index.
func (w *Writer) writeFrame(blob []byte, idx *LevelIndex) error {
	off := w.off
	if err := w.emit(blob); err != nil {
		return fmt.Errorf("archive: writing frame: %w", err)
	}
	idx.Batches = append(idx.Batches, BatchRecord{Offset: off, Length: int64(len(blob))})
	idx.Sums = append(idx.Sums, crc32.Checksum(blob, castagnoli))
	return nil
}

// emit writes p to the sink and counts the bytes that landed, those of a
// failed write too, so that what comes next is indexed where it lands.
func (w *Writer) emit(p []byte) error {
	n, err := w.w.Write(p)
	w.off += int64(n)
	return err
}

// seal adds the member, all of whose levels are written, to the archive
// index.
func (mw *memberWriter) seal() {
	mw.member.Gen = int(mw.w.committed)
	mw.w.members = append(mw.w.members, mw.member)
	if mw.capturing {
		// This member is now the field's reference candidate. A member
		// that shipped no delta batch (Ref −1) is a keyframe: it resets
		// the chain, so the next member may reference it at full depth.
		if mw.w.prev == nil {
			mw.w.prev = make(map[string]*fieldRecon)
		}
		mw.w.prev[mw.member.Field] = &fieldRecon{index: len(mw.w.members) - 1, levels: mw.capture}
	}
	mw.w.dirty = true
}

// Members returns the index as committed-plus-sealed so far (shared, not
// copied — callers must not mutate).
func (w *Writer) Members() []Member { return w.members }

// Generation returns the number of footer generations committed so far:
// 0 before the first Commit/Close, and thereafter one more than the
// generation recorded in the newest trailer.
func (w *Writer) Generation() uint64 { return w.committed }

// Commit makes every member added so far readable: it writes a fresh
// footer over the full index followed by a trailer, and leaves the Writer
// open for more members (which are laid down after the trailer — committed
// bytes are never overwritten). For file-backed writers (OpenAppend) the
// ordering is crash-safe: frames are fsynced before the footer is written
// and the trailer is fsynced before Commit returns, so a crash at any
// byte offset leaves the previous committed generation's footer intact
// and the archive openable. The footer is extended, not coded again: a
// commit codes the records of the members sealed since the last one (see
// footer), so what it costs does not grow with the archive.
//
// Every commit writes the v4 footer — delta links, and a CRC32C digest of
// every frame — under the TACAEND5 trailer, which digests the footer
// itself. Appending to a legacy (v1–v3) archive upgrades it: the first
// OpenAppend reads and decodes every frame written without a digest once,
// a tacd -ingest registration included, and the first commit seals the
// whole index at v4.
func (w *Writer) Commit() error {
	if w.closed {
		return fmt.Errorf("archive: writer is closed")
	}
	footer, err := w.footer()
	if err != nil {
		return err
	}
	if w.file != nil {
		// Frames must be durable before any trailer that indexes them.
		if err := w.file.Sync(); err != nil {
			return fmt.Errorf("archive: syncing frames: %w", err)
		}
	}
	if err := w.emit(footer); err != nil {
		return fmt.Errorf("archive: writing footer: %w", err)
	}
	trailer := appendTrailer(nil, currentTrailer, footer, w.committed)
	if err := w.emit(trailer); err != nil {
		return fmt.Errorf("archive: writing trailer: %w", err)
	}
	if w.file != nil {
		// The commit point: once the trailer bytes are durable the new
		// generation wins; until then the previous one does.
		if err := w.file.Sync(); err != nil {
			return fmt.Errorf("archive: syncing trailer: %w", err)
		}
	}
	w.committed++
	w.dirty = false
	return nil
}

// countRoom is the space recs keeps ahead of the first record for the
// member count varint, which changes with every commit.
const countRoom = binary.MaxVarintLen64

// footer returns the footer over every sealed member — the member count,
// then every member's record, byte for byte what coding them all from
// scratch gives — coding only the members no earlier call has: a record
// depends on its member alone, and a sealed member never changes. The
// bytes are valid until the next call.
func (w *Writer) footer() ([]byte, error) {
	if w.recs == nil {
		w.recs = make([]byte, countRoom)
	}
	for ; w.recN < len(w.members); w.recN++ {
		recs, err := appendMemberRecord(w.recs, w.recN, &w.members[w.recN])
		if err != nil {
			return nil, err
		}
		w.recs = recs
	}
	var count [countRoom]byte
	n := binary.PutUvarint(count[:], uint64(len(w.members)))
	copy(w.recs[countRoom-n:], count[:n])
	return w.recs[countRoom-n:], nil
}

// Close commits any members added since the last Commit (or the whole
// archive, if never committed) and seals the Writer against further use.
// The underlying io.Writer / file is not closed.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if w.dirty || w.committed == 0 {
		if err := w.Commit(); err != nil {
			return err
		}
	}
	w.closed = true
	return nil
}
