package archive

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/amr"
	"repro/internal/fanout"
	"repro/internal/grid"
	"repro/internal/sz"
)

// ErrCorrupt tags every failure caused by a damaged or truncated archive
// file: a trailer or index that does not parse, frame bytes the codec
// rejects, a frame whose CRC32C digest does not match the footer's, or
// reads that run off the data section. Callers branch on it with
// errors.Is to distinguish archive damage from usage errors (unknown
// member, bad level index), and every ErrCorrupt-wrapped message carries
// the member/level/batch it was detected in — no raw io error ever
// surfaces bare.
var ErrCorrupt = errors.New("corrupt or truncated archive")

// ErrIO additionally tags ErrCorrupt failures whose proximate cause was
// the io.ReaderAt itself — a failed or short frame read — as opposed to
// bytes that were read intact but do not verify. I/O failures are the
// transient class (a flaky disk, a dropped connection to remote storage):
// the serving layer retries errors.Is(err, ErrIO) with backoff, while
// deterministic corruption counts toward quarantining the member.
var ErrIO = errors.New("read error")

// Reader is a random-access view of a TACA archive. Open parses only the
// footer index; every extraction then reads exactly the frames it needs
// through the io.ReaderAt. A Reader holds no mutable state after Open but a
// counter and each level's block order (LevelIndex.Ords), which is computed
// on first use, idempotent and race-free (sync.OnceValue), so any number of
// goroutines may extract concurrently.
type Reader struct {
	// Workers bounds the per-extraction decode pool; 0 means GOMAXPROCS,
	// 1 decodes serially.
	Workers int

	r       io.ReaderAt
	size    int64 // end of the generation this Reader parsed, ≤ the file size
	gen     uint64
	ver     int // footer version: ≥ 3 digests every frame, 4 digests the footer itself in the trailer
	members []Member

	// Tests and benchmarks: parked counts the frames extractions have parked
	// (levelPlan.place), and levelAlloc, if set, runs before a plan's level
	// is allocated, to hold the allocation while frames park.
	parked     atomic.Int64
	levelAlloc func(*levelPlan)
}

// Checksummed reports whether the archive's footer carries per-frame
// CRC32C digests (format v3 and up, every archive the writer commits):
// every frame read is then verified, and ScrubMember audits without
// decoding. Only legacy v1/v2 archives lack them.
func (r *Reader) Checksummed() bool { return r.ver >= 3 }

// Open reads and parses the archive index from r, which must cover size
// bytes. If the tail of the file is torn — a crash mid-append left a
// partial frame or footer after the last committed generation — Open
// recovers: it scans backward for the newest committed trailer and serves
// that generation, ignoring the torn tail (OpenAppend additionally
// truncates it). An archive whose newest commit is intact always parses
// without any scanning.
func Open(r io.ReaderAt, size int64) (*Reader, error) {
	rd, err := openAt(r, size)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		return rd, err
	}
	// The exact tail is damaged. Every committed generation ends with a
	// trailer; the newest valid one wins.
	if rd, rerr := recoverScan(r, size); rerr == nil {
		return rd, nil
	}
	return nil, err
}

// openAt strictly parses the archive whose newest trailer ends exactly at
// end.
func openAt(r io.ReaderAt, end int64) (*Reader, error) {
	if end < headerLen+minTrailerLen {
		return nil, fmt.Errorf("archive: %d bytes is too short for a TACA archive", end)
	}
	hdr := make([]byte, headerLen)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("archive: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != headerMagic {
		return nil, fmt.Errorf("archive: bad magic %q", hdr[:4])
	}
	if hdr[4] != Version {
		return nil, fmt.Errorf("archive: unsupported version %d", hdr[4])
	}
	magic := make([]byte, 8)
	if _, err := r.ReadAt(magic, end-8); err != nil {
		return nil, fmt.Errorf("archive: reading trailer: %w", err)
	}
	k := trailerByMagic([8]byte(magic))
	if k == nil {
		return nil, fmt.Errorf("archive: %w: bad trailer magic %q", ErrCorrupt, magic)
	}
	tlen, ver := k.size(), k.ver
	if end < headerLen+tlen {
		return nil, fmt.Errorf("archive: %w: %d bytes is too short for a %s trailer", ErrCorrupt, end, magic)
	}
	trailer := make([]byte, tlen)
	if _, err := r.ReadAt(trailer, end-tlen); err != nil {
		return nil, fmt.Errorf("archive: reading trailer: %w", err)
	}
	flen, gen, wantSum := parseTrailer(k, trailer)
	// TACAEND2 only stamps a generation onto the v1 layout, whose
	// generation 0 is written as TACAEND1; the later layouts are legal there.
	if k.gen && gen == 0 && ver < 2 {
		return nil, fmt.Errorf("archive: %w: generation trailer claims generation 0", ErrCorrupt)
	}
	if flen > uint64(end-headerLen-tlen) {
		return nil, fmt.Errorf("archive: %w: footer length %d exceeds file size %d", ErrCorrupt, flen, end)
	}
	footer := make([]byte, flen)
	if _, err := r.ReadAt(footer, end-tlen-int64(flen)); err != nil {
		return nil, fmt.Errorf("archive: %w: reading footer: %w", ErrCorrupt, err)
	}
	if k.digest {
		// Verify the footer digest before trusting a single index varint,
		// so a flip anywhere in the index — or in the words that locate
		// it — is rejected here, and Open falls back to the previous
		// committed generation.
		if got := footerDigest(footer, trailer[:16]); got != wantSum {
			return nil, fmt.Errorf("archive: %w: footer digest %08x, trailer records %08x", ErrCorrupt, got, wantSum)
		}
	}
	members, err := decodeFooter(footer, ver)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	dataEnd := end - tlen - int64(flen)
	for mi := range members {
		for li := range members[mi].Levels {
			for _, b := range members[mi].Levels[li].Batches {
				if b.Offset < headerLen || b.Length > dataEnd-b.Offset {
					return nil, fmt.Errorf("archive: %w: member %d level %d frame [%d,%d) outside data section", ErrCorrupt, mi, li, b.Offset, b.Offset+b.Length)
				}
			}
		}
	}
	return &Reader{r: r, size: end, gen: gen, ver: ver, members: members}, nil
}

// recoverScan searches backward from size for the newest end-of-trailer
// position whose generation parses completely, returning its Reader, whose
// size is that position. The scan is the crash-recovery slow path: it only
// runs when the trailer at EOF is torn, and the previous generation's
// trailer — left intact because append never overwrites committed bytes —
// is normally found within the first chunk.
func recoverScan(r io.ReaderAt, size int64) (*Reader, error) {
	const chunk = 64 << 10
	// Candidate ends strictly before size: size itself was already tried.
	for hi := size - 1; hi > headerLen; hi -= chunk {
		lo := hi - chunk
		if lo < headerLen {
			lo = headerLen
		}
		// Overlap by 7 bytes so a magic straddling the chunk boundary is
		// still seen by exactly one window.
		winEnd := hi + 7
		if winEnd > size {
			winEnd = size
		}
		win := make([]byte, winEnd-lo)
		if n, err := r.ReadAt(win, lo); err != nil && err != io.EOF {
			return nil, fmt.Errorf("archive: %w: recovery scan read: %w", ErrCorrupt, err)
		} else if int64(n) < winEnd-lo {
			win = win[:n]
		}
		for i := len(win) - 8; i >= 0; i-- {
			if win[i] != 'T' {
				continue
			}
			if trailerByMagic([8]byte(win[i:i+8])) == nil {
				continue
			}
			end := lo + int64(i) + 8
			if end >= size || end > hi+8 {
				// First guard: already tried. Second: the magic starts in
				// the overlap tail owned by the next-higher window.
				continue
			}
			if rd, err := openAt(r, end); err == nil {
				return rd, nil
			}
		}
	}
	return nil, fmt.Errorf("archive: %w: no committed generation found", ErrCorrupt)
}

// FileReader is a Reader backed by an opened file.
type FileReader struct {
	*Reader
	f *os.File
}

// Close closes the underlying file.
func (fr *FileReader) Close() error { return fr.f.Close() }

// OpenFile opens a TACA archive from disk.
func OpenFile(path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := Open(f, st.Size())
	if err != nil {
		f.Close()
		// Open's errors already carry the "archive:" prefix; add the path.
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &FileReader{Reader: r, f: f}, nil
}

// Members returns the archive index (shared, not copied — callers must not
// mutate).
func (r *Reader) Members() []Member { return r.members }

// Generation returns the footer generation this Reader parsed: 0 for an
// archive that has never been appended to, k for the k-th committed
// append.
func (r *Reader) Generation() uint64 { return r.gen }

// EndOffset returns the byte offset just past the trailer of the parsed
// generation. It equals the file size unless Open recovered from a torn
// tail, in which case the bytes at [EndOffset, size) are the wreckage of
// an uncommitted append.
func (r *Reader) EndOffset() int64 { return r.size }

// Section returns a reader over the committed bytes of the generation
// this Reader parsed ([0, EndOffset())). The serving tier's raw-bytes
// endpoint reads through it to re-export an archive over HTTP ranges:
// a SectionReader is a ReadSeeker+ReaderAt, which is exactly what
// http.ServeContent wants, and bounding it at EndOffset keeps the
// wreckage of a torn tail — or a generation newer than this view —
// from ever crossing the wire.
func (r *Reader) Section() *io.SectionReader {
	return io.NewSectionReader(r.r, 0, r.size)
}

// TypicalFrameBytes returns the mean stored frame length across the
// archive's batch index, or 0 for an empty archive. Remote readers size
// their read-ahead segments to a few of these so one range request
// covers the neighbouring frames a level sweep touches next.
func (r *Reader) TypicalFrameBytes() int64 {
	var sum, n int64
	for mi := range r.members {
		for li := range r.members[mi].Levels {
			for _, b := range r.members[mi].Levels[li].Batches {
				sum += b.Length
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// Find returns the index of the member with the given name and field, or
// -1. An empty field matches the first member with the name.
func (r *Reader) Find(name, field string) int {
	for i := range r.members {
		if r.members[i].Name == name && (field == "" || r.members[i].Field == field) {
			return i
		}
	}
	return -1
}

// member bounds-checks a member index.
func (r *Reader) member(i int) (*Member, error) {
	if i < 0 || i >= len(r.members) {
		return nil, fmt.Errorf("archive: no member %d (have %d)", i, len(r.members))
	}
	return &r.members[i], nil
}

// frameDecoder is the per-goroutine state of the decode path, pooled
// process-wide so steady-state extraction allocates nothing per frame: a
// warm sz decoder (inflate buffers, code stream, Huffman tables), the
// buffer compressed frames are read into, and block scratch that an
// extraction decodes into and scatters from — its own, or, once it has
// parked that with a frame in it (levelPlan.place), one of blockScratches'.
type frameDecoder struct {
	dec   sz.Decoder[amr.Value]
	frame []byte
	*blockScratch
}

var (
	frameDecoders  = sync.Pool{New: func() any { return &frameDecoder{blockScratch: new(blockScratch)} }}
	blockScratches = sync.Pool{New: func() any { return new(blockScratch) }}
)

// blockScratch is a reusable batch of unit blocks over one slab: what a
// frame decodes into on the read side and is gathered into on the write
// side.
type blockScratch struct {
	slab   []amr.Value
	hdrs   []grid.Grid3[amr.Value]
	blocks []*grid.Grid3[amr.Value]
}

// scratch returns count blocks of dims d laid over the slab, every entry
// non-nil and holding stale values. They are valid until the next scratch
// call.
func (bs *blockScratch) scratch(d grid.Dims, count int) []*grid.Grid3[amr.Value] {
	per := d.Count()
	if cap(bs.slab) < per*count {
		bs.slab = make([]amr.Value, per*count)
	}
	if cap(bs.hdrs) < count {
		bs.hdrs = make([]grid.Grid3[amr.Value], count)
		bs.blocks = make([]*grid.Grid3[amr.Value], count)
	}
	hdrs, blocks := bs.hdrs[:count], bs.blocks[:count]
	for i := range hdrs {
		hdrs[i] = grid.Grid3[amr.Value]{Dim: d, Data: bs.slab[i*per : (i+1)*per : (i+1)*per]}
		blocks[i] = &hdrs[i]
	}
	return blocks
}

// batchIndex bounds-checks a (member, level, batch) coordinate and
// returns the level's index record.
func (r *Reader) batchIndex(mi, li, b int) (*LevelIndex, error) {
	m, err := r.member(mi)
	if err != nil {
		return nil, err
	}
	if li < 0 || li >= len(m.Levels) {
		return nil, fmt.Errorf("archive: member %d has no level %d", mi, li)
	}
	idx := &m.Levels[li]
	if b < 0 || b >= len(idx.Batches) {
		return nil, fmt.Errorf("archive: member %d level %d has no batch %d (have %d)", mi, li, b, len(idx.Batches))
	}
	return idx, nil
}

// unitDims is the shape of every block of the level.
func (li *LevelIndex) unitDims() grid.Dims {
	return grid.Dims{X: li.UnitBlock, Y: li.UnitBlock, Z: li.UnitBlock}
}

// DecodeBatch reads and decodes exactly one block-batch frame: batch b of
// level li of member mi, reference chain included. The returned grids are
// the frame's occupied unit blocks in block order — ordinals
// Ords()[BatchSpan(b)] of the level's index — freshly allocated
// and owned by the caller. This is the frame-granularity extraction hook
// the serving layer builds its block cache on.
func (r *Reader) DecodeBatch(mi, li, b int) ([]*grid.Grid3[amr.Value], error) {
	idx, err := r.batchIndex(mi, li, b)
	if err != nil {
		return nil, err
	}
	fd := frameDecoders.Get().(*frameDecoder)
	defer frameDecoders.Put(fd)
	out := grid.NewBlocks[amr.Value](idx.unitDims(), idx.blockCount(b))
	if err := r.decodeChain(fd, r.r, out, mi, li, b); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeChain decodes batch b of level li of member mi from src into the
// non-nil entries of dst (nil means the caller does not want that block),
// reference chain first and in place: the matching batch of the referenced
// member (structure-identical by footer validation, so batch b covers the
// same blocks) is decoded recursively down to the nearest intra frame, then
// each delta frame applies its residuals to dst with dst as its own
// reference — one set of blocks for the whole chain, and skipped blocks
// skipped at every depth. References point strictly backward, so the
// recursion depth is bounded by the keyframe interval the writer used.
func (r *Reader) decodeChain(fd *frameDecoder, src io.ReaderAt, dst []*grid.Grid3[amr.Value], mi, li, b int) error {
	if !r.members[mi].Levels[li].IsDelta(b) {
		return r.decodeFrame(fd, src, dst, mi, li, b, nil)
	}
	if err := r.decodeChain(fd, src, dst, r.members[mi].Ref, li, b); err != nil {
		return err
	}
	return r.decodeFrame(fd, src, dst, mi, li, b, dst)
}

// frameRun is one run of frames ReadRuns reads: contiguous, of one member.
type frameRun struct {
	mi       int
	off, end int64 // archive byte span
	data     []byte
}

// runSource holds the runs ReadRuns read, sorted by offset, in front of the
// archive's bytes, which it reads anything outside them from.
type runSource struct {
	src  io.ReaderAt
	runs []frameRun
}

func (rs *runSource) ReadAt(p []byte, off int64) (int, error) {
	i := sort.Search(len(rs.runs), func(i int) bool { return rs.runs[i].end > off })
	if i < len(rs.runs) && rs.runs[i].off <= off && off+int64(len(p)) <= rs.runs[i].end {
		return copy(p, rs.runs[i].data[off-rs.runs[i].off:]), nil
	}
	return rs.src.ReadAt(p, off)
}

// ReadRuns is the one read planner of extraction, tacc's and tacd's: it
// reads the frames that decoding batches of level li of member mi reads —
// each batch's frame and its reference chain's, down to the intra frame or
// the first link stop(member, batch) names (nil never stops; the batches'
// own frames are not asked) — with one read(member, p, off) per run of them
// that is contiguous and of one member, and returns the runs in front of
// the archive's bytes. A failed or short read fails with ErrCorrupt and
// ErrIO, naming the run's member and the level. Indices must be in range.
func (r *Reader) ReadRuns(mi, li int, batches []int, stop func(mi, b int) bool, read func(mi int, p []byte, off int64) (int, error)) (io.ReaderAt, error) {
	var runs []frameRun
	for _, b := range batches {
		for m, more := mi, true; more; m = r.members[m].Ref {
			idx := &r.members[m].Levels[li]
			rec := idx.Batches[b]
			runs = append(runs, frameRun{mi: m, off: rec.Offset, end: rec.Offset + rec.Length})
			more = idx.IsDelta(b) && (stop == nil || !stop(r.members[m].Ref, b))
		}
	}
	if len(runs) == 0 {
		return r.r, nil
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].off < runs[j].off })
	merged := runs[:1]
	for _, f := range runs[1:] {
		if last := &merged[len(merged)-1]; f.mi == last.mi && f.off == last.end {
			last.end = f.end
		} else {
			merged = append(merged, f)
		}
	}
	for i := range merged {
		run := &merged[i]
		run.data = make([]byte, run.end-run.off)
		if n, err := read(run.mi, run.data, run.off); err != nil || n < len(run.data) {
			return nil, fmt.Errorf("archive: member %d level %d: %w: %w: reading frames [%d,%d): %w", run.mi, li, ErrCorrupt, ErrIO, run.off, run.end, cmp.Or(err, io.ErrUnexpectedEOF))
		}
	}
	return &runSource{src: r.r, runs: merged}, nil
}

// decodeFrame reads frame b of level li of member mi from src, which holds
// the archive's bytes at their archive offsets, and decodes it into
// the non-nil entries of dst — one per block the index gives the frame,
// each of the level's unit-block dims — given its already-decoded
// reference blocks (nil for an intra frame; dst itself is allowed). The
// frame is decoded as the coding mode the index names, and the decoder
// refuses a payload of the other mode, or of another block count or shape
// than dst: a frame that disagrees with the index is corruption, caught
// before any reconstruction.
func (r *Reader) decodeFrame(fd *frameDecoder, src io.ReaderAt, dst []*grid.Grid3[amr.Value], mi, li, b int, refs []*grid.Grid3[amr.Value]) error {
	idx := &r.members[mi].Levels[li]
	blob, err := readFrame(src, fd.frame[:0], idx, mi, li, b)
	if err != nil {
		return err
	}
	fd.frame = blob
	if idx.IsDelta(b) {
		err = fd.dec.DecompressBlocksDeltaInto(dst, blob, refs)
	} else {
		err = fd.dec.DecompressBlocksInto(dst, blob)
	}
	if err != nil {
		return fmt.Errorf("archive: member %d level %d batch %d: %w: %w", mi, li, b, ErrCorrupt, err)
	}
	return nil
}

// readFrame reads frame b of idx from src into buf's capacity (growing it
// as needed) and, when the footer carries digests, verifies its CRC32C
// before any byte reaches the codec. Read failures are tagged ErrIO (the
// transient class) in addition to ErrCorrupt; digest mismatches are
// ErrCorrupt alone — the bytes arrived, they are simply wrong. mi and li
// only provide error context.
func readFrame(src io.ReaderAt, buf []byte, idx *LevelIndex, mi, li, b int) ([]byte, error) {
	rec := idx.Batches[b]
	blob := slices.Grow(buf[:0], int(rec.Length))[:rec.Length]
	if _, err := src.ReadAt(blob, rec.Offset); err != nil {
		return nil, fmt.Errorf("archive: member %d level %d batch %d: %w: %w: reading frame: %w", mi, li, b, ErrCorrupt, ErrIO, err)
	}
	if idx.Sums != nil {
		if got := crc32.Checksum(blob, castagnoli); got != idx.Sums[b] {
			return nil, fmt.Errorf("archive: member %d level %d batch %d: %w: frame checksum %08x, footer records %08x", mi, li, b, ErrCorrupt, got, idx.Sums[b])
		}
	}
	return blob, nil
}

// ScrubIssue is one damaged frame found by ScrubMember: the member, level, and
// batch it lives in, plus the ErrCorrupt-tagged error describing it, which
// names the frame too.
type ScrubIssue struct {
	Member int
	Level  int
	Batch  int
	Err    error
}

// ScrubMember audits every frame of one member, returning one issue per
// damaged frame (nil means the member is clean). On a checksummed (v3)
// archive each frame is read once and its CRC32C verified — no decoding,
// so a scrub runs at I/O speed; on older archives it falls back to fully
// decoding every batch, which still catches structural damage but not a
// bit flip the codec happens to tolerate. It keeps going after a hit so
// one pass reports the member's full damage map.
func (r *Reader) ScrubMember(mi int) []ScrubIssue { return r.ScrubMemberFrames(mi, nil) }

// ScrubMemberFrames is ScrubMember that also shows seen, from the one read
// the audit makes of it anyway, the header of every frame it found sound
// (sz.PeekBatch: the coding mode, whether the code section is stored).
func (r *Reader) ScrubMemberFrames(mi int, seen func(li, b int, info sz.BatchInfo)) []ScrubIssue {
	m, err := r.member(mi)
	if err != nil {
		return []ScrubIssue{{Member: mi, Err: err}}
	}
	var issues []ScrubIssue
	var buf []byte
	for li := range m.Levels {
		idx := &m.Levels[li]
		for b := range idx.Batches {
			// A frame without a digest is audited by decoding it, which reads
			// it; it is read here as well only for seen's sake.
			var blob []byte
			var err error
			if idx.Sums != nil || seen != nil {
				if blob, err = readFrame(r.r, buf, idx, mi, li, b); err == nil {
					buf = blob
				}
			}
			if err == nil && idx.Sums == nil {
				_, err = r.DecodeBatch(mi, li, b)
			}
			if err != nil {
				issues = append(issues, ScrubIssue{Member: mi, Level: li, Batch: b, Err: err})
				continue
			}
			if seen == nil {
				continue
			}
			if info, err := sz.PeekBatch(blob); err == nil {
				seen(li, b, info)
			}
		}
	}
	return issues
}

// BatchDep reports the dependency of batch b of level li of member mi:
// whether the frame is delta-coded and, if so, the member index its
// reference batch lives in (batch b of the same level — the structures
// are identical by construction). Chain-aware callers (the serving
// layer's cache) use it to decode references through their own storage
// and then apply the residual via DecodeBatchOn.
func (r *Reader) BatchDep(mi, li, b int) (ref int, delta bool, err error) {
	idx, err := r.batchIndex(mi, li, b)
	if err != nil {
		return -1, false, err
	}
	if idx.IsDelta(b) {
		return r.members[mi].Ref, true, nil
	}
	return -1, false, nil
}

// DecodeBatchOn is DecodeBatch for callers that resolve reference chains
// and frame reads themselves: refs must be the decoded blocks of the
// reference batch reported by BatchDep (nil for an intra frame), and the
// frame is read from src, which must hold this Reader's bytes at their
// archive offsets — its Section(), or a view of it that already holds the
// frame. The returned grids are freshly allocated; refs is read only.
func (r *Reader) DecodeBatchOn(src io.ReaderAt, mi, li, b int, refs []*grid.Grid3[amr.Value]) ([]*grid.Grid3[amr.Value], error) {
	idx, err := r.batchIndex(mi, li, b)
	if err != nil {
		return nil, err
	}
	fd := frameDecoders.Get().(*frameDecoder)
	defer frameDecoders.Put(fd)
	out := grid.NewBlocks[amr.Value](idx.unitDims(), idx.blockCount(b))
	if err := r.decodeFrame(fd, src, out, mi, li, b, refs); err != nil {
		return nil, err
	}
	return out, nil
}

// Extract reconstructs a whole member as a dataset.
func (r *Reader) Extract(i int) (*amr.Dataset, error) {
	m, err := r.member(i)
	if err != nil {
		return nil, err
	}
	return r.extractDataset(m, i, nil)
}

// ExtractLevel reconstructs one refinement level of a member. The returned
// level's mask equals the stored occupancy; unmasked cells are zero.
func (r *Reader) ExtractLevel(i, li int) (*amr.Level, error) {
	m, err := r.member(i)
	if err != nil {
		return nil, err
	}
	if li < 0 || li >= len(m.Levels) {
		return nil, fmt.Errorf("archive: member %d has no level %d", i, li)
	}
	levels, err := r.extract(i, li, li+1, nil)
	if err != nil {
		return nil, err
	}
	return levels[0], nil
}

// ExtractRegion reconstructs the part of a member covering roi, a region
// in finest-level cell coordinates. Only unit blocks whose extent
// intersects roi are read and reconstructed; the returned dataset's masks
// mark exactly those blocks, so it is a partial view that does not tile the
// domain (Dataset.Validate will reject it by design).
func (r *Reader) ExtractRegion(i int, roi grid.Region) (*amr.Dataset, error) {
	m, err := r.member(i)
	if err != nil {
		return nil, err
	}
	clipped := roi.Intersect(m.Levels[0].Dims)
	if clipped.Empty() {
		return nil, fmt.Errorf("archive: region %v does not intersect member %d (finest extent %v)", roi, i, m.Levels[0].Dims)
	}
	roi = clipped
	wants := make([]*grid.Mask, len(m.Levels))
	scale := 1
	for li := range m.Levels {
		idx := &m.Levels[li]
		// Scale the finest-cell ROI down to this level's cells (outer
		// bounds round outward), then to unit-block granularity, and
		// intersect with the stored occupancy.
		br := roi.Blocks(scale * idx.UnitBlock)
		want := grid.NewMask(idx.Mask.Dim)
		want.FillRegion(br.Intersect(want.Dim), true)
		want.And(idx.Mask)
		wants[li] = want
		scale *= m.Ratio
	}
	return r.extractDataset(m, i, wants)
}

// extractDataset extracts every level of member mi (see extract).
func (r *Reader) extractDataset(m *Member, mi int, wants []*grid.Mask) (*amr.Dataset, error) {
	levels, err := r.extract(mi, 0, len(m.Levels), wants)
	if err != nil {
		return nil, err
	}
	return &amr.Dataset{Name: m.Name, Field: m.Field, Ratio: m.Ratio, Levels: levels}, nil
}

// levelPlan is one level of an extraction: what to decode, where its
// frames are read from, and the level being assembled.
type levelPlan struct {
	li   int
	idx  *LevelIndex
	want *grid.Mask  // subset of idx.Mask to extract; nil means all of it
	src  io.ReaderAt // the frames the level decodes, read ahead (ReadRuns)

	// The level is allocated inside the decode pool, by the first worker
	// with blocks to scatter into it, and no worker waits for that: clearing
	// a grid of megabytes takes as long as decoding several frames, so a
	// worker that has decoded one meanwhile parks its block scratch here,
	// takes other scratch and claims its next frame, and the allocating
	// worker scatters what was parked and pools the scratch. Who scatters a
	// frame, and when, does not show in the level: its blocks are disjoint
	// regions of the grid, and masks are marked after the fan-out.
	mu       sync.Mutex
	ready    sync.Cond // level has been set; L is &mu
	level    *amr.Level
	claiming bool // a worker is allocating level
	parked   []parkedFrame
}

// parkedFrame is a decoded frame waiting for its level, in the scratch
// taken out of its worker's frameDecoder.
type parkedFrame struct {
	*blockScratch
	batch int
}

// maxParked bounds a plan's parked list, and so the scratch an extraction
// holds beyond one per worker; a worker that finds it full waits for the
// level. Clearing an 8 MB level takes another worker 3–5 frames on
// average, more than 8 one time in twenty (EXPERIMENTS.md, PR 23).
const maxParked = 8

// place scatters batch, decoded into fd's scratch, into the level, or parks
// that scratch and gives fd another.
func (p *levelPlan) place(r *Reader, fd *frameDecoder, batch int) {
	p.mu.Lock()
	for p.level == nil && p.claiming && len(p.parked) >= maxParked {
		p.ready.Wait()
	}
	l := p.level
	if l == nil && p.claiming {
		p.parked = append(p.parked, parkedFrame{fd.blockScratch, batch})
		p.mu.Unlock()
		fd.blockScratch = blockScratches.Get().(*blockScratch)
		r.parked.Add(1)
		return
	}
	p.claiming = true
	p.mu.Unlock()
	var parked []parkedFrame
	if l == nil {
		if r.levelAlloc != nil {
			r.levelAlloc(p)
		}
		l = amr.NewLevel(p.idx.Dims, p.idx.UnitBlock)
		p.mu.Lock()
		p.level, parked, p.parked = l, p.parked, nil
		p.mu.Unlock()
		p.ready.Broadcast()
	}
	p.scatter(l, fd.blocks, batch)
	for _, f := range parked {
		p.scatter(l, f.blocks, f.batch)
		blockScratches.Put(f.blockScratch)
	}
}

// scatter copies the non-nil blocks of batch into l.
func (p *levelPlan) scatter(l *amr.Level, blocks []*grid.Grid3[amr.Value], batch int) {
	blo, bhi := p.idx.BatchSpan(batch)
	for k, ord := range p.idx.Ords()[blo:bhi] {
		if blocks[k] != nil {
			bx, by, bz := p.idx.Mask.Dim.Coords(ord)
			l.Grid.SetRegion(l.BlockRegion(bx, by, bz), blocks[k].Data)
		}
	}
}

// frameJob is one frame an extraction has to decode.
type frameJob struct {
	plan  *levelPlan
	batch int
}

// extract reconstructs levels [lo, hi) of member mi. wants, indexed by
// level, optionally restricts each level to a subset of its occupied
// blocks (nil, or a nil entry, means all). The frames of every level are
// planned before a single frame byte is read — only batches holding a
// wanted block are touched — and read as one ReadAt per run of them
// (ReadRuns), then run through one pool of at most Workers decoders, so a
// small level's frames fill the cores a large level's tail leaves idle.
func (r *Reader) extract(mi, lo, hi int, wants []*grid.Mask) ([]*amr.Level, error) {
	m := &r.members[mi]
	plans := make([]levelPlan, hi-lo)
	var jobs []frameJob
	for k := range plans {
		p := &plans[k]
		p.li, p.idx, p.ready.L = lo+k, &m.Levels[lo+k], &p.mu
		if wants != nil {
			p.want = wants[p.li]
		}
		var batches []int
		for b := range p.idx.Batches {
			blo, bhi := p.idx.BatchSpan(b)
			if p.want == nil || slices.ContainsFunc(p.idx.Ords()[blo:bhi], p.want.AtIndex) {
				jobs = append(jobs, frameJob{plan: p, batch: b})
				batches = append(batches, b)
			}
		}
		var err error
		if p.src, err = r.ReadRuns(mi, p.li, batches, nil, func(_ int, b []byte, off int64) (int, error) { return r.r.ReadAt(b, off) }); err != nil {
			return nil, err
		}
	}

	// Workers claim jobs in plan order. Each job decodes one frame — and
	// its whole reference chain — into pooled block scratch, leaving
	// unwanted blocks out of every stage after the entropy decode, and
	// places the rest in the level.
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err := fanout.Run(len(jobs), workers, func(ji int) error {
		fd := frameDecoders.Get().(*frameDecoder)
		defer frameDecoders.Put(fd)
		p, batch := jobs[ji].plan, jobs[ji].batch
		blo, bhi := p.idx.BatchSpan(batch)
		ords := p.idx.Ords()[blo:bhi]
		blocks := fd.scratch(p.idx.unitDims(), len(ords))
		if p.want != nil {
			for k, ord := range ords {
				if !p.want.AtIndex(ord) {
					blocks[k] = nil
				}
			}
		}
		if err := r.decodeChain(fd, p.src, blocks, mi, p.li, batch); err != nil {
			return err
		}
		p.place(r, fd, batch)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Masks are marked after the fan-out: bits of one packed word are
	// shared between batches, so workers cannot write them concurrently.
	// The extracted blocks of a level are exactly its want mask (callers
	// intersect it with the occupancy), or all occupied ones. A level none
	// of whose frames was wanted is allocated here.
	levels := make([]*amr.Level, len(plans))
	for k := range plans {
		p := &plans[k]
		if p.level == nil {
			p.level = amr.NewLevel(p.idx.Dims, p.idx.UnitBlock)
		}
		levels[k] = p.level
		if p.want == nil {
			levels[k].Mask.CopyFrom(p.idx.Mask)
		} else {
			levels[k].Mask.CopyFrom(p.want)
		}
	}
	return levels, nil
}
