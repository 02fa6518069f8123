package archive

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// RepairStats summarizes one repair pass: how many frames were audited,
// how many were damaged, and how many were re-fetched and respliced.
type RepairStats struct {
	FramesScanned  int   // frames audited by the pre-repair scrub
	FramesDamaged  int   // frames the scrub flagged
	FramesRepaired int   // frames re-fetched, verified, and respliced
	BytesRespliced int64 // total bytes rewritten in place
	Members        []int // member indices that had frames respliced, ascending
}

// Add accumulates o into rs: the counts add up and o's members follow rs's.
func (rs *RepairStats) Add(o RepairStats) {
	rs.FramesScanned += o.FramesScanned
	rs.FramesDamaged += o.FramesDamaged
	rs.FramesRepaired += o.FramesRepaired
	rs.BytesRespliced += o.BytesRespliced
	rs.Members = append(rs.Members, o.Members...)
}

// syncer is the optional durability hook of a repair target: *os.File
// implements it, and RepairMember fsyncs respliced frames through it
// before re-verifying.
type syncer interface{ Sync() error }

// RepairMember heals member mi in place: it scrubs the member, re-fetches
// each damaged frame's bytes from src (a healthy source holding the same
// archive — a replica file or a replica.Multi), verifies the fetched
// bytes against the footer's CRC32C digest when the archive carries one,
// and splices them into dst at the frame's own offset. Frame offsets and
// lengths are fixed by the committed footer, so the splice rewrites
// exactly the damaged spans and never moves a byte; a crash mid-splice
// leaves the frame either old (still damaged, still detectable) or new —
// both re-repairable. dst must be the same storage the Reader reads
// (typically an O_RDWR handle of the archive file); when dst has a
// Sync method the respliced bytes are fsynced before the post-repair
// verification, which re-scrubs the member — on pre-v3 archives with no
// frame digests that decode pass is the only verification of the fetched
// bytes.
//
// A clean member is a no-op (zero FramesRepaired, nil error). Fetch
// failures are tagged ErrIO (the source may heal); a fetched frame that
// fails its digest means the source is damaged too and is tagged
// ErrCorrupt, with the local frame left untouched.
func (r *Reader) RepairMember(mi int, src io.ReaderAt, dst io.WriterAt) (RepairStats, error) {
	var rs RepairStats
	m, err := r.member(mi)
	if err != nil {
		return rs, err
	}
	for li := range m.Levels {
		rs.FramesScanned += len(m.Levels[li].Batches)
	}
	issues := r.ScrubMember(mi)
	rs.FramesDamaged = len(issues)
	if len(issues) == 0 {
		return rs, nil
	}
	for _, is := range issues {
		idx := &m.Levels[is.Level]
		rec := idx.Batches[is.Batch]
		blob := make([]byte, rec.Length)
		if _, err := src.ReadAt(blob, rec.Offset); err != nil {
			return rs, fmt.Errorf("archive: repair member %d level %d batch %d: %w: fetching replica frame: %w", mi, is.Level, is.Batch, ErrIO, err)
		}
		if idx.Sums != nil {
			if got := crc32.Checksum(blob, castagnoli); got != idx.Sums[is.Batch] {
				return rs, fmt.Errorf("archive: repair member %d level %d batch %d: %w: replica frame checksum %08x, footer records %08x — replica damaged too", mi, is.Level, is.Batch, ErrCorrupt, got, idx.Sums[is.Batch])
			}
		}
		if _, err := dst.WriteAt(blob, rec.Offset); err != nil {
			return rs, fmt.Errorf("archive: repair member %d level %d batch %d: splicing frame: %w", mi, is.Level, is.Batch, err)
		}
		rs.FramesRepaired++
		rs.BytesRespliced += rec.Length
	}
	if s, ok := dst.(syncer); ok {
		if err := s.Sync(); err != nil {
			return rs, fmt.Errorf("archive: repair member %d: syncing respliced frames: %w", mi, err)
		}
	}
	if left := r.ScrubMember(mi); len(left) > 0 {
		return rs, fmt.Errorf("archive: member %d still damaged after repair (%v): %w", mi, left[0].Err, ErrCorrupt)
	}
	rs.Members = []int{mi}
	return rs, nil
}

// Repair heals the archive file at path in place: every member is
// scrubbed and any damaged frames are re-fetched from src via
// RepairMember. Members are repaired in index order, so on pre-v3
// archives (whose scrub decodes through delta chains) a damaged
// reference member is healed before the members coded against it.
// Repair stops at the first member it cannot heal; the stats cover
// everything done up to that point.
func Repair(path string, src io.ReaderAt) (RepairStats, error) {
	var total RepairStats
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return total, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return total, err
	}
	r, err := Open(f, st.Size())
	if err != nil {
		return total, fmt.Errorf("%s: %w", path, err)
	}
	for mi := range r.Members() {
		rs, err := r.RepairMember(mi, src, f)
		total.Add(rs)
		if err != nil {
			return total, err
		}
	}
	sort.Ints(total.Members)
	return total, nil
}
