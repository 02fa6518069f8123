package archive

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// OpenAppend re-opens an existing TACA file for appending. It parses the
// newest committed footer (recovering — and truncating — a torn tail left
// by a crashed append first), positions f at the end of that generation,
// and returns a Writer already holding the committed member index: new
// members stream through the usual AddDataset pipeline after the old
// trailer, and Commit/Close seal them under a fresh generation-stamped v4
// footer with crash-safe fsync ordering. Committed bytes are never
// overwritten, so concurrent Readers opened on any earlier generation stay
// valid throughout.
//
// A legacy archive is upgraded on the way: every frame its footer holds
// no digest for is decoded, as ScrubMember audits a digest-less archive,
// and then digested, so the first commit certifies only frames that
// decode. A frame that fails is ErrCorrupt naming its member, level and
// batch, and the file is left untouched. A flip the codec happens to
// tolerate still decodes, and is certified with the rest.
//
// f must be open for both reading and writing; the Writer does not close
// it.
func OpenAppend(f *os.File) (*Writer, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// Open serves the newest committed generation, which ends before size
	// when a crashed append left a torn tail.
	rd, err := Open(f, st.Size())
	if err != nil {
		return nil, err
	}
	if err := rd.backfillSums(); err != nil {
		return nil, err
	}
	if rd.size < st.Size() {
		// Cut the wreckage off so the next append starts at a clean
		// boundary.
		if err := f.Truncate(rd.size); err != nil {
			return nil, fmt.Errorf("archive: truncating torn tail at %d: %w", rd.size, err)
		}
	}
	if _, err := f.Seek(rd.size, io.SeekStart); err != nil {
		return nil, fmt.Errorf("archive: seeking to append position: %w", err)
	}
	return &Writer{
		w:         f,
		file:      f,
		off:       rd.size,
		members:   rd.members,
		committed: rd.gen + 1,
		// The committed tail doubles as the delta-reference source: if the
		// appender enables Keyframe, the first member of each field primes
		// its reference by decoding the field's newest committed member.
		tail: rd,
	}, nil
}

// backfillSums digests every frame of a legacy index that has none,
// decoding it first: a frame the codec rejects is reported, not
// certified. It runs before anything else holds the index, and members are
// visited in order, so a delta frame's references are verified against
// their new digests as its chain is decoded.
func (r *Reader) backfillSums() error {
	fd := frameDecoders.Get().(*frameDecoder)
	defer frameDecoders.Put(fd)
	for mi := range r.members {
		for li := range r.members[mi].Levels {
			idx := &r.members[mi].Levels[li]
			if idx.Sums != nil {
				continue
			}
			sums := make([]uint32, len(idx.Batches))
			for b := range idx.Batches {
				blocks := fd.scratch(idx.unitDims(), idx.blockCount(b))
				if err := r.decodeChain(fd, r.r, blocks, mi, li, b); err != nil {
					return fmt.Errorf("archive: upgrading to v4: %w", err)
				}
				// The chain's last frame read is batch b itself.
				sums[b] = crc32.Checksum(fd.frame, castagnoli)
			}
			idx.Sums = sums
		}
	}
	return nil
}

// OpenAppendFile opens the TACA file at path read-write for appending.
// Closing the returned file commits nothing by itself — seal appended
// members with Writer.Commit or Writer.Close first.
func OpenAppendFile(path string) (*Writer, *os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	w, err := OpenAppend(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return w, f, nil
}
