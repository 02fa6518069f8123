package archive

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// OpenAppend re-opens an existing TACA file for appending. It parses the
// newest committed footer (recovering — and truncating — a torn tail left
// by a crashed append first), positions f at the end of that generation,
// and returns a Writer already holding the committed member index: new
// members stream through the usual BeginMember/AddDataset pipeline after
// the old trailer, and Commit/Close seal them under a fresh
// generation-stamped footer with crash-safe fsync ordering. Committed
// bytes are never overwritten, so concurrent Readers opened on any
// earlier generation stay valid throughout.
//
// f must be open for both reading and writing; the Writer does not close
// it.
func OpenAppend(f *os.File) (*Writer, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	rd, err := openAt(f, size)
	if err != nil && errors.Is(err, ErrCorrupt) {
		// Torn tail from a crashed append: fall back to the newest
		// committed generation and cut the wreckage off so the next
		// append starts at a clean boundary.
		var end int64
		if rd2, e, rerr := recoverScan(f, size); rerr == nil {
			rd, end, err = rd2, e, nil
			if terr := f.Truncate(end); terr != nil {
				return nil, fmt.Errorf("archive: truncating torn tail at %d: %w", end, terr)
			}
		}
	}
	if err != nil {
		return nil, err
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
		// A checksummed tail keeps its digests: new frames are digested as
		// they stream out instead of being read back at Commit. A v4 tail
		// likewise keeps its footer digest on every later commit.
		Checksums: rd.Checksummed(),
		FooterSum: rd.FooterChecksummed(),
		footerVer: rd.ver,
		// The committed tail doubles as the delta-reference source: if the
		// appender enables Keyframe, the first member of each field primes
		// its reference by decoding the field's newest committed member.
		tail: rd,
	}, nil
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
