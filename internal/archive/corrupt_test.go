package archive

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
)

// flipExtract opens the damaged archive bytes and runs every extraction
// path, returning the first error encountered (nil when the damage was
// harmless, e.g. a flipped metadata float).
func flipExtract(blob []byte) error {
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return err
	}
	for mi := range r.Members() {
		if _, err := r.Extract(mi); err != nil {
			return err
		}
		for li := range r.Members()[mi].Levels {
			if _, err := r.ExtractLevel(mi, li); err != nil {
				return err
			}
		}
	}
	return nil
}

// assertClean fails if err is a raw io error with no archive context —
// the regression this test pins: a damaged file must yield an error that
// says where in the archive the damage bit, not a bare "EOF".
func assertClean(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		return
	}
	msg := err.Error()
	if msg == io.EOF.Error() || msg == io.ErrUnexpectedEOF.Error() {
		t.Fatalf("%s: raw io error with no context: %v", what, err)
	}
	if !strings.Contains(msg, "archive") && !strings.Contains(msg, "sz:") {
		t.Fatalf("%s: error carries no archive context: %v", what, err)
	}
}

// TestCorruptIndexCleanErrors bit-flips its way across the footer index
// and the trailer of legacy archives, whose footers carry no digest, so
// the flips reach the index decoder: every damaged archive must either
// still extract (metadata-only damage) or fail with a contextful,
// ErrCorrupt-style error — never a raw io error.
func TestCorruptIndexCleanErrors(t *testing.T) {
	for _, name := range []string{"legacy_v1_appended.hex", "legacy_v2.hex"} {
		blob := fixture(t, name)
		k := trailerByMagic([8]byte(blob[len(blob)-8:]))
		flen, _, _ := parseTrailer(k, blob[len(blob)-int(k.size()):])
		footerStart := len(blob) - int(k.size()) - int(flen)

		// Flip one bit in every footer byte (step 3 keeps the test fast
		// while still covering every varint field class), plus the whole
		// trailer.
		for off := footerStart; off < len(blob); off += 3 {
			damaged := append([]byte(nil), blob...)
			damaged[off] ^= 0x10
			err := flipExtract(damaged)
			assertClean(t, err, name+": bit flip at offset "+strconv.Itoa(off))
		}
	}
}

// TestTruncatedArchiveCleanErrors cuts the file at several points; Open
// must always say the archive is corrupt or truncated, with context.
func TestTruncatedArchiveCleanErrors(t *testing.T) {
	snaps := testSnapshots(t)
	blob := buildArchive(t, snaps[:1], codec.Config{ErrorBound: testEB}, 8)
	for _, frac := range []float64{0.15, 0.5, 0.9, 0.999} {
		cut := blob[:int(float64(len(blob))*frac)]
		_, err := Open(bytes.NewReader(cut), int64(len(cut)))
		if err == nil {
			t.Fatalf("Open accepted an archive truncated to %d/%d bytes", len(cut), len(blob))
		}
		assertClean(t, err, "truncation")
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation error is not ErrCorrupt: %v", err)
		}
	}
}

// TestFrameDamageIsErrCorrupt flips bits inside the data section (the
// frames) of a legacy archive without digests and asserts the decoder's
// failures are tagged ErrCorrupt with member/level/batch context. There,
// frame payload damage may also decode to different values without
// erroring (sz streams are not checksummed); only actual errors are
// inspected.
func TestFrameDamageIsErrCorrupt(t *testing.T) {
	blob := fixture(t, "legacy_v1.hex")
	sawErr := false
	for off := headerLen; off < headerLen+256 && off < len(blob); off += 5 {
		damaged := append([]byte(nil), blob...)
		damaged[off] ^= 0x01
		err := flipExtract(damaged)
		if err == nil {
			continue
		}
		sawErr = true
		assertClean(t, err, "frame flip at offset "+strconv.Itoa(off))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("frame damage error is not ErrCorrupt: %v", err)
		}
		if !strings.Contains(err.Error(), "batch") && !strings.Contains(err.Error(), "member") {
			t.Fatalf("frame damage error names no member/batch: %v", err)
		}
	}
	if !sawErr {
		t.Skip("no frame flip produced an error on this payload")
	}
}

// TestDeltaCorruptionBlastRadius bit-flips one frame of a checksummed
// campaign archive and maps the damage: every member whose reference
// chain passes through the damaged frame must fail with ErrCorrupt —
// never reconstruct from a poisoned reference — and every other member
// must extract byte-identical to the clean archive.
func TestDeltaCorruptionBlastRadius(t *testing.T) {
	const keyframe = 3
	snaps := testCampaign(t, 6)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 16
	w.Keyframe = keyframe
	for _, ds := range snaps {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	clean, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	// Member layout at keyframe 3: 0 (key), 1→0, 2→1, 3 (key), 4→3, 5→4.
	for i, wantRef := range []int{-1, 0, 1, -1, 3, 4} {
		if got := clean.Members()[i].Ref; got != wantRef {
			t.Fatalf("member %d references %d, want %d — campaign layout changed under the test", i, got, wantRef)
		}
	}
	want := make([]*amr.Dataset, len(snaps))
	for i := range snaps {
		if want[i], err = clean.Extract(i); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		damage  int   // member whose frame gets the flip
		poisons []int // members that must fail (the chain closure)
	}{
		{"keyframe", 0, []int{0, 1, 2}},
		{"mid-chain delta", 4, []int{4, 5}},
		{"chain tail", 2, []int{2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := clean.Members()[tc.damage].Levels[0].Batches[0]
			damaged := append([]byte(nil), blob...)
			damaged[rec.Offset+rec.Length/2] ^= 0x20
			dr, err := Open(bytes.NewReader(damaged), int64(len(damaged)))
			if err != nil {
				t.Fatal(err)
			}
			poisoned := make(map[int]bool, len(tc.poisons))
			for _, mi := range tc.poisons {
				poisoned[mi] = true
			}
			for mi := range snaps {
				ds, err := dr.Extract(mi)
				if poisoned[mi] {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("member %d depends on damaged member %d but extracted (err=%v)", mi, tc.damage, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("member %d does not depend on damaged member %d but failed: %v", mi, tc.damage, err)
				}
				for li := range ds.Levels {
					if !slices.Equal(ds.Levels[li].Grid.Data, want[mi].Levels[li].Grid.Data) {
						t.Fatalf("member %d level %d differs from the clean extraction", mi, li)
					}
				}
			}
		})
	}
}

// TestReadAtFailureHasContext serves the archive through a ReaderAt that
// fails after the index is parsed, simulating disk trouble mid-extract:
// the io error must surface wrapped, not bare.
func TestReadAtFailureHasContext(t *testing.T) {
	snaps := testSnapshots(t)
	blob := buildArchive(t, snaps[:1], codec.Config{ErrorBound: testEB}, 8)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	// Swap the backing reader for one that truncates frame reads.
	r.r = &truncatingReaderAt{r: bytes.NewReader(blob), limit: headerLen + 10}
	_, err = r.Extract(0)
	if err == nil {
		t.Fatal("Extract succeeded through a failing ReaderAt")
	}
	assertClean(t, err, "failing ReaderAt")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAt failure not tagged ErrCorrupt: %v", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("underlying io error not preserved in the chain: %v", err)
	}
}

// truncatingReaderAt yields EOF for any read past limit.
type truncatingReaderAt struct {
	r     io.ReaderAt
	limit int64
}

func (tr *truncatingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= tr.limit {
		return 0, io.EOF
	}
	if off+int64(len(p)) > tr.limit {
		n, _ := tr.r.ReadAt(p[:tr.limit-off], off)
		return n, io.ErrUnexpectedEOF
	}
	return tr.r.ReadAt(p, off)
}
