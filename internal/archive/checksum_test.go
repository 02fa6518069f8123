package archive

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
)

// Scrub is ScrubMember over every member of the archive.
func (r *Reader) Scrub() []ScrubIssue {
	var issues []ScrubIssue
	for mi := range r.members {
		issues = append(issues, r.ScrubMember(mi)...)
	}
	return issues
}

// TestChecksumRoundTrip builds the same snapshots with and without
// checksums: the checksummed archive must commit the v3 (TACAEND4)
// format with a digest per frame, keep the data section byte-identical
// to the plain build (digests live only in the footer), and extract the
// same values.
func TestChecksumRoundTrip(t *testing.T) {
	snaps := testSnapshots(t)
	cfg := codec.Config{ErrorBound: testEB}
	plain := buildArchive(t, snaps, cfg, 8)

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 8
	w.Checksums = true
	for _, ds := range snaps {
		if err := w.AddDataset(ds, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sum := buf.Bytes()

	if !bytes.HasSuffix(sum, trailer4Magic[:]) {
		t.Fatalf("checksummed archive does not end with %q", trailer4Magic)
	}
	// The frames themselves must be untouched: digests change only the
	// footer and trailer. The plain archive's data section is everything
	// before its footer.
	var flen uint64
	for i := 7; i >= 0; i-- {
		flen = flen<<8 | uint64(plain[len(plain)-trailerLen+i])
	}
	dataEnd := len(plain) - trailerLen - int(flen)
	if !bytes.Equal(plain[:dataEnd], sum[:dataEnd]) {
		t.Fatal("checksummed archive's data section differs from the plain build")
	}

	r, err := Open(bytes.NewReader(sum), int64(len(sum)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checksummed() {
		t.Fatal("Checksummed() = false on a v3 archive")
	}
	for mi := range r.Members() {
		m := &r.Members()[mi]
		for li := range m.Levels {
			idx := &m.Levels[li]
			if len(idx.Sums) != len(idx.Batches) {
				t.Fatalf("member %d level %d: %d sums for %d batches", mi, li, len(idx.Sums), len(idx.Batches))
			}
		}
		recon, err := r.Extract(mi)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range snaps[mi].Levels {
			if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > testEB {
				t.Fatalf("member %d level %d max err %.4g > bound %.4g", mi, li, worst, testEB)
			}
		}
	}
	if issues := r.Scrub(); len(issues) != 0 {
		t.Fatalf("clean archive scrubbed %d issues: %v", len(issues), issues[0])
	}

	// The plain archive must also scrub clean through the decode
	// fallback, and report itself unchecksummed.
	pr, err := Open(bytes.NewReader(plain), int64(len(plain)))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Checksummed() {
		t.Fatal("Checksummed() = true on a v1 archive")
	}
	if issues := pr.Scrub(); len(issues) != 0 {
		t.Fatalf("clean v1 archive scrubbed %d issues: %v", len(issues), issues[0])
	}
}

// TestChecksumDetectsEveryFrameFlip is the 100%-detection sweep: one bit
// flipped in the middle of EVERY frame of a checksummed archive must be
// caught both by the read path (DecodeBatch → ErrCorrupt) and by Scrub,
// which must name exactly the damaged frame. sz streams themselves are
// not checksummed, so without digests some of these flips would decode
// to silently wrong values (see TestFrameDamageIsErrCorrupt).
func TestChecksumDetectsEveryFrameFlip(t *testing.T) {
	snaps := testSnapshots(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 8
	w.Checksums = true
	for _, ds := range snaps[:2] {
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

	frames := 0
	for mi := range clean.Members() {
		m := &clean.Members()[mi]
		for li := range m.Levels {
			for b, rec := range m.Levels[li].Batches {
				frames++
				damaged := append([]byte(nil), blob...)
				damaged[rec.Offset+rec.Length/2] ^= 0x04

				dr, err := Open(bytes.NewReader(damaged), int64(len(damaged)))
				if err != nil {
					t.Fatalf("frame damage broke Open: %v", err)
				}
				if _, err := dr.DecodeBatch(mi, li, b); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("member %d level %d batch %d: flipped frame decoded without ErrCorrupt (err=%v)", mi, li, b, err)
				} else if errors.Is(err, ErrIO) {
					t.Fatalf("member %d level %d batch %d: checksum mismatch tagged ErrIO: %v", mi, li, b, err)
				}
				issues := dr.Scrub()
				if len(issues) != 1 {
					t.Fatalf("member %d level %d batch %d: scrub found %d issues, want exactly 1", mi, li, b, len(issues))
				}
				is := issues[0]
				if is.Member != mi || is.Level != li || is.Batch != b {
					t.Fatalf("scrub blamed member %d level %d batch %d, damage was %d/%d/%d", is.Member, is.Level, is.Batch, mi, li, b)
				}
				if !strings.Contains(is.String(), "checksum") {
					t.Fatalf("scrub issue does not mention the checksum: %v", is)
				}
			}
		}
	}
	if frames < 4 {
		t.Fatalf("sweep covered only %d frames — archive too small to mean anything", frames)
	}
}

// TestChecksumAppendUpgrade appends to an UNchecksummed on-disk archive
// with Checksums enabled: Commit must backfill digests for the committed
// generation (reading its frames back) and seal the whole archive at v3,
// so one append upgrades a legacy archive in place.
func TestChecksumAppendUpgrade(t *testing.T) {
	snaps := testSnapshots(t)
	cfg := codec.Config{ErrorBound: testEB}
	path := filepath.Join(t.TempDir(), "upgrade.taca")
	if err := os.WriteFile(path, buildArchive(t, snaps[:2], cfg, 8), 0o644); err != nil {
		t.Fatal(err)
	}

	w, f, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if w.Checksums {
		t.Fatal("OpenAppend claims a v1 archive is checksummed")
	}
	w.Checksums = true
	if err := w.AddDataset(snaps[2], cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Checksummed() {
		t.Fatal("upgraded archive is not checksummed")
	}
	if got := len(r.Members()); got != 3 {
		t.Fatalf("upgraded archive holds %d members, want 3", got)
	}
	if issues := r.Scrub(); len(issues) != 0 {
		t.Fatalf("upgraded archive scrubbed %d issues: %v", len(issues), issues[0])
	}

	// And the next append inherits checksums without being asked.
	w2, f2, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if !w2.Checksums {
		t.Fatal("OpenAppend did not inherit Checksums from a v3 tail")
	}
	if err := w2.AddDataset(snaps[3], cfg); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if !r2.Checksummed() || len(r2.Members()) != 4 {
		t.Fatalf("second append: checksummed=%v members=%d, want true/4", r2.Checksummed(), len(r2.Members()))
	}
	if issues := r2.Scrub(); len(issues) != 0 {
		t.Fatalf("twice-appended archive scrubbed %d issues: %v", len(issues), issues[0])
	}
}

// TestChecksumLateEnableRejected pins the in-memory failure mode: frames
// already streamed to a plain io.Writer cannot be read back, so enabling
// Checksums after writing must fail loudly at Commit, not emit a v3
// footer with missing digests.
func TestChecksumLateEnableRejected(t *testing.T) {
	snaps := testSnapshots(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddDataset(snaps[0], codec.Config{ErrorBound: testEB}); err != nil {
		t.Fatal(err)
	}
	w.Checksums = true
	if err := w.Close(); err == nil {
		t.Fatal("Commit accepted checksums enabled after frames were written to a non-file writer")
	}
}

// TestChecksumDeltaCampaign runs campaign (delta) mode with digests on:
// the archive must carry both delta links and sums (v3 subsumes v2), and
// every chain member must still reconstruct within the bound.
func TestChecksumDeltaCampaign(t *testing.T) {
	const keyframe = 3
	snaps := testCampaign(t, 5)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 16
	w.Keyframe = keyframe
	w.Checksums = true
	for _, ds := range snaps {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checksummed() {
		t.Fatal("delta campaign archive is not checksummed")
	}
	sawDelta := false
	for i := range snaps {
		if r.Members()[i].IsDelta() {
			sawDelta = true
		}
		recon, err := r.Extract(i)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range snaps[i].Levels {
			if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > testEB {
				t.Fatalf("member %d level %d max err %.4g > bound %.4g", i, li, worst, testEB)
			}
		}
	}
	if !sawDelta {
		t.Fatal("campaign archive holds no delta member — drift too large?")
	}
	if issues := r.Scrub(); len(issues) != 0 {
		t.Fatalf("clean campaign archive scrubbed %d issues: %v", len(issues), issues[0])
	}
}
