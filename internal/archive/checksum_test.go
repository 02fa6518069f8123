package archive

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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

// TestChecksumRoundTrip builds snapshots with a default writer: the
// archive must commit the v4 (TACAEND5) format with a digest per frame,
// extract within the bound and scrub clean by digest. A legacy v1 archive,
// which has no digests, must also scrub clean, through the decode
// fallback, and report itself unchecksummed.
func TestChecksumRoundTrip(t *testing.T) {
	snaps := testSnapshots(t)
	sum := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 8)
	if !bytes.HasSuffix(sum, trailer5Magic[:]) {
		t.Fatalf("archive does not end with %q", trailer5Magic)
	}
	r, err := Open(bytes.NewReader(sum), int64(len(sum)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checksummed() {
		t.Fatal("Checksummed() = false on a v4 archive")
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

	plain := fixture(t, "legacy_v1_appended.hex")
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
// to silently wrong values (see TestNoSilentWrongData).
func TestChecksumDetectsEveryFrameFlip(t *testing.T) {
	snaps := testSnapshots(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 8
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
				if !strings.Contains(is.Err.Error(), "checksum") {
					t.Fatalf("scrub issue does not mention the checksum: %v", is)
				}
			}
		}
	}
	if frames < 4 {
		t.Fatalf("sweep covered only %d frames — archive too small to mean anything", frames)
	}
}

// TestChecksumAppendUpgrade appends a member to every legacy fixture with
// a default writer: the archive must come out at v4 (TACAEND5), with
// digests on every level of every member, the old members extracting to
// the values their writer extracted, and Writer.View equal to what Open
// parses. A second append keeps it at v4.
func TestChecksumAppendUpgrade(t *testing.T) {
	cfg := codec.Config{ErrorBound: testEB}
	for _, fx := range legacyFixtures[:4] {
		t.Run(fx.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "upgrade.taca")
			if err := os.WriteFile(path, fixture(t, fx.name), 0o644); err != nil {
				t.Fatal(err)
			}
			for i := range 2 {
				w, f, err := OpenAppendFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.AddDataset(smallSnapshot(t, "new", int64(11+i)), cfg); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				view, err := w.View(f)
				if err != nil {
					t.Fatal(err)
				}
				f.Close()

				r, err := OpenFile(path)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if _, ver := lastFooter(t, path); ver != 4 || !r.Checksummed() {
					t.Fatalf("append %d: footer v%d, checksummed %v; want v4", i, ver, r.Checksummed())
				}
				if got, want := len(r.Members()), len(fx.hashes)+1+i; got != want || r.Generation() != fx.gen+1+uint64(i) {
					t.Fatalf("append %d: %d members at generation %d, want %d at %d", i, got, r.Generation(), want, fx.gen+1+uint64(i))
				}
				for mi := range r.Members() {
					for li, idx := range r.Members()[mi].Levels {
						if len(idx.Sums) != len(idx.Batches) {
							t.Fatalf("member %d level %d: %d digests for %d frames", mi, li, len(idx.Sums), len(idx.Batches))
						}
					}
				}
				for mi, want := range fx.hashes {
					ds, err := r.Extract(mi)
					if err != nil {
						t.Fatal(err)
					}
					if got := valuesHash(ds); got != want {
						t.Fatalf("member %d extracts to %s, its writer extracted %s", mi, got, want)
					}
				}
				if issues := r.Scrub(); len(issues) != 0 {
					t.Fatalf("upgraded archive scrubbed %d issues: %v", len(issues), issues[0])
				}
				ve, vg, vv, vm := indexOf(view)
				oe, og, ov, om := indexOf(r.Reader)
				if ve != oe || vg != og || vv != ov || !reflect.DeepEqual(vm, om) {
					t.Fatalf("append %d: the writer's view differs from what Open parses", i)
				}
			}
		})
	}
}

// TestChecksumDeltaCampaign runs campaign (delta) mode: the archive must
// carry both delta links and digests, and every chain member must still
// reconstruct within the bound.
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
