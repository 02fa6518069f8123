package sz_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/grid"
	"repro/internal/sz"
)

// TestParentArchiveReads is old data under the new reader, a whole file of
// it: a checksummed campaign archive the parent commit wrote (two members of
// two levels; the second delta-coded against the first; every section
// through flate) scrubs clean and extracts to the values the parent
// extracted, and its frames say of themselves what the parent's writer did.
func TestParentArchiveReads(t *testing.T) {
	b := sz.Fixture(t, "parent_archive.hex")
	r, err := archive.Open(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checksummed() || len(r.Members()) != 2 {
		t.Fatalf("fixture: checksummed=%v, %d members", r.Checksummed(), len(r.Members()))
	}
	want := []string{
		"619c1973d5897d46dea87c148e20634a9695f203655ba65eb1b3ed9b4337fc2d",
		"ac09a7836103f3d1686c5f76919b8a0d2dc675830fc26d65b4fbb6f39b60d340",
	}
	for mi := range r.Members() {
		frames, delta := 0, 0
		issues := r.ScrubMemberFrames(mi, func(_, _ int, info sz.BatchInfo) {
			frames++
			if info.Delta {
				delta++
			}
		})
		if len(issues) > 0 || frames != 2 || delta != 2*mi {
			t.Errorf("member %d: %d frames seen, %d delta, issues %v; want 2 frames, %d delta, clean", mi, frames, delta, issues, 2*mi)
		}
		ds, err := r.Extract(mi)
		if err != nil {
			t.Fatal(err)
		}
		var levels []*grid.Grid3[amr.Value]
		for _, l := range ds.Levels {
			levels = append(levels, l.Grid)
		}
		if got := sz.ValuesHash(levels); got != want[mi] {
			t.Errorf("member %d extracts to %s, the parent extracted %s", mi, got, want[mi])
		}
	}
}

// TestParentArchiveLiteralOffsets holds, for every frame of the archive the
// parent wrote, the literal offsets the decoder takes from the frame's
// codebook to the ones a scan of its codes finds (litoff_test.go).
func TestParentArchiveLiteralOffsets(t *testing.T) {
	b := sz.Fixture(t, "parent_archive.hex")
	r, err := archive.Open(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range r.Members() {
		for li, l := range m.Levels {
			for bi, rec := range l.Batches {
				sz.ShortcutEqualsScan(t, fmt.Sprintf("member %d level %d frame %d", mi, li, bi), b[rec.Offset:rec.Offset+rec.Length])
			}
		}
	}
}
