package archive

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/codec"
)

// damageFrame flips one byte in the middle of the given frame and
// returns the flipped offset.
func damageFrame(t *testing.T, blob []byte, r *Reader, mi, li, b int) int64 {
	t.Helper()
	rec := r.Members()[mi].Levels[li].Batches[b]
	off := rec.Offset + rec.Length/2
	blob[off] ^= 0x20
	return off
}

func TestRepairMemberSplices(t *testing.T) {
	clean := buildArchive(t, testSnapshots(t)[:2], codec.Config{ErrorBound: testEB}, 8)
	path := filepath.Join(t.TempDir(), "dmg.taca")
	cr, err := Open(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), clean...)
	damageFrame(t, damaged, cr, 0, 0, 0)
	damageFrame(t, damaged, cr, 0, 1, 0)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := Open(f, int64(len(damaged)))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.ScrubMember(0)); n != 2 {
		t.Fatalf("scrub found %d issues, want 2", n)
	}
	rs, err := r.RepairMember(0, bytes.NewReader(clean), f)
	if err != nil {
		t.Fatalf("RepairMember: %v", err)
	}
	if rs.FramesDamaged != 2 || rs.FramesRepaired != 2 || rs.BytesRespliced <= 0 || !reflect.DeepEqual(rs.Members, []int{0}) {
		t.Fatalf("stats = %+v", rs)
	}
	if rs.FramesScanned < 2 {
		t.Fatalf("scanned %d frames", rs.FramesScanned)
	}
	// The file is byte-identical to the clean original again.
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clean) {
		t.Fatal("repaired file differs from the clean original")
	}
	if issues := r.Scrub(); len(issues) != 0 {
		t.Fatalf("repaired archive scrubs dirty: %v", issues)
	}
}

func TestRepairMemberCleanIsNoop(t *testing.T) {
	clean := buildArchive(t, testSnapshots(t)[:1], codec.Config{ErrorBound: testEB}, 8)
	path := filepath.Join(t.TempDir(), "ok.taca")
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := Open(f, int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.RepairMember(0, bytes.NewReader(clean), f)
	if err != nil {
		t.Fatal(err)
	}
	if rs.FramesRepaired != 0 || rs.FramesDamaged != 0 || len(rs.Members) != 0 {
		t.Fatalf("clean member repair stats = %+v", rs)
	}
}

func TestRepairFromDamagedReplicaFails(t *testing.T) {
	clean := buildArchive(t, testSnapshots(t)[:1], codec.Config{ErrorBound: testEB}, 8)
	cr, err := Open(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), clean...)
	off := damageFrame(t, damaged, cr, 0, 0, 0)
	// The replica is damaged at the same frame (different bit).
	badReplica := append([]byte(nil), clean...)
	badReplica[off] ^= 0x08

	path := filepath.Join(t.TempDir(), "dmg.taca")
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := Open(f, int64(len(damaged)))
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := r.RepairMember(0, bytes.NewReader(badReplica), f)
	if !errors.Is(rerr, ErrCorrupt) || errors.Is(rerr, ErrIO) {
		t.Fatalf("repair from damaged replica = %v, want ErrCorrupt (not ErrIO)", rerr)
	}
	// The bad bytes were rejected before any splice: the file still holds
	// its own (detectable) damage, not the replica's.
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, damaged) {
		t.Fatal("failed repair modified the file")
	}
}

func TestRepairFetchErrorIsErrIO(t *testing.T) {
	clean := buildArchive(t, testSnapshots(t)[:1], codec.Config{ErrorBound: testEB}, 8)
	cr, err := Open(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), clean...)
	damageFrame(t, damaged, cr, 0, 0, 0)
	path := filepath.Join(t.TempDir(), "dmg.taca")
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := Open(f, int64(len(damaged)))
	if err != nil {
		t.Fatal(err)
	}
	// A truncated replica: every frame fetch runs off its end.
	_, rerr := r.RepairMember(0, bytes.NewReader(clean[:16]), f)
	if !errors.Is(rerr, ErrIO) {
		t.Fatalf("repair with unreadable replica = %v, want ErrIO", rerr)
	}
}

func TestRepairWholeArchive(t *testing.T) {
	clean := buildArchive(t, testSnapshots(t)[:3], codec.Config{ErrorBound: testEB}, 8)
	cr, err := Open(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), clean...)
	damageFrame(t, damaged, cr, 0, 0, 0)
	damageFrame(t, damaged, cr, 2, 0, 1)
	path := filepath.Join(t.TempDir(), "dmg.taca")
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Repair(path, bytes.NewReader(clean))
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if rs.FramesRepaired != 2 || !reflect.DeepEqual(rs.Members, []int{0, 2}) {
		t.Fatalf("stats = %+v", rs)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clean) {
		t.Fatal("repaired file differs from the clean original")
	}
}

// TestRepairLegacyMember heals a legacy archive without digests: the scrub
// finds the damaged frame by decoding it, RepairMember splices the
// replica's bytes back, and the post-repair scrub decodes them again.
func TestRepairLegacyMember(t *testing.T) {
	clean := fixture(t, "legacy_v1_appended.hex")
	damaged := damageLegacyFrame(t, clean)
	path := filepath.Join(t.TempDir(), "dmg.taca")
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Repair(path, bytes.NewReader(clean))
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if rs.FramesDamaged != 1 || rs.FramesRepaired != 1 || !reflect.DeepEqual(rs.Members, []int{0}) {
		t.Fatalf("stats = %+v", rs)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clean) {
		t.Fatal("repaired file differs from the clean original")
	}
}
