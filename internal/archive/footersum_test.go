package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
)

// maskedValues flattens a dataset to its stored values, level by level.
func maskedValues(ds *amr.Dataset) []amr.Value {
	var out []amr.Value
	for _, l := range ds.Levels {
		out = l.MaskedValues(out)
	}
	return out
}

// TestFooterSumRoundTrip pins the v4 format's byte relationship to v3:
// the legacy_v3 campaign written again by the current writer has the
// fixture's data section and footer byte for byte — the footer digest
// changes only the trailer — and opens, verifies, and extracts like it.
func TestFooterSumRoundTrip(t *testing.T) {
	v3 := fixture(t, "legacy_v3.hex")
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks, w.Keyframe = 8, 3
	prev := smallSnapshot(t, "c0", 13)
	for i := 0; i < 3; i++ {
		if err := w.AddDataset(prev, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
		prev = driftDataset(prev, "c"+string(rune('1'+i)), testEB, int64(10+i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	v4 := buf.Bytes()

	if !bytes.HasSuffix(v4, trailer5Magic[:]) {
		t.Fatalf("v4 archive does not end with TACAEND5: %q", v4[len(v4)-8:])
	}
	if len(v4) != len(v3)+(trailer5Len-trailer4Len) {
		t.Fatalf("v4 size %d, v3 size %d: want exactly the trailer growth %d", len(v4), len(v3), trailer5Len-trailer4Len)
	}
	if !bytes.Equal(v4[:len(v4)-trailer5Len], v3[:len(v3)-trailer4Len]) {
		t.Fatal("v4 data+footer bytes differ from v3 — the footer digest must only change the trailer")
	}

	r, err := Open(bytes.NewReader(v4), int64(len(v4)))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checksummed() || r.ver != 4 {
		t.Fatalf("Checksummed=%v, footer v%d; want a digested v4 footer", r.Checksummed(), r.ver)
	}
	if issues := r.Scrub(); len(issues) != 0 {
		t.Fatalf("clean v4 archive scrubs dirty: %v", issues)
	}
	for mi, want := range legacyFixtures[3].hashes {
		ds, err := r.Extract(mi)
		if err != nil {
			t.Fatal(err)
		}
		if got := valuesHash(ds); got != want {
			t.Fatalf("member %d: v4 extraction differs from v3", mi)
		}
	}
}

// TestFooterSumGenerationFallback is the survivability sweep: a single
// bit flipped at EVERY byte of a 3-generation v4 archive's newest
// footer+trailer must make Open reject that generation (the digest seals
// footer, length, and generation words; the magic bytes reject
// structurally) and recover generation N-1 with exactly its committed
// index.
func TestFooterSumGenerationFallback(t *testing.T) {
	snaps := testSnapshots(t)[:3]
	path := filepath.Join(t.TempDir(), "gens.taca")
	if err := os.WriteFile(path, buildArchive(t, snaps[:1], codec.Config{ErrorBound: testEB}, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	var ends []int64
	appendOne := func(ds *amr.Dataset) {
		t.Helper()
		w, f, err := OpenAppendFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, st.Size())
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	ends = append(ends, st.Size())
	appendOne(snaps[1])
	appendOne(snaps[2])

	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	size1, size2 := ends[1], ends[2]
	// The gen-1 reference view: the archive exactly as committed before
	// the last append.
	ref, err := Open(bytes.NewReader(full[:size1]), size1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Generation() != 1 || len(ref.Members()) != 2 {
		t.Fatalf("reference view: gen=%d members=%d", ref.Generation(), len(ref.Members()))
	}
	refVals := make([][]amr.Value, len(ref.Members()))
	for i := range refVals {
		ds, err := ref.Extract(i)
		if err != nil {
			t.Fatal(err)
		}
		refVals[i] = maskedValues(ds)
	}

	// Locate generation 2's footer from its trailer.
	var flen uint64
	for i := 7; i >= 0; i-- {
		flen = flen<<8 | uint64(full[size2-trailer5Len+int64(i)])
	}
	footerStart := size2 - trailer5Len - int64(flen)
	if footerStart <= size1 {
		t.Fatalf("gen-2 footer start %d not past gen-1 end %d", footerStart, size1)
	}

	_, _, _, refIndex := indexOf(ref)
	damaged := append([]byte(nil), full...)
	for off := footerStart; off < size2; off++ {
		damaged[off] ^= 0x10
		rd, err := Open(bytes.NewReader(damaged), size2)
		if err != nil {
			t.Fatalf("flip at %d: Open failed outright: %v", off, err)
		}
		if rd.Generation() != 1 || rd.EndOffset() != size1 {
			t.Fatalf("flip at %d: recovered gen=%d end=%d, want gen 1 ending at %d", off, rd.Generation(), rd.EndOffset(), size1)
		}
		if _, _, _, index := indexOf(rd); !reflect.DeepEqual(index, refIndex) {
			t.Fatalf("flip at %d: recovered index differs from the committed gen-1 index", off)
		}
		// Full byte-identical extraction is pricey; spot-check it on a
		// stride plus the first and last offsets of the sweep.
		if off == footerStart || off == size2-1 || (off-footerStart)%97 == 0 {
			for i := range rd.Members() {
				ds, err := rd.Extract(i)
				if err != nil {
					t.Fatalf("flip at %d: extracting member %d: %v", off, i, err)
				}
				if !reflect.DeepEqual(maskedValues(ds), refVals[i]) {
					t.Fatalf("flip at %d: member %d extraction differs from gen-1 reference", off, i)
				}
			}
		}
		damaged[off] ^= 0x10
	}
}
