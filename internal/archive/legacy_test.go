package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
)

// The fixtures under testdata/ were written by the writer of the commit
// that still produced every footer version, from the same snapshots this
// suite generates (smallSnapshot, driftDataset; error bound 1e9):
//
//   - legacy_v1.hex: s0 (seed 1) at BatchBlocks 8, generation 0 (TACAEND1);
//   - legacy_v1_appended.hex: that file with s1 and s2 (seeds 2 and 3)
//     appended one generation each at the default batch size (TACAEND2);
//   - legacy_v2.hex: d0 (seed 9) and two drifted steps at Keyframe=3,
//     BatchBlocks 8 (TACAEND3);
//   - legacy_v3.hex: c0 (seed 13) and two drifted steps at Keyframe=3,
//     BatchBlocks 8, frame digests on (TACAEND4);
//   - parent_v4.hex: x (seed 5), t0 (seed 7) and t1 at Keyframe=3,
//     BatchBlocks 8, frame and footer digests on, then t2 and t3 appended
//     in a second generation (TACAEND5). See v4Recipe.
//
// The first four are the FuzzOpen seeds of the same names.
var legacyFixtures = []struct {
	name    string
	trailer [8]byte
	gen     uint64
	// hashes are valuesHash of every member as the writing commit's reader
	// extracted it.
	hashes []string
}{
	{"legacy_v1.hex", trailerMagic, 0, []string{
		"4e427cf27a4e9af8ab6e6859cbd152bb3379e677c1d8dfdb4048fb3f3694488a",
	}},
	{"legacy_v1_appended.hex", trailer2Magic, 2, []string{
		"4e427cf27a4e9af8ab6e6859cbd152bb3379e677c1d8dfdb4048fb3f3694488a",
		"aa582814c5398ef2b64d2c26bd5b54db62c18abd685b0ace4d71b42450a15ab6",
		"fdf139d97358e8cb363745f46694b952b223abc5e940131f71e609e8d1b355b7",
	}},
	{"legacy_v2.hex", trailer3Magic, 0, []string{
		"92d64d7208dba7a9281d217493d7c631cc4249dd3cfc07c853531b48baa5f7ca",
		"b96c9b9713515bf4c9994361d9ab46bbf20458ccef60009e6eefa0ac5d4bc6d9",
		"741606b423dc3fbec81a9d7c835579cff0aa8b8c72a3b766026e0eee87d83b7d",
	}},
	{"legacy_v3.hex", trailer4Magic, 0, []string{
		"7650b47ab68a726fd1c37bfa3ad69999bd61d8fc2ad9703e93de56dc3b537130",
		"24b5fe5ae2eb59a76218943aaa2f102fccb6a74241e79c3b9e688f95878d5e9b",
		"67198c6ce5895066cc0c357a151a027a86b0f0bc21bdba9f305d11b544b9b016",
	}},
	{"parent_v4.hex", trailer5Magic, 1, []string{
		"5d1f465ec15ceaf15d3f81d612170f5bf8f792833960504b16e0eedceeeced6e",
		"9c828a7b99548e489e74660d413d68ed6ed67ce8db7c3e81dd1e848b71ed84ca",
		"6895ee935d055089022be6cf8094a366bc2e0a027c46f08ca4b363e41772417a",
		"15c3f0629c4613f8345ba5b45a66c11ddc54fb2e0a754affdd9756867f947875",
		"1c357792f19221a2fa281af021f786f42ee8c4b544d40b5d54107c733c9591c5",
	}},
}

// fixture reads a hex file under testdata/.
func fixture(tb testing.TB, name string) []byte {
	tb.Helper()
	text, err := os.ReadFile("testdata/" + name)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// valuesHash is the SHA-256 of every level grid of ds, values
// little-endian, levels in order.
func valuesHash(ds *amr.Dataset) string {
	h := sha256.New()
	var b [4]byte
	for _, l := range ds.Levels {
		for _, v := range l.Grid.Data {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLegacyFixturesRead is old data under the current reader: every
// fixture opens at its trailer and generation, scrubs clean, and extracts
// to the values the writing commit extracted.
func TestLegacyFixturesRead(t *testing.T) {
	for _, fx := range legacyFixtures {
		t.Run(fx.name, func(t *testing.T) {
			b := fixture(t, fx.name)
			if [8]byte(b[len(b)-8:]) != fx.trailer {
				t.Fatalf("fixture ends with %q, want %q", b[len(b)-8:], fx.trailer)
			}
			r, err := Open(bytes.NewReader(b), int64(len(b)))
			if err != nil {
				t.Fatal(err)
			}
			if r.Generation() != fx.gen || len(r.Members()) != len(fx.hashes) {
				t.Fatalf("generation %d, %d members; want %d, %d", r.Generation(), len(r.Members()), fx.gen, len(fx.hashes))
			}
			if issues := r.Scrub(); len(issues) != 0 {
				t.Fatalf("scrub: %v", issues)
			}
			for mi, want := range fx.hashes {
				ds, err := r.Extract(mi)
				if err != nil {
					t.Fatal(err)
				}
				if got := valuesHash(ds); got != want {
					t.Errorf("member %d extracts to %s, the writing commit extracted %s", mi, got, want)
				}
			}
		})
	}
}

// v4Recipe writes parent_v4.hex's archive to path: the intra member x and
// the start of a Keyframe=3 campaign in generation 0, the campaign's next
// two steps appended in generation 1 — t2 a delta against t1, primed from
// the file, and t3 a keyframe, since a delta would take its chain to
// depth 3 — every member coded at the given Workers.
func v4Recipe(t testing.TB, path string, workers int) {
	t.Helper()
	t0 := smallSnapshot(t, "t0", 7)
	t1 := driftDataset(t0, "t1", testEB, 1)
	t2 := driftDataset(t1, "t2", testEB, 2)
	t3 := driftDataset(t2, "t3", testEB, 3)
	add := func(w *Writer, snaps ...*amr.Dataset) {
		t.Helper()
		w.BatchBlocks, w.Keyframe = 8, 3
		for _, ds := range snaps {
			if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB, Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	add(w, smallSnapshot(t, "x", 5), t0, t1)
	w, af, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer af.Close()
	add(w, t2, t3)
}

// TestWriterMatchesParentV4 writes parent_v4.hex's recipe again at Workers
// 0, 1, 2 and -1: intra members, a Keyframe=3 campaign and one OpenAppend
// generation come out byte for byte as the fixture.
func TestWriterMatchesParentV4(t *testing.T) {
	want := fixture(t, "parent_v4.hex")
	for _, workers := range []int{0, 1, 2, -1} {
		path := filepath.Join(t.TempDir(), "v4.taca")
		v4Recipe(t, path, workers)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers %d: wrote %d bytes differing from the fixture's %d", workers, len(got), len(want))
		}
	}
}

// damageLegacyFrame returns a copy of the legacy archive blob with one bit
// flipped in frame 0 of level 0 of member 0 — the first byte from the
// frame's middle on, wrapping round, whose flip the decoder rejects.
func damageLegacyFrame(t testing.TB, blob []byte) []byte {
	t.Helper()
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	rec := r.Members()[0].Levels[0].Batches[0]
	for i := range rec.Length {
		damaged := append([]byte(nil), blob...)
		damaged[rec.Offset+(rec.Length/2+i)%rec.Length] ^= 0x20
		dr, err := Open(bytes.NewReader(damaged), int64(len(damaged)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dr.DecodeBatch(0, 0, 0); err != nil {
			return damaged
		}
	}
	t.Fatal("no flip in the frame is rejected by the decoder")
	return nil
}

// TestLegacyUpgradeRefusesDamagedFrames: OpenAppend decodes every legacy
// frame before digesting it, so a frame whose bytes have rotted is
// ErrCorrupt naming it, the file is left as it was, and the damage stays
// where a scrub finds it — the upgrade never certifies it.
func TestLegacyUpgradeRefusesDamagedFrames(t *testing.T) {
	for _, name := range []string{"legacy_v1.hex", "legacy_v2.hex"} {
		t.Run(name, func(t *testing.T) {
			damaged := damageLegacyFrame(t, fixture(t, name))
			path := filepath.Join(t.TempDir(), "damaged.taca")
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			_, f, err := OpenAppendFile(path)
			if err == nil {
				f.Close()
				t.Fatal("OpenAppend took up, for digesting, a frame the decoder rejects")
			}
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "member 0 level 0 batch 0") {
				t.Fatalf("OpenAppend = %v, want ErrCorrupt naming member 0 level 0 batch 0", err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, damaged) {
				t.Fatalf("a refused upgrade changed the file (err %v)", err)
			}
			r, err := Open(bytes.NewReader(damaged), int64(len(damaged)))
			if err != nil {
				t.Fatal(err)
			}
			if issues := r.ScrubMember(0); len(issues) == 0 || issues[0].Level != 0 || issues[0].Batch != 0 {
				t.Fatalf("scrub of the damaged member: %v", issues)
			}
		})
	}
}

// sameDataset reports whether a and b hold the same levels, masks and
// values, bit for bit.
func sameDataset(a, b *amr.Dataset) bool {
	return slices.EqualFunc(a.Levels, b.Levels, func(x, y *amr.Level) bool {
		return x.Mask.Equal(y.Mask) && sameBits(x.Grid.Data, y.Grid.Data)
	})
}

// flipSweep flips one bit of every byte of blob in turn — bit off%8 — then
// opens the result and extracts every member. want is what the undamaged
// archive extracts, and members[g] the member count of generation g. A
// flip ends in an error, in a fallback to an earlier generation whose
// members all extract as they should, in the undamaged output — or
// silently in different values, which it counts.
func flipSweep(t *testing.T, blob []byte, members map[uint64]int) (errs, fallbacks, same, silent int) {
	t.Helper()
	clean, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*amr.Dataset, len(clean.Members()))
	for mi := range want {
		if want[mi], err = clean.Extract(mi); err != nil {
			t.Fatal(err)
		}
	}
	damaged := append([]byte(nil), blob...)
	for off := range damaged {
		damaged[off] ^= 1 << (off % 8)
		r, err := Open(bytes.NewReader(damaged), int64(len(damaged)))
		if err == nil {
			r.Workers = 1
			right := len(r.Members()) == members[r.Generation()]
			for mi := range r.Members() {
				var ds *amr.Dataset
				if ds, err = r.Extract(mi); err != nil {
					break
				}
				right = right && sameDataset(ds, want[mi])
			}
			switch {
			case err != nil:
			case !right:
				silent++
			case r.Generation() == clean.Generation():
				same++
			default:
				fallbacks++
			}
		}
		if err != nil {
			errs++
		}
		damaged[off] ^= 1 << (off % 8)
	}
	return errs, fallbacks, same, silent
}

// TestNoSilentWrongData flips every byte of a campaign archive written with
// default options — two generations, Keyframe=3 — in turn: each flip must
// end in an error, in a fallback to the first generation, or in the
// undamaged output, never in different values without an error. The same
// sweep over a legacy v1 archive counts the flips that do, the hole such
// archives keep (EXPERIMENTS.md).
func TestNoSilentWrongData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v4.taca")
	v4Recipe(t, path, 0)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	errs, fallbacks, same, silent := flipSweep(t, blob, map[uint64]int{0: 3, 1: 5})
	t.Logf("v4, %d bytes: %d errors, %d fallbacks, %d unchanged, %d silently wrong", len(blob), errs, fallbacks, same, silent)
	if silent != 0 || errs == 0 || fallbacks == 0 {
		t.Fatalf("v4: %d flips extracted different values without an error", silent)
	}

	v1 := fixture(t, "legacy_v1.hex")
	errs, fallbacks, same, silent = flipSweep(t, v1, map[uint64]int{0: 1})
	t.Logf("legacy v1, %d bytes: %d errors, %d fallbacks, %d unchanged, %d silently wrong", len(v1), errs, fallbacks, same, silent)
}
