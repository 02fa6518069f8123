package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/sim"
)

// FuzzOpen throws mutated archive bytes — seeded with every trailer
// layout, fresh, appended/multi-generation, and torn-tail archives so the
// generation-stamped trailers and the recovery scan are all in the
// corpus — at the full open path: trailer parse, recovery scan, footer
// decode, frame-bounds validation. Open must never panic, and any Reader
// it does return must hold an index whose every batch decodes or fails
// cleanly.
func FuzzOpen(f *testing.F) {
	dir := f.TempDir()
	mkSnap := func(name string, seed int64) *amr.Dataset {
		ds, err := sim.Generate(sim.Spec{
			Name: name, FinestN: 16, Levels: 2, UnitBlock: 4,
			Seed: seed, LeafFractions: []float64{0.3, 0.7},
		}, sim.BaryonDensity)
		if err != nil {
			f.Fatal(err)
		}
		return ds
	}

	// Seeds 1-8 are legacy layouts, read from the fixtures their writer
	// left (legacy_test.go). Seed 1: a single-generation v1 archive.
	gen0 := fixture(f, "legacy_v1.hex")
	f.Add(gen0)

	// Seeds 2-3: the same with two appended generations, and a torn tail
	// mid-append.
	multi := fixture(f, "legacy_v1_appended.hex")
	f.Add(multi)
	f.Add(multi[:len(gen0)+(len(multi)-len(gen0))/2]) // torn second append
	f.Add(multi[:len(multi)-5])                       // torn trailer
	f.Add([]byte("TACA\x01 not really an archive TACAEND1"))

	// Seeds 4-6: a v2 campaign archive (delta members under TACAEND3),
	// a torn delta tail, and a bit-flip inside its footer region — the
	// mutation engine starts from here to attack the dependency links.
	dv2 := fixture(f, "legacy_v2.hex")
	f.Add(dv2)
	f.Add(dv2[:len(dv2)-trailer3Len-7]) // torn delta tail: footer cut mid-record
	flip := append([]byte(nil), dv2...)
	flip[len(flip)-trailer3Len-10] ^= 0x08 // corrupt a footer byte near the links
	f.Add(flip)

	// Seeds 7-8: a v3 checksummed campaign archive (digests under
	// TACAEND4) and a flip in its digest region, so the mutation engine
	// attacks the sum varints and the checksum-verified read path.
	sv3 := fixture(f, "legacy_v3.hex")
	f.Add(sv3)
	sflip := append([]byte(nil), sv3...)
	sflip[len(sflip)-trailer4Len-6] ^= 0x11 // corrupt a footer byte near the digests
	f.Add(sflip)

	// Seeds 9-11: a multi-generation v4 archive (footer digest under
	// TACAEND5), a footer-digest flip that must fall back to the previous
	// generation, and a flip inside the digest word itself.
	vpath := filepath.Join(dir, "fsum.taca")
	vfl, err := os.Create(vpath)
	if err != nil {
		f.Fatal(err)
	}
	vw, err := NewWriter(vfl)
	if err != nil {
		f.Fatal(err)
	}
	vw.BatchBlocks = 8
	if err := vw.AddDataset(mkSnap("v0", 21), codec.Config{ErrorBound: 1e9}); err != nil {
		f.Fatal(err)
	}
	if err := vw.Close(); err != nil {
		f.Fatal(err)
	}
	vfl.Close()
	vw2, vfl2, err := OpenAppendFile(vpath)
	if err != nil {
		f.Fatal(err)
	}
	if err := vw2.AddDataset(mkSnap("v1", 22), codec.Config{ErrorBound: 1e9}); err != nil {
		f.Fatal(err)
	}
	if err := vw2.Close(); err != nil {
		f.Fatal(err)
	}
	vfl2.Close()
	fv4, err := os.ReadFile(vpath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fv4)
	vflip := append([]byte(nil), fv4...)
	vflip[len(vflip)-trailer5Len-9] ^= 0x10 // footer flip: digest must reject, Open falls back a generation
	f.Add(vflip)
	cflip := append([]byte(nil), fv4...)
	cflip[len(cflip)-10] ^= 0x10 // flip inside the trailer's digest word
	f.Add(cflip)

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<20 {
			return
		}
		r, err := Open(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			return
		}
		if r.EndOffset() > int64(len(b)) {
			t.Fatalf("recovered end %d past input size %d", r.EndOffset(), len(b))
		}
		for mi := range r.Members() {
			m := &r.Members()[mi]
			if m.StoredCells() > 1<<22 {
				continue // cap per-member work; geometry was already validated
			}
			for li := range m.Levels {
				for bi := range m.Levels[li].Batches {
					_, _ = r.DecodeBatch(mi, li, bi) // must not panic
				}
			}
		}
	})
}
