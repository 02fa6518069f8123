package archive

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/sim"
)

// smallSnapshot generates one tiny snapshot (unique per seed) so the
// byte-offset fault-injection sweep stays fast.
func smallSnapshot(t testing.TB, name string, seed int64) *amr.Dataset {
	t.Helper()
	ds, err := sim.Generate(sim.Spec{
		Name: name, FinestN: 16, Levels: 2, UnitBlock: 4,
		Seed: seed, LeafFractions: []float64{0.3, 0.7},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// writeArchiveFile builds an on-disk archive from the snapshots.
func writeArchiveFile(t testing.TB, path string, snaps []*amr.Dataset) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 8
	for _, ds := range snaps {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAddDatasetRefusesUnreadableLevel: a level of 1024×1024×65 cells at
// unit block 1 holds 68,157,440 unit blocks, past the 2^26 Open accepts.
// Appended and committed, it used to make Open fall back to the previous
// generation, and the next append truncated the committed one away.
// AddDataset refuses it before writing a byte, the writer stays usable,
// and the reopened file serves every member committed.
func TestAddDatasetRefusesUnreadableLevel(t *testing.T) {
	snaps := []*amr.Dataset{smallSnapshot(t, "s0", 1), smallSnapshot(t, "s1", 2)}
	path := filepath.Join(t.TempDir(), "a.taca")
	writeArchiveFile(t, path, snaps[:1])
	w, f, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// An empty mask and a grid without data: only the mask is allocated.
	d := grid.Dims{X: 1024, Y: 1024, Z: 65}
	huge := &amr.Dataset{Name: "huge", Field: "f", Ratio: 2, Levels: []*amr.Level{
		{Grid: &grid.Grid3[amr.Value]{Dim: d}, UnitBlock: 1, Mask: grid.NewMask(d)}}}
	cfg := codec.Config{ErrorBound: testEB}
	before := w.Stats().BytesWritten
	if err := w.AddDataset(huge, cfg); err == nil {
		t.Fatal("a level of 68,157,440 unit blocks was accepted")
	}
	if n := w.Stats().BytesWritten; n != before {
		t.Fatalf("the refused member wrote %d bytes", n-before)
	}
	if err := w.AddDataset(snaps[1], cfg); err != nil {
		t.Fatalf("writer unusable after a refused member: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := len(r.Members()); n != len(snaps) {
		t.Fatalf("reopened archive serves %d members, want %d", n, len(snaps))
	}
	for i, ds := range snaps {
		recon, err := r.Extract(i)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range ds.Levels {
			if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > testEB {
				t.Fatalf("member %d level %d max err %.4g > bound %.4g", i, li, worst, testEB)
			}
		}
	}
}

// extractAllErr returns every level grid of every member, the
// byte-identity fingerprint the append tests compare across generations.
// It is goroutine-safe (no testing.T) for the read-while-append test.
func extractAllErr(r *Reader) ([][][]amr.Value, error) {
	var out [][][]amr.Value
	for mi := range r.Members() {
		ds, err := r.Extract(mi)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", mi, err)
		}
		var grids [][]amr.Value
		for _, l := range ds.Levels {
			grids = append(grids, append([]amr.Value(nil), l.Grid.Data...))
		}
		out = append(out, grids)
	}
	return out, nil
}

func extractAll(t testing.TB, r *Reader) [][][]amr.Value {
	t.Helper()
	out, err := extractAllErr(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameGrids(a, b [][][]amr.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if len(a[i][j]) != len(b[i][j]) {
				return false
			}
			for k := range a[i][j] {
				if a[i][j][k] != b[i][j][k] {
					return false
				}
			}
		}
	}
	return true
}

func TestAppendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.taca")
	base := []*amr.Dataset{smallSnapshot(t, "s0", 1), smallSnapshot(t, "s1", 2)}
	writeArchiveFile(t, path, base)

	before, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := extractAll(t, before.Reader)
	if g := before.Generation(); g != 0 {
		t.Fatalf("fresh archive generation %d, want 0", g)
	}
	before.Close()

	w, f, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Members()) != 2 {
		t.Fatalf("append writer sees %d members, want 2", len(w.Members()))
	}
	for i := 2; i < 4; i++ {
		if err := w.AddDataset(smallSnapshot(t, fmt.Sprintf("s%d", i), int64(i+1)), codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if g := w.Generation(); g != 2 {
		t.Fatalf("writer committed %d generations, want 2", g)
	}

	after, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if g := after.Generation(); g != 1 {
		t.Fatalf("appended archive generation %d, want 1", g)
	}
	if n := len(after.Members()); n != 4 {
		t.Fatalf("appended archive holds %d members, want 4", n)
	}
	got := extractAll(t, after.Reader)
	if !sameGrids(want, got[:2]) {
		t.Fatal("pre-existing members changed across append")
	}
	for i := 2; i < 4; i++ {
		src := smallSnapshot(t, fmt.Sprintf("s%d", i), int64(i+1))
		for li, l := range src.Levels {
			if worst := maskedMaxErr(l, mustLevel(t, after.Reader, i, li), l.Mask); worst > testEB {
				t.Fatalf("appended member %d level %d max err %.4g > bound", i, li, worst)
			}
		}
	}
}

func mustLevel(t testing.TB, r *Reader, mi, li int) *amr.Level {
	t.Helper()
	l, err := r.ExtractLevel(mi, li)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestAppendMultiGeneration commits one member per generation and checks
// the generation counter and member set advance in lockstep.
func TestAppendMultiGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.taca")
	writeArchiveFile(t, path, []*amr.Dataset{smallSnapshot(t, "s0", 1)})

	w, f, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 1; i <= 3; i++ {
		if err := w.AddDataset(smallSnapshot(t, fmt.Sprintf("s%d", i), int64(i+1)), codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(path)
		if err != nil {
			t.Fatalf("after commit %d: %v", i, err)
		}
		if g, n := r.Generation(), len(r.Members()); g != uint64(i) || n != i+1 {
			t.Fatalf("after commit %d: generation %d / %d members, want %d / %d", i, g, n, i, i+1)
		}
		r.Close()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close after a clean Commit must not stack another footer.
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if g := r.Generation(); g != 3 {
		t.Fatalf("final generation %d, want 3", g)
	}
}

// TestAppendCrashRecovery is the fault-injection harness the issue asks
// for: replay an append, truncate the file at every byte offset past the
// old footer, and assert Open always recovers the pre-append member set —
// a crash at any point during an append must leave the archive openable
// with the previous footer, byte-identical for every old member.
func TestAppendCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.taca")
	writeArchiveFile(t, path, []*amr.Dataset{smallSnapshot(t, "s0", 1), smallSnapshot(t, "s1", 2)})
	oldBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	oldSize := int64(len(oldBytes))
	oldR, err := Open(bytes.NewReader(oldBytes), oldSize)
	if err != nil {
		t.Fatal(err)
	}
	want := extractAll(t, oldR)

	w, f, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddDataset(smallSnapshot(t, "s2", 3), codec.Config{ErrorBound: testEB}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) <= oldSize {
		t.Fatalf("append did not grow the file (%d -> %d)", oldSize, len(full))
	}
	if !bytes.Equal(full[:oldSize], oldBytes) {
		t.Fatal("append rewrote committed bytes")
	}

	// Crash at every byte offset of the append: the old generation must
	// always win; only the complete file exposes the new member.
	for cut := oldSize; cut <= int64(len(full)); cut++ {
		r, err := Open(bytes.NewReader(full[:cut]), cut)
		if err != nil {
			t.Fatalf("cut at %d (of %d): %v", cut, len(full), err)
		}
		wantMembers, wantGen := 2, uint64(0)
		if cut == int64(len(full)) {
			wantMembers, wantGen = 3, 1
		}
		if n, g := len(r.Members()), r.Generation(); n != wantMembers || g != wantGen {
			t.Fatalf("cut at %d: %d members gen %d, want %d gen %d", cut, n, g, wantMembers, wantGen)
		}
		if r.EndOffset() != oldSize && cut != int64(len(full)) {
			t.Fatalf("cut at %d: recovered end %d, want old size %d", cut, r.EndOffset(), oldSize)
		}
	}

	// Spot-check byte identity of the recovered members at a few torn
	// points (the full sweep above already proved openability).
	for _, cut := range []int64{oldSize, oldSize + 1, (oldSize + int64(len(full))) / 2, int64(len(full)) - 1} {
		r, err := Open(bytes.NewReader(full[:cut]), cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got := extractAll(t, r); !sameGrids(want, got) {
			t.Fatalf("cut at %d: recovered members differ from pre-append state", cut)
		}
	}

	// An append onto a torn file must first truncate the wreckage, then
	// land the new member cleanly.
	torn := full[: oldSize+(int64(len(full))-oldSize)/2 : oldSize+(int64(len(full))-oldSize)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, f2, err := OpenAppendFile(path)
	if err != nil {
		t.Fatalf("OpenAppend on torn file: %v", err)
	}
	if st, err := f2.Stat(); err != nil || st.Size() != oldSize {
		t.Fatalf("torn tail not truncated: size %d, want %d (err %v)", st.Size(), oldSize, err)
	}
	if err := w2.AddDataset(smallSnapshot(t, "s2b", 9), codec.Config{ErrorBound: testEB}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := len(r.Members()); n != 3 {
		t.Fatalf("post-recovery append holds %d members, want 3", n)
	}
	if r.Members()[2].Name != "s2b" {
		t.Fatalf("post-recovery append member is %q, want s2b", r.Members()[2].Name)
	}
}

// TestReadWhileAppend extracts pre-existing members concurrently with an
// appending writer on the same file, asserting byte-identity throughout;
// run with -race. Readers opened on a committed generation only ever
// touch bytes that generation owns, which append never rewrites.
func TestReadWhileAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.taca")
	base := []*amr.Dataset{smallSnapshot(t, "s0", 1), smallSnapshot(t, "s1", 2)}
	writeArchiveFile(t, path, base)
	r0, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	want := extractAll(t, r0.Reader)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				// Alternate between the long-lived reader and a freshly
				// opened one (which may land on any committed generation).
				r := r0.Reader
				var fr *FileReader
				if g%2 == 1 {
					var err error
					fr, err = OpenFile(path)
					if err != nil {
						errs <- fmt.Errorf("reader %d: %w", g, err)
						return
					}
					r = fr.Reader
				}
				got, err := extractAllErr(r)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					if fr != nil {
						fr.Close()
					}
					return
				}
				if !sameGrids(want, got[:2]) {
					errs <- fmt.Errorf("reader %d: pre-existing members changed mid-append", g)
					if fr != nil {
						fr.Close()
					}
					return
				}
				if fr != nil {
					fr.Close()
				}
			}
		}(g)
	}

	w, f, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 5; i++ {
		if err := w.AddDataset(smallSnapshot(t, fmt.Sprintf("s%d", i), int64(i+1)), codec.Config{ErrorBound: testEB, Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if n := len(final.Members()); n != 5 {
		t.Fatalf("final archive holds %d members, want 5", n)
	}
}

// TestAppendMisuse pins the error paths of the append API.
func TestAppendMisuse(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.taca")
	if err := os.WriteFile(junk, []byte("not an archive at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenAppendFile(junk); err == nil {
		t.Error("OpenAppendFile accepted junk")
	}
	if _, _, err := OpenAppendFile(filepath.Join(dir, "missing.taca")); err == nil {
		t.Error("OpenAppendFile accepted a missing file")
	}

	path := filepath.Join(dir, "a.taca")
	writeArchiveFile(t, path, []*amr.Dataset{smallSnapshot(t, "s0", 1)})
	w, f, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err == nil {
		t.Error("Commit after Close accepted")
	}
}
