package archive

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/sz"
)

const testEB = 1e9

// testSnapshots generates a small two-timestep, two-field campaign.
func testSnapshots(t testing.TB) []*amr.Dataset {
	t.Helper()
	var out []*amr.Dataset
	for ti, frac := range [][]float64{{0.25, 0.75}, {0.55, 0.45}} {
		for _, field := range []sim.Field{sim.BaryonDensity, sim.Temperature} {
			spec := sim.Spec{
				Name: fmt.Sprintf("snap%d", ti), FinestN: 32, Levels: 2,
				UnitBlock: 4, Seed: int64(100 + ti), LeafFractions: frac,
			}
			ds, err := sim.Generate(spec, field)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ds)
		}
	}
	return out
}

// buildArchive writes the snapshots into an in-memory archive.
func buildArchive(t testing.TB, snaps []*amr.Dataset, cfg codec.Config, batchBlocks int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = batchBlocks
	for _, ds := range snaps {
		if err := w.AddDataset(ds, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countingReaderAt counts the bytes fetched through ReadAt.
type countingReaderAt struct {
	r    io.ReaderAt
	read atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.read.Add(int64(n))
	return n, err
}

// maskedMaxErr returns the largest absolute error over blocks marked in
// both masks.
func maskedMaxErr(orig, recon *amr.Level, m *grid.Mask) float64 {
	var worst float64
	for _, ord := range m.OccupiedIndices() {
		bx, by, bz := m.Dim.Coords(ord)
		r := orig.BlockRegion(bx, by, bz)
		a := orig.Grid.Extract(r)
		b := recon.Grid.Extract(r)
		if d := grid.MaxAbsDiff(a, b); d > worst {
			worst = d
		}
	}
	return worst
}

func TestRoundTrip(t *testing.T) {
	snaps := testSnapshots(t)
	cfg := codec.Config{ErrorBound: testEB}
	blob := buildArchive(t, snaps, cfg, 16)

	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Members()); got != len(snaps) {
		t.Fatalf("archive holds %d members, want %d", got, len(snaps))
	}
	for i, ds := range snaps {
		m := r.Members()[i]
		if m.Name != ds.Name || m.Field != ds.Field {
			t.Fatalf("member %d is %s/%s, want %s/%s", i, m.Name, m.Field, ds.Name, ds.Field)
		}
		if m.StoredCells() != ds.StoredCells() {
			t.Fatalf("member %d stores %d cells, want %d", i, m.StoredCells(), ds.StoredCells())
		}
		recon, err := r.Extract(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := recon.Validate(); err != nil {
			t.Fatalf("member %d reconstruction invalid: %v", i, err)
		}
		for li, l := range ds.Levels {
			rl := recon.Levels[li]
			if !bytes.Equal(l.Mask.AppendPacked(nil), rl.Mask.AppendPacked(nil)) {
				t.Fatalf("member %d level %d mask mismatch", i, li)
			}
			if worst := maskedMaxErr(l, rl, l.Mask); worst > testEB {
				t.Fatalf("member %d level %d max err %.4g > bound %.4g", i, li, worst, testEB)
			}
		}
	}
}

func TestFind(t *testing.T) {
	snaps := testSnapshots(t)
	blob := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 16)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if i := r.Find("snap1", string(sim.Temperature)); i != 3 {
		t.Fatalf("Find(snap1, temperature) = %d, want 3", i)
	}
	if i := r.Find("snap0", ""); i != 0 {
		t.Fatalf("Find(snap0, any) = %d, want 0", i)
	}
	if i := r.Find("nope", ""); i != -1 {
		t.Fatalf("Find(nope) = %d, want -1", i)
	}
}

// TestParallelWriterMatchesSerial checks the worker-pool pipeline emits a
// byte-identical archive.
func TestParallelWriterMatchesSerial(t *testing.T) {
	snaps := testSnapshots(t)
	serial := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 16)
	parallel := buildArchive(t, snaps, codec.Config{ErrorBound: testEB, Workers: -1}, 16)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel archive differs from serial (%d vs %d bytes)", len(parallel), len(serial))
	}

	// The pool over a member's levels at Workers 2 and -1 against one
	// worker: Abs and Rel (whose ranges the pool scans span by span), intra
	// and Keyframe=4, on members whose extreme and non-finite cells sit
	// where a batch span starts.
	const batchBlocks = 2
	edges := rangeEdgeCampaign(t, batchBlocks)
	for _, cfg := range []codec.Config{{ErrorBound: testEB}, {ErrorBound: 1e-3, Mode: sz.Rel}} {
		for _, keyframe := range []int{0, 4} {
			cfg.Workers = 1
			want := writeMembers(t, edges, keyframe, batchBlocks, cfg)
			for _, workers := range []int{2, -1} {
				cfg.Workers = workers
				if got := writeMembers(t, edges, keyframe, batchBlocks, cfg); !bytes.Equal(got, want) {
					t.Errorf("mode %d keyframe %d workers %d: %d bytes, one worker writes %d",
						cfg.Mode, keyframe, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestRandomAccessLevel is the random-access proof for single-level
// extraction: pulling one coarse level of one member out of a multi-member
// archive must read only the index and that level's frames.
func TestRandomAccessLevel(t *testing.T) {
	snaps := testSnapshots(t)
	blob := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 16)

	cr := &countingReaderAt{r: bytes.NewReader(blob)}
	r, err := Open(cr, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	indexBytes := cr.read.Load()
	l, err := r.ExtractLevel(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	read := cr.read.Load()

	want := snaps[2].Levels[1]
	if worst := maskedMaxErr(want, l, want.Mask); worst > testEB {
		t.Fatalf("level max err %.4g > bound %.4g", worst, testEB)
	}
	// The touched frames must be exactly the level's compressed extent.
	frames := read - indexBytes
	if lvl := r.Members()[2].Levels[1].CompressedBytes(); frames != lvl {
		t.Fatalf("read %d frame bytes, level holds %d", frames, lvl)
	}
	if frac := float64(read) / float64(len(blob)); frac > 0.30 {
		t.Fatalf("extracting one of 8 levels read %.0f%% of the archive", frac*100)
	}
}

// TestRandomAccessRegion is the random-access proof for spatial queries:
// an octant ROI reads a small fraction of the archive and reconstructs
// within the bound.
func TestRandomAccessRegion(t *testing.T) {
	snaps := testSnapshots(t)
	blob := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 4)

	cr := &countingReaderAt{r: bytes.NewReader(blob)}
	r, err := Open(cr, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	roi := grid.Region{X0: 0, Y0: 0, Z0: 0, X1: 16, Y1: 16, Z1: 16} // one octant of 32³
	part, err := r.ExtractRegion(1, roi)
	if err != nil {
		t.Fatal(err)
	}
	read := cr.read.Load()

	orig := snaps[1]
	scale := 1
	covered := 0
	for li, l := range orig.Levels {
		pm := part.Levels[li].Mask
		ub := l.UnitBlock
		md := l.Mask.Dim
		for bx := 0; bx < md.X; bx++ {
			for by := 0; by < md.Y; by++ {
				for bz := 0; bz < md.Z; bz++ {
					// The block's finest-resolution extent intersects the
					// (origin-anchored) ROI iff its lower corner is inside.
					intersects := bx*ub*scale < roi.X1 && by*ub*scale < roi.Y1 && bz*ub*scale < roi.Z1
					if l.Mask.At(bx, by, bz) && intersects {
						if !pm.At(bx, by, bz) {
							t.Fatalf("level %d block (%d,%d,%d) intersects ROI but was not extracted", li, bx, by, bz)
						}
					}
					if !l.Mask.At(bx, by, bz) && pm.At(bx, by, bz) {
						t.Fatalf("level %d block (%d,%d,%d) extracted but never stored", li, bx, by, bz)
					}
				}
			}
		}
		covered += pm.Count()
		if worst := maskedMaxErr(l, part.Levels[li], pm); worst > testEB {
			t.Fatalf("level %d ROI max err %.4g > bound %.4g", li, worst, testEB)
		}
		scale *= orig.Ratio
	}
	if covered == 0 {
		t.Fatal("ROI extraction covered no blocks")
	}
	if frac := float64(read) / float64(len(blob)); frac > 0.20 {
		t.Fatalf("octant ROI of one of four members read %.0f%% of the archive", frac*100)
	}
}

// TestStreamingWriter checks that frames flow out member by member (not
// buffered until Close) and that the pipeline never gathers more than one
// batch per worker uncompressed.
func TestStreamingWriter(t *testing.T) {
	snaps := testSnapshots(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 8
	const workers = 2
	cfg := codec.Config{ErrorBound: testEB, Workers: workers}

	prev := buf.Len()
	for _, ds := range snaps {
		if err := w.AddDataset(ds, cfg); err != nil {
			t.Fatal(err)
		}
		if buf.Len() <= prev {
			t.Fatalf("%s: no bytes streamed out", ds.Name)
		}
		prev = buf.Len()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ub := snaps[0].Levels[0].UnitBlock
	limit := int64(workers * w.BatchBlocks * ub * ub * ub)
	if peak := w.Stats().PeakGatheredValues; peak == 0 || peak > limit {
		t.Fatalf("peak gathered %d values, want (0, %d]", peak, limit)
	}
	if st := w.Stats(); st.BytesWritten != int64(buf.Len()) || st.Members != len(snaps) {
		t.Fatalf("stats %+v disagree with buffer %d / members %d", st, buf.Len(), len(snaps))
	}
}

// TestConcurrentReaders extracts from one Reader in many goroutines; run
// with -race.
func TestConcurrentReaders(t *testing.T) {
	snaps := testSnapshots(t)
	blob := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 16)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := r.Extract(g % len(snaps)); err != nil {
				errs <- err
			}
			if _, err := r.ExtractLevel(g%len(snaps), g%2); err != nil {
				errs <- err
			}
			roi := grid.Region{X0: 8 * (g % 3), Y0: 0, Z0: 0, X1: 8*(g%3) + 8, Y1: 32, Z1: 32}
			if _, err := r.ExtractRegion(g%len(snaps), roi); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCorruptArchive(t *testing.T) {
	snaps := testSnapshots(t)[:1]
	blob := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 16)

	open := func(b []byte) error {
		_, err := Open(bytes.NewReader(b), int64(len(b)))
		return err
	}
	if err := open(blob[:10]); err == nil {
		t.Error("truncated archive accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if err := open(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), blob...)
	bad[4] = 99
	if err := open(bad); err == nil {
		t.Error("unsupported version accepted")
	}
	// Truncating the tail destroys the trailer magic.
	if err := open(blob[:len(blob)-3]); err == nil {
		t.Error("truncated trailer accepted")
	}
	// Oversized footer length.
	bad = append([]byte(nil), blob...)
	for i := 0; i < 8; i++ {
		bad[len(bad)-16+i] = 0xff
	}
	if err := open(bad); err == nil {
		t.Error("oversized footer length accepted")
	}
	// Footer bytes scribbled: must error out, not panic.
	bad = append([]byte(nil), blob...)
	for i := len(bad) - 100; i < len(bad)-16; i++ {
		bad[i] ^= 0x5a
	}
	if err := open(bad); err == nil {
		t.Error("corrupt footer accepted")
	}
}

// TestRelativeBoundPerLevel checks Rel-mode archives resolve the bound
// against each level's own value range, like the one-shot codec.
func TestRelativeBoundPerLevel(t *testing.T) {
	snaps := testSnapshots(t)[:1]
	cfg := codec.Config{ErrorBound: 1e-3, Mode: 1} // sz.Rel
	blob := buildArchive(t, snaps, cfg, 16)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	recon, err := r.Extract(0)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range snaps[0].Levels {
		eb := cfg.LevelEB(li, l)
		if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > eb*(1+1e-12) {
			t.Fatalf("level %d max err %.6g > resolved bound %.6g", li, worst, eb)
		}
	}
}

func TestWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ds := testSnapshots(t)[0]
	r0 := *ds
	r0.Ratio = 0
	if err := w.AddDataset(&r0, codec.Config{ErrorBound: 1}); err == nil {
		t.Error("refinement ratio 0 accepted (would divide by zero in ExtractRegion)")
	}
	empty := *ds
	empty.Levels = nil
	if err := w.AddDataset(&empty, codec.Config{ErrorBound: 1}); err == nil {
		t.Error("empty member accepted")
	}
	if n := len(w.Members()); n != 0 {
		t.Fatalf("%d members indexed after two refused ones", n)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("closing empty archive: %v", err)
	}
	if err := w.AddDataset(ds, codec.Config{ErrorBound: 1}); err == nil {
		t.Error("AddDataset after Close accepted")
	}
	// An empty archive still round-trips.
	if _, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err != nil {
		t.Fatalf("empty archive: %v", err)
	}
}

// TestAddDatasetRefusesRatioPowers: ratio 65536 over three levels makes
// the coarsest level's scale 2^32, which Open refuses; AddDataset refuses
// it before writing a byte.
func TestAddDatasetRefusesRatioPowers(t *testing.T) {
	ds := &amr.Dataset{Name: "ratio", Field: "f", Ratio: 65536}
	for range 3 {
		ds.Levels = append(ds.Levels, amr.NewLevel(grid.Dims{X: 8, Y: 8, Z: 8}, 4))
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddDataset(ds, codec.Config{ErrorBound: 1}); err == nil {
		t.Fatal("ratio 65536 over three levels accepted")
	}
	if buf.Len() != headerLen || len(w.Members()) != 0 {
		t.Fatalf("the refused member left %d bytes and %d members", buf.Len(), len(w.Members()))
	}
}

func TestExtractRegionOutside(t *testing.T) {
	snaps := testSnapshots(t)[:1]
	blob := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 16)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExtractRegion(0, grid.Region{X0: 100, Y0: 0, Z0: 0, X1: 200, Y1: 10, Z1: 10}); err == nil {
		t.Error("out-of-domain ROI accepted")
	}
	if _, err := r.ExtractLevel(0, 7); err == nil {
		t.Error("missing level accepted")
	}
	if _, err := r.Extract(42); err == nil {
		t.Error("missing member accepted")
	}
}

// TestBatchSizeSweep round-trips several batch granularities, including
// one that leaves a short final batch.
func TestBatchSizeSweep(t *testing.T) {
	snaps := testSnapshots(t)[:1]
	for _, bb := range []int{1, 3, 16, 1024} {
		blob := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, bb)
		r, err := Open(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			t.Fatalf("batch %d: %v", bb, err)
		}
		recon, err := r.Extract(0)
		if err != nil {
			t.Fatalf("batch %d: %v", bb, err)
		}
		for li, l := range snaps[0].Levels {
			if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > testEB {
				t.Fatalf("batch %d level %d max err %.4g", bb, li, worst)
			}
		}
	}
}

func TestMemberAccounting(t *testing.T) {
	snaps := testSnapshots(t)[:1]
	blob := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 16)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Members()[0]
	if m.OriginalBytes() != int64(snaps[0].OriginalBytes()) {
		t.Fatalf("original bytes %d, want %d", m.OriginalBytes(), snaps[0].OriginalBytes())
	}
	if c := m.CompressedBytes(); c <= 0 || c >= m.OriginalBytes() {
		t.Fatalf("compressed bytes %d outside (0, %d)", c, m.OriginalBytes())
	}
	if m.ErrorBound != testEB {
		t.Fatalf("recorded bound %v, want %v", m.ErrorBound, testEB)
	}
}
