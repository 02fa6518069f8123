package archive

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/sz"
)

// bothWays is the writer's coding rule from before the losing seal was cut
// short, kept as a test-only writer: every batch of a member with a
// reference is sealed in full intra AND as a delta, and the delta frame
// ships only if strictly smaller. It returns the frames in archive
// order with their delta flags. The campaigns it is given never change AMR
// structure, so every level of a referencing member is delta-eligible.
func bothWays(t testing.TB, snaps []*amr.Dataset, keyframe, batchBlocks int, cfg codec.Config) (frames [][]byte, delta []bool) {
	t.Helper()
	cfg = cfg.WithDefaults()
	var enc sz.Encoder[amr.Value]
	var prev [][]*grid.Grid3[amr.Value] // the previous member's reconstruction, per level
	chain := 0
	for _, ds := range snaps {
		useRef := prev != nil && chain+1 < keyframe
		usedDelta := false
		var cur [][]*grid.Grid3[amr.Value]
		for li, l := range ds.Levels {
			opts := sz.Options{ErrorBound: cfg.LevelEB(li, l), QuantBits: cfg.QuantBits}
			var blocks []*grid.Grid3[amr.Value]
			for _, ord := range l.Mask.OccupiedIndices() {
				bx, by, bz := l.Mask.Dim.Coords(ord)
				blocks = append(blocks, l.Grid.Extract(l.BlockRegion(bx, by, bz)))
			}
			ub := grid.Dims{X: l.UnitBlock, Y: l.UnitBlock, Z: l.UnitBlock}
			caps := grid.NewBlocks[amr.Value](ub, len(blocks))
			for lo := 0; lo < len(blocks); lo += batchBlocks {
				hi := min(lo+batchBlocks, len(blocks))
				frame, _, err := enc.CompressBlocksCapture(blocks[lo:hi], opts, caps[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				isDelta := false
				if useRef {
					rec := grid.NewBlocks[amr.Value](ub, hi-lo)
					d, _, err := enc.CompressBlocksDelta(blocks[lo:hi], prev[li][lo:hi], opts, rec)
					if err != nil {
						t.Fatal(err)
					}
					if len(d) < len(frame) {
						frame, isDelta, usedDelta = d, true, true
						for k := range rec {
							copy(caps[lo+k].Data, rec[k].Data)
						}
					}
				}
				frames, delta = append(frames, frame), append(delta, isDelta)
			}
			cur = append(cur, caps)
		}
		chain++
		if !usedDelta {
			chain = 0
		}
		prev = cur
	}
	return frames, delta
}

// writeCampaign archives snaps through AddDataset at the given settings.
func writeCampaign(t testing.TB, snaps []*amr.Dataset, keyframe, batchBlocks, workers int) ([]byte, Stats) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = batchBlocks
	w.Keyframe = keyframe
	for _, ds := range snaps {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB, Workers: workers}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), w.Stats()
}

// rewrite derives the next snapshot of a campaign from ds — identical AMR
// structure — by passing every occupied unit block's cells, with the
// block's ordinal in its level, through f.
func rewrite(ds *amr.Dataset, name string, f func(ord int, cells []amr.Value)) *amr.Dataset {
	out := ds.Clone()
	out.Name = name
	for _, l := range out.Levels {
		for k, ord := range l.Mask.OccupiedIndices() {
			bx, by, bz := l.Mask.Dim.Coords(ord)
			r := l.BlockRegion(bx, by, bz)
			for x := r.X0; x < r.X1; x++ {
				for y := r.Y0; y < r.Y1; y++ {
					i := l.Grid.Dim.Index(x, y, r.Z0)
					f(k, l.Grid.Data[i:i+r.Z1-r.Z0])
				}
			}
		}
	}
	return out
}

// codingCampaigns are campaigns across the writer's coding decisions, at
// a frame size of batchBlocks unit blocks: the drifting one delta coding is
// for; one where snapshots alternate between a rough field and a smooth
// ramp, so that a reference says nothing about its successor; white noise,
// new every step; and a near tie — every other batch of a step gains a
// ramp across each unit block (which the spatial predictor removes and the
// temporal one has to code) on a per-block shift, sized so that the two
// codings come within percents of each other; the rest moves by less than
// a bound; and a tiled one — every unit block the same 16-cell pattern, with
// a random bin or none on top at every other step — where the clean steps'
// spatial code streams are the larger candidates until DEFLATE folds their
// repeats to a tenth of the temporal frames.
func codingCampaigns(t testing.TB, steps, batchBlocks int) map[string][]*amr.Dataset {
	base := testCampaign(t, 1)[0]
	chain := func(base *amr.Dataset, next func(s int, prev *amr.Dataset) *amr.Dataset) []*amr.Dataset {
		snaps := []*amr.Dataset{base}
		for s := 1; s < steps; s++ {
			snaps = append(snaps, next(s, snaps[s-1]))
		}
		return snaps
	}
	name := func(s int) string { return fmt.Sprintf("t%d", s) }
	return map[string][]*amr.Dataset{
		"drifting": testCampaign(t, steps),
		"uncorrelated": chain(base, func(s int, prev *amr.Dataset) *amr.Dataset {
			if s%2 == 0 {
				return rewrite(base, name(s), func(int, []amr.Value) {})
			}
			return rewrite(prev, name(s), func(ord int, cells []amr.Value) {
				for i := range cells {
					cells[i] = amr.Value(float64(ord*len(cells)+i) * 64 * testEB)
				}
			})
		}),
		"noise": chain(base, func(s int, prev *amr.Dataset) *amr.Dataset {
			rng := rand.New(rand.NewSource(int64(100 + s)))
			return rewrite(prev, name(s), func(_ int, cells []amr.Value) {
				for i := range cells {
					cells[i] = amr.Value(rng.NormFloat64() * 500 * testEB)
				}
			})
		}),
		"near-tie": chain(base, func(s int, prev *amr.Dataset) *amr.Dataset {
			rng := rand.New(rand.NewSource(int64(200 + s)))
			last, row := -1, 0
			var shift float64
			return rewrite(prev, name(s), func(ord int, cells []amr.Value) {
				if ord != last {
					last, row, shift = ord, 0, (rng.Float64()*2-1)*50*testEB
				}
				for i := range cells {
					if ord/batchBlocks%2 == 0 {
						cells[i] += amr.Value(shift + 2*testEB*float64(row*len(cells)+i))
					} else {
						cells[i] += amr.Value((rng.Float64()*2 - 1) * testEB / 4)
					}
				}
				row++
			})
		}),
		// (Unit blocks of 8³: frames long enough for DEFLATE to have repeats
		// to fold.)
		"tiled": chain(campaignOf(t, 32, 8, 1)[0], func(s int, prev *amr.Dataset) *amr.Dataset {
			pat := rand.New(rand.NewSource(300))
			var pattern [16]amr.Value
			for i := range pattern {
				pattern[i] = amr.Value(float64(pat.Intn(8)) * 2 * testEB)
			}
			rng := rand.New(rand.NewSource(int64(300 + s)))
			last, row := -1, 0
			return rewrite(prev, name(s), func(ord int, cells []amr.Value) {
				if ord != last {
					last, row = ord, 0
				}
				for i := range cells {
					cells[i] = pattern[(row*len(cells)+i)%len(pattern)]
					if s%2 == 0 {
						cells[i] += amr.Value(float64(rng.Intn(2)) * 2 * testEB)
					}
				}
				row++
			})
		}),
	}
}

// TestWriterCodesLikeBothWays is the byte-identity contract of the
// capped-seal path: on every campaign, at every worker count, each frame the
// writer emits and each delta flag it records is what sealing the batch
// both ways would have shipped; no member outweighs its Keyframe=0
// counterpart; and every member — chain depth Keyframe−1 included —
// decodes within the error bound.
func TestWriterCodesLikeBothWays(t *testing.T) {
	const keyframe, batchBlocks, steps = 4, 8, 6
	for name, snaps := range codingCampaigns(t, steps, batchBlocks) {
		mixed := false // some member ships both intra and delta batches
		wantFrames, wantDelta := bothWays(t, snaps, keyframe, batchBlocks, codec.Config{ErrorBound: testEB})
		intra, _ := writeCampaign(t, snaps, 0, batchBlocks, 1)
		ir, err := Open(bytes.NewReader(intra), int64(len(intra)))
		if err != nil {
			t.Fatal(err)
		}
		var serial []byte
		for _, workers := range []int{1, 2, 4} {
			blob, _ := writeCampaign(t, snaps, keyframe, batchBlocks, workers)
			if workers == 1 {
				serial = blob
			} else if !bytes.Equal(blob, serial) {
				t.Fatalf("%s: workers=%d archive differs from serial (%d vs %d bytes)", name, workers, len(blob), len(serial))
			}
			r, err := Open(bytes.NewReader(blob), int64(len(blob)))
			if err != nil {
				t.Fatal(err)
			}
			f, depth, deepest := 0, 0, 0
			for mi, m := range r.Members() {
				if depth++; m.Ref < 0 {
					depth = 0
				}
				deepest = max(deepest, depth)
				var size, intraSize int64
				deltas, intras := 0, 0
				for li := range m.Levels {
					idx := &m.Levels[li]
					size += idx.CompressedBytes()
					intraSize += ir.Members()[mi].Levels[li].CompressedBytes()
					for b, rec := range idx.Batches {
						if f >= len(wantFrames) {
							t.Fatalf("%s: archive holds more than the %d frames expected", name, len(wantFrames))
						}
						got := blob[rec.Offset : rec.Offset+rec.Length]
						if idx.IsDelta(b) != wantDelta[f] || !bytes.Equal(got, wantFrames[f]) {
							t.Fatalf("%s workers=%d: member %d level %d batch %d: delta=%v %d bytes, sealing both ways ships delta=%v %d bytes",
								name, workers, mi, li, b, idx.IsDelta(b), len(got), wantDelta[f], len(wantFrames[f]))
						}
						if wantDelta[f] {
							deltas++
						} else {
							intras++
						}
						f++
					}
				}
				mixed = mixed || deltas > 0 && intras > 0
				t.Logf("%s workers=%d member %d: %d delta + %d intra batches, %d bytes (%d intra)", name, workers, mi, deltas, intras, size, intraSize)
				if size > intraSize {
					t.Errorf("%s: member %d is %d frame bytes, %d with Keyframe off", name, mi, size, intraSize)
				}
				recon, err := r.Extract(mi)
				if err != nil {
					t.Fatal(err)
				}
				for li, l := range snaps[mi].Levels {
					if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > testEB {
						t.Errorf("%s: member %d (chain depth %d) level %d max err %.4g > bound %.4g", name, mi, depth, li, worst, testEB)
					}
				}
			}
			if f != len(wantFrames) {
				t.Fatalf("%s: archive holds %d frames, expected %d", name, f, len(wantFrames))
			}
			// (Where every other member is best coded intra, chains restart.)
			if name != "uncorrelated" && name != "tiled" && deepest != keyframe-1 {
				t.Errorf("%s: deepest chain %d, want %d", name, deepest, keyframe-1)
			}
			if name == "near-tie" && !mixed {
				t.Errorf("%s: no member mixes intra and delta batches", name)
			}
		}
	}
}

// TestWritePoolBounds checks what the encode pool may not change: frames
// laid down back to back in level-then-batch order, and never more than one
// gathered batch per worker.
func TestWritePoolBounds(t *testing.T) {
	const batchBlocks, workers = 4, 4
	snaps := testCampaign(t, 3)
	blob, st := writeCampaign(t, snaps, 3, batchBlocks, workers)
	ub := snaps[0].Levels[0].UnitBlock
	if limit := int64(workers * batchBlocks * ub * ub * ub); st.PeakGatheredValues == 0 || st.PeakGatheredValues > limit {
		t.Errorf("peak gathered %d values, want (0, %d]", st.PeakGatheredValues, limit)
	}
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	next := int64(headerLen)
	for mi, m := range r.Members() {
		if len(m.Levels) < 2 {
			t.Fatalf("member %d has %d levels: no level boundary to check the order across", mi, len(m.Levels))
		}
		for li := range m.Levels {
			for b, rec := range m.Levels[li].Batches {
				if rec.Offset != next {
					t.Fatalf("member %d level %d batch %d at offset %d, want %d", mi, li, b, rec.Offset, next)
				}
				next += rec.Length
			}
		}
	}
}

// TestAddDatasetFailureReleasesWriter checks that a member that fails
// mid-way is not indexed and leaves the writer usable.
func TestAddDatasetFailureReleasesWriter(t *testing.T) {
	snaps := testCampaign(t, 2)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddDataset(snaps[0], codec.Config{ErrorBound: -1, Workers: 2}); err == nil {
		t.Fatal("negative error bound accepted")
	}
	if err := w.AddDataset(snaps[1], codec.Config{ErrorBound: testEB, Workers: 2}); err != nil {
		t.Fatalf("writer unusable after a failed member: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(w.Members()); n != 1 {
		t.Fatalf("archive indexes %d members, want 1", n)
	}
}

// tornSink is a sink whose write that reaches byte failAt lands only up to
// it and fails; every other write, before or after, goes through.
type tornSink struct {
	bytes.Buffer
	failAt int // -1: no failure to come
}

func (s *tornSink) Write(p []byte) (int, error) {
	if s.failAt >= 0 && s.Len()+len(p) > s.failAt {
		n, _ := s.Buffer.Write(p[:s.failAt-s.Len()])
		s.failAt = -1
		return n, errors.New("sink full")
	}
	return s.Buffer.Write(p)
}

// checkTornArchive opens s after a torn write and checks that member i
// decodes to what a clean archive of ds alone decodes to.
func checkTornArchive(t *testing.T, s *tornSink, i int, ds *amr.Dataset) {
	t.Helper()
	clean, _ := writeCampaign(t, []*amr.Dataset{ds}, 0, 0, 2)
	want, err := Open(bytes.NewReader(clean), int64(len(clean)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(bytes.NewReader(s.Bytes()), int64(s.Len()))
	if err != nil {
		t.Fatalf("archive after a torn write: %v", err)
	}
	got, err := r.Extract(i)
	if err != nil {
		t.Fatalf("member %d after a torn write: %v", i, err)
	}
	wantDS, err := want.Extract(0)
	if err != nil {
		t.Fatal(err)
	}
	for li := range wantDS.Levels {
		if !slices.Equal(got.Levels[li].Grid.Data, wantDS.Levels[li].Grid.Data) {
			t.Fatalf("member %d level %d differs from a clean archive's", i, li)
		}
	}
}

// TestPartialSinkWriteMember: a member whose sink write lands half a frame
// and fails is not indexed, and the next member's frames are indexed where
// they landed, after those bytes. The failed member's grids are
// overwritten as soon as AddDataset returns: under -race, a frame still
// reading them would show. Frames of two blocks keep several in flight
// when the first one fails.
func TestPartialSinkWriteMember(t *testing.T) {
	const batchBlocks = 2
	snaps := testCampaign(t, 2)
	probe, _ := writeCampaign(t, snaps[:1], 0, batchBlocks, 2)
	pr, err := Open(bytes.NewReader(probe), int64(len(probe)))
	if err != nil {
		t.Fatal(err)
	}
	frame0 := pr.Members()[0].Levels[0].Batches[0]
	s := &tornSink{failAt: int(frame0.Offset + frame0.Length/2)}
	w, err := NewWriter(s)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = batchBlocks
	if err := w.AddDataset(snaps[0], codec.Config{ErrorBound: testEB, Workers: 2}); err == nil {
		t.Fatal("member written through a failed sink write")
	}
	for _, l := range snaps[0].Levels {
		for i := range l.Grid.Data { // element by element: -race missed this race through clear
			l.Grid.Data[i] = 1
		}
	}
	if err := w.AddDataset(snaps[1], codec.Config{ErrorBound: testEB, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkTornArchive(t, s, 0, snaps[1])
}

// TestPartialSinkWriteCommit: a commit whose footer write lands in part
// and fails leaves the writer's offsets true, so the member added after
// it, and the commit after that, read back.
func TestPartialSinkWriteCommit(t *testing.T) {
	snaps := testCampaign(t, 2)
	s := &tornSink{failAt: -1}
	w, err := NewWriter(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddDataset(snaps[0], codec.Config{ErrorBound: testEB, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	s.failAt = s.Len() + 3
	if err := w.Commit(); err == nil {
		t.Fatal("commit through a failed sink write")
	}
	if err := w.AddDataset(snaps[1], codec.Config{ErrorBound: testEB, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkTornArchive(t, s, 0, snaps[0])
	checkTornArchive(t, s, 1, snaps[1])
}
