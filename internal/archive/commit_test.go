package archive

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/amr"
	"repro/internal/bitio"
	"repro/internal/codec"
	"repro/internal/sz"
)

// encodeFooter serializes the member index from scratch — the count, then
// every member's record — as Commit did before the Writer kept records
// between commits: the oracle Writer.footer is held to.
func encodeFooter(members []Member) ([]byte, error) {
	out := bitio.AppendUvarint(nil, uint64(len(members)))
	for mi := range members {
		var err error
		if out, err = appendMemberRecord(out, mi, &members[mi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lastFooter returns the footer bytes of the newest generation of the
// archive file at path and the footer version its trailer names.
func lastFooter(t testing.TB, path string) ([]byte, int) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	k := trailerByMagic([8]byte(blob[len(blob)-8:]))
	if k == nil {
		t.Fatalf("%s: no trailer magic at the end", path)
	}
	trailer := blob[len(blob)-int(k.size()):]
	flen, _, _ := parseTrailer(k, trailer)
	return blob[len(blob)-len(trailer)-int(flen) : len(blob)-len(trailer)], k.ver
}

// indexOf is what a Reader knows apart from its source, with the two
// differences between a parsed and a written index that no caller can see
// removed: an empty digest slice against none, on a level without frames,
// and the block-order cache (LevelIndex.Ords), a function of the mask,
// which is compared, and never equal under reflect.DeepEqual.
func indexOf(r *Reader) (int64, uint64, int, []Member) {
	members := slices.Clone(r.members)
	for mi := range members {
		members[mi].Levels = slices.Clone(members[mi].Levels)
		for li := range members[mi].Levels {
			idx := &members[mi].Levels[li]
			if len(idx.Sums) == 0 {
				idx.Sums = nil
			}
			idx.ords = nil
		}
	}
	return r.size, r.gen, r.ver, members
}

// TestIncrementalFooterAndView drives file-backed writers through random
// sequences of AddDataset, Commit and close-and-reopen-for-append, over
// two fields with and without delta coding, starting from a fresh file or
// from a legacy fixture, whose members' digests OpenAppend backfills
// before the writer codes a record of them. After every commit the footer
// in the file must be byte for byte encodeFooter over the whole index —
// the writer codes only the members sealed since the last commit — and
// Writer.View must equal, field for field, what Open parses from the
// file. A legacy file nothing was committed to since must be as it was.
func TestIncrementalFooterAndView(t *testing.T) {
	campaign := campaignOf(t, 16, 4, 6)
	var pool []*amr.Dataset
	for _, ds := range campaign {
		other := ds.Clone()
		other.Field = "temperature"
		pool = append(pool, ds, other)
	}
	cfg := codec.Config{ErrorBound: testEB}
	upgraded := map[string]bool{}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "prop.taca")
		start := "fresh"
		if seed%2 == 0 {
			// The four legacy layouts in turn.
			start = legacyFixtures[seed/2%4].name
			if err := os.WriteFile(path, fixture(t, start), 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			writeArchiveFile(t, path, pool[:1])
		}
		startBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		keyframe := []int{0, 3}[rng.Intn(2)]
		open := func() (*Writer, *os.File) {
			w, f, err := OpenAppendFile(path)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			w.BatchBlocks, w.Keyframe = 8, keyframe
			return w, f
		}
		w, f := open()
		next := 1
		check := func(op int) {
			footer, ver := lastFooter(t, path)
			if ver != currentTrailer.ver {
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, startBytes) {
					t.Fatalf("seed %d op %d: a v%d tail that is not the %s start (err %v)", seed, op, ver, start, err)
				}
				return
			}
			upgraded[start] = true
			want, err := encodeFooter(w.Members())
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if !bytes.Equal(footer, want) {
				t.Fatalf("seed %d op %d: footer over %d members differs from encodeFooter from scratch", seed, op, len(w.Members()))
			}
			view, err := w.View(f)
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			st, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			opened, err := Open(f, st.Size())
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			ve, vg, vv, vm := indexOf(view)
			oe, og, ov, om := indexOf(opened)
			if ve != oe || vg != og || vv != ov {
				t.Fatalf("seed %d op %d: view ends at %d, generation %d, v%d; Open says %d, %d, v%d", seed, op, ve, vg, vv, oe, og, ov)
			}
			if !reflect.DeepEqual(vm, om) {
				t.Fatalf("seed %d op %d: view's members differ from Open's", seed, op)
			}
		}
		for op := 0; op < 14; op++ {
			switch k := rng.Intn(10); {
			case k < 5:
				if err := w.AddDataset(pool[next%len(pool)], cfg); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				next++
				if _, err := w.View(f); err == nil {
					t.Fatalf("seed %d op %d: View of a writer with an uncommitted member", seed, op)
				}
			case k < 8:
				if err := w.Commit(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				check(op)
			default:
				if err := w.Close(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				f.Close()
				w, f = open()
				check(op)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check(-1)
		f.Close()
	}
	for _, start := range []string{"fresh", "legacy_v1.hex", "legacy_v1_appended.hex", "legacy_v2.hex", "legacy_v3.hex"} {
		if !upgraded[start] {
			t.Errorf("no sequence starting from %s committed", start)
		}
	}
}

// TestRetainedMatchesDecodeBatch holds what Writer.Retained hands out to
// what a Reader decodes from the frames, bit for bit: after every member of
// a two-field Keyframe=3 campaign, and again for the references a reopened
// writer primes from the file. Only the newest member of each field is
// retained, and an intra-mode writer retains nothing.
func TestRetainedMatchesDecodeBatch(t *testing.T) {
	var snaps []*amr.Dataset
	for _, ds := range campaignOf(t, 32, 4, 5) {
		other := ds.Clone()
		other.Field = "temperature"
		snaps = append(snaps, ds, other)
	}
	cfg := codec.Config{ErrorBound: testEB, Workers: 2}
	path := filepath.Join(t.TempDir(), "tail.taca")
	writeArchiveFile(t, path, snaps[:1])

	check := func(w *Writer, r *Reader, wantMembers []int) {
		t.Helper()
		tail := w.Retained()
		var got []int
		for mi := range tail {
			got = append(got, mi)
		}
		slices.Sort(got)
		if !slices.Equal(got, wantMembers) {
			t.Fatalf("retained members %v, want %v", got, wantMembers)
		}
		for mi, levels := range tail {
			m := &r.Members()[mi]
			if len(levels) != len(m.Levels) {
				t.Fatalf("member %d: %d retained levels, index has %d", mi, len(levels), len(m.Levels))
			}
			for li := range m.Levels {
				idx := &m.Levels[li]
				if len(levels[li]) != idx.Mask.Count() {
					t.Fatalf("member %d level %d: %d retained blocks, mask has %d", mi, li, len(levels[li]), idx.Mask.Count())
				}
				for b := range idx.Batches {
					want, err := r.DecodeBatch(mi, li, b)
					if err != nil {
						t.Fatal(err)
					}
					lo, hi := idx.BatchSpan(b)
					for k, blk := range levels[li][lo:hi] {
						if blk.Dim != want[k].Dim || !sameBits(blk.Data, want[k].Data) {
							t.Fatalf("member %d level %d batch %d block %d: retained reconstruction differs from the decoded frame", mi, li, b, k)
						}
					}
				}
			}
		}
	}

	w, f, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Retained() != nil {
		t.Fatal("a writer that has coded nothing retains something")
	}
	w.BatchBlocks, w.Keyframe = 8, 3
	for i, ds := range snaps[1:6] {
		if err := w.AddDataset(ds, cfg); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		// The newest member of each field: i+1, just written, and i before
		// it. Member 0 is another writer's and is never retained here.
		want := []int{i, i + 1}
		if i == 0 {
			want = []int{1}
		}
		r, err := w.View(f)
		if err != nil {
			t.Fatal(err)
		}
		check(w, r, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopened: priming a field's reference, as adding a member of it does,
	// decodes it from the file — member 4 here — and that reconstruction is
	// retained like one the writer made itself. Member 4 is two links deep,
	// so at Keyframe 3 the next member is a keyframe and nothing is decoded;
	// at Keyframe 4 it may reference member 4.
	w, f, err = OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w.BatchBlocks = 8
	r, err := w.View(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []struct {
		keyframe int
		want     []int
	}{{3, nil}, {4, []int{4}}} {
		w.Keyframe = k.keyframe
		if _, err := w.primed(snaps[6].Field); err != nil {
			t.Fatal(err)
		}
		check(w, r, k.want)
	}

	iw, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := iw.AddDataset(snaps[0], cfg); err != nil {
		t.Fatal(err)
	}
	if iw.Retained() != nil {
		t.Fatal("an intra-mode writer retains a reconstruction")
	}
}

// TestRetainedSignedZero is TestRetainedMatchesDecodeBatch where a
// residual rounds to -0 on a -0 reference: snapshot 0 holds a -0 literal
// (right after a spike that no prediction reaches), and snapshot 1, the
// same but for a small negative value in its place, is coded against it.
// The encoder's step there is +0, as the decoder's is, so the retained
// reconstruction is the decoded +0, not -0 + -0.
func TestRetainedSignedZero(t *testing.T) {
	s0 := campaignOf(t, 16, 4, 1)[0]
	l := s0.Levels[0]
	r := l.BlockRegion(l.Mask.Dim.Coords(l.Mask.OccupiedIndices()[0]))
	spike, zero := l.Grid.Dim.Index(r.X0, r.Y0, r.Z0), l.Grid.Dim.Index(r.X0, r.Y0, r.Z0+1)
	l.Grid.Data[spike], l.Grid.Data[zero] = 1e30, amr.Value(math.Copysign(0, -1))
	s1 := s0.Clone()
	s1.Name = "t1"
	s1.Levels[0].Grid.Data[zero] = -testEB / 4

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks, w.Keyframe = 8, 4
	for _, ds := range []*amr.Dataset{s0, s1} {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	rd, err := w.View(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Block 0 of member 0's level 0 is cell 1 the -0 literal; in member 1,
	// a delta frame, the -0 step on it.
	frame := rd.Members()[1].Levels[0].Batches[0]
	info, err := sz.PeekBatch(buf.Bytes()[frame.Offset : frame.Offset+frame.Length])
	if err != nil || !info.Delta {
		t.Fatalf("member 1 frame 0: %+v, %v; want a delta frame", info, err)
	}
	for mi, want := range map[int]uint32{0: 0x80000000, 1: 0} {
		got, err := rd.DecodeBatch(mi, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float32bits(got[0].Data[1]); bits != want {
			t.Fatalf("member %d decodes the cell to %#x, want %#x", mi, bits, want)
		}
	}
	tail := w.Retained()[1]
	for li := range rd.Members()[1].Levels {
		idx := &rd.Members()[1].Levels[li]
		for b := range idx.Batches {
			want, err := rd.DecodeBatch(1, li, b)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := idx.BatchSpan(b)
			for k, blk := range tail[li][lo:hi] {
				if !sameBits(blk.Data, want[k].Data) {
					t.Fatalf("level %d batch %d block %d: retained reconstruction differs from the decoded frame", li, b, k)
				}
			}
		}
	}
}

// committedWriter returns an in-memory intra writer with n members
// committed one commit each, and the snapshot they were made from.
func committedWriter(t testing.TB, n int) (*Writer, *amr.Dataset, codec.Config) {
	t.Helper()
	ds := smallSnapshot(t, "s", 5)
	cfg := codec.Config{ErrorBound: testEB}
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 8
	for i := 0; i < n; i++ {
		if err := w.AddDataset(ds, cfg); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return w, ds, cfg
}

// TestCommitCostDoesNotGrow: committing one more member allocates the same
// whether 8 or 128 are committed already — the footer is extended, not
// coded again (at the parent every commit deflated every mask of every
// member: 16 more allocations per member already there). Only Commit's own
// allocations are counted: AddDataset's encode path draws on sync.Pools,
// which the race detector drops Puts from at random.
func TestCommitCostDoesNotGrow(t *testing.T) {
	const rounds = 8
	allocs := func(n int) float64 {
		w, ds, cfg := committedWriter(t, n)
		var before, after runtime.MemStats
		var total uint64
		for range rounds {
			if err := w.AddDataset(ds, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			total += after.Mallocs - before.Mallocs
		}
		return float64(total) / rounds
	}
	at8, at128 := allocs(8), allocs(128)
	t.Logf("Commit: %.1f allocations on top of 8 members, %.1f on top of 128", at8, at128)
	// Slack for the amortized growth of the member and record slices.
	if at128 > at8+32 {
		t.Fatalf("a commit allocates %.1f times on top of 8 members, %.1f on top of 128", at8, at128)
	}
}

// BenchmarkCommitGrowing times Commit alone, one new member sealed, on top
// of 8, 32 and 128 committed ones.
func BenchmarkCommitGrowing(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			w, ds, cfg := committedWriter(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := w.AddDataset(ds, cfg); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := w.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
