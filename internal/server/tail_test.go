package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/grid"
)

// tailCampaign is a two-field campaign of steps drifting snapshots per
// field, interleaved A0 B0 A1 B1 …, every one at the same AMR structure.
func tailCampaign(t testing.TB, steps int) []*amr.Dataset {
	t.Helper()
	_, as := campaignArchiveBytes(t, steps, 0, 8)
	var out []*amr.Dataset
	for i, a := range as {
		b := driftSnap(a, fmt.Sprintf("d%d", i), int64(500+i))
		b.Field = "temperature"
		out = append(out, a, b)
	}
	return out
}

// newTailServer writes snaps[0] to a fresh archive file and serves it
// writably as "test" in campaign mode.
func newTailServer(t testing.TB, first *amr.Dataset, keyframe int) (*Server, *servedArchive, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "live.taca")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := archive.NewWriter(f)
	if err == nil {
		if err = w.AddDataset(first, codec.Config{ErrorBound: deltaEB}); err == nil {
			err = w.Close()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2})
	t.Cleanup(func() { s.Close() })
	_, err = s.Add("test", ArchiveSpec{
		Primary: path, Append: true, Keyframe: keyframe,
		Ingest: codec.Config{ErrorBound: deltaEB, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := s.lookup("test")
	if err != nil {
		t.Fatal(err)
	}
	return s, sa, path
}

// ingest POSTs ds and returns the member index it was committed as.
func ingest(t testing.TB, h http.Handler, ds *amr.Dataset) int {
	t.Helper()
	var wire bytes.Buffer
	if err := ds.Write(&wire); err != nil {
		t.Fatal(err)
	}
	rec := post(t, h, "/v1/a/test/ingest", wire.Bytes())
	if rec.Code != http.StatusCreated {
		t.Fatalf("ingest %s/%s: status %d: %s", ds.Name, ds.Field, rec.Code, rec.Body.String())
	}
	var ack struct {
		Snapshot int `json:"snapshot"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	return ack.Snapshot
}

// TestTailMatchesDisk ingests 2×Keyframe+1 steps of two fields and asks,
// after every one, for everything the three binary routes serve of the
// members then in the tail view — every level, block-aligned, cutting and
// clipped ROIs, the .amr stream. Those bodies must equal, byte for byte,
// what the same URLs answer once the members have left the tail (decoded
// from their frames through the cache) and what archive.Reader extracts
// from the file. Tail lookups decode nothing and move no cache counter;
// /v1/stats says what the tail holds and has served.
func TestTailMatchesDisk(t *testing.T) {
	const keyframe = 3
	snaps := tailCampaign(t, 2*keyframe+1)
	s, sa, path := newTailServer(t, snaps[0], keyframe)
	h := s.Handler()

	seed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every member has member 0's structure, and so its URLs.
	member0 := wireRefs(t, seed)
	pathsOf := func(mi int) []string {
		var out []string
		for _, ref := range member0 {
			out = append(out, strings.Replace(ref.path, "/snap/0/", fmt.Sprintf("/snap/%d/", mi), 1))
		}
		return out
	}

	asTail := map[string][]byte{}
	for _, ds := range snaps[1:] {
		mi := ingest(t, h, ds)
		st := sa.view()
		if _, ok := st.tail[mi]; !ok {
			t.Fatalf("member %d is not in the tail view published with it", mi)
		}
		if len(st.tail) > 2 {
			t.Fatalf("tail view holds %d members of 2 fields", len(st.tail))
		}
		cache, served := s.Cache().Stats(), sa.tailServed.Load()
		for tmi := range st.tail {
			for _, p := range pathsOf(tmi) {
				rec := get(t, h, p)
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s from the tail: status %d: %s", p, rec.Code, rec.Body.String())
				}
				if prev, ok := asTail[p]; ok && !bytes.Equal(prev, rec.Body.Bytes()) {
					t.Fatalf("GET %s: two answers from the tail differ", p)
				}
				asTail[p] = bytes.Clone(rec.Body.Bytes())
			}
		}
		if got := s.Cache().Stats(); got != cache {
			t.Fatalf("tail lookups moved the block cache: %+v -> %+v", cache, got)
		}
		if sa.tailServed.Load() == served {
			t.Fatal("tail lookups were not counted")
		}
	}

	rec := get(t, h, "/v1/stats")
	var stats struct {
		Ingest IngestStats `json:"ingest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	var tailBytes int64
	for _, mi := range []int{len(snaps) - 2, len(snaps) - 1} {
		tailBytes += 4 * int64(snaps[mi].StoredCells())
	}
	if in := stats.Ingest; in.TailMembers != 2 || in.TailBytes < tailBytes || in.TailBytes > 2*tailBytes || in.TailBatchesServed != sa.tailServed.Load() {
		t.Fatalf("/v1/stats ingest section %+v; the tail holds 2 members of %d value bytes and served %d batches", in, tailBytes, sa.tailServed.Load())
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tail := sa.view().tail
	for _, ref := range wireRefs(t, blob) {
		var mi int
		fmt.Sscanf(ref.path, "/v1/a/test/snap/%d/", &mi)
		was, ok := asTail[ref.path]
		if ok != (mi > 0) {
			t.Fatalf("%s: served from the tail: %v", ref.path, ok)
		}
		if ok && !bytes.Equal(was, ref.body) {
			t.Fatalf("%s: the body served from the tail differs from archive.Reader's extraction of the file", ref.path)
		}
		if _, still := tail[mi]; still {
			continue
		}
		before := s.Cache().Stats()
		rec := get(t, h, ref.path)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ref.body) {
			t.Fatalf("%s after leaving the tail: status %d, body equal to the extraction: %v", ref.path, rec.Code, bytes.Equal(rec.Body.Bytes(), ref.body))
		}
		if after := s.Cache().Stats(); after.Hits+after.Misses == before.Hits+before.Misses {
			t.Fatalf("%s after leaving the tail did not go through the block cache", ref.path)
		}
	}
	if st := s.Cache().Stats(); st.Decodes > st.Misses {
		t.Fatalf("decodes %d > misses %d", st.Decodes, st.Misses)
	}
}

// TestTailReadWhileIngest reads the newest member in a loop from several
// clients while ingests replace it, and keeps assembling an early member
// through the generation pinned before the first ingest of the loop (whose
// tail view holds that member). Whatever mix of tail view, cache and frames
// answered, every body of a member is the same bytes, and they are what
// archive.Reader extracts from the file afterwards. Run it with -race.
func TestTailReadWhileIngest(t *testing.T) {
	const keyframe = 3
	snaps := tailCampaign(t, 6)
	s, sa, path := newTailServer(t, snaps[0], keyframe)
	h := s.Handler()

	var newest atomic.Int64
	newest.Store(int64(ingest(t, h, snaps[1])))
	pinned := sa.view()
	pinnedMi := int(newest.Load())
	if _, ok := pinned.tail[pinnedMi]; !ok {
		t.Fatalf("member %d is not in the pinned generation's tail", pinnedMi)
	}

	var mu sync.Mutex
	bodies := map[int][]byte{} // member -> level-0 body, first seen
	fail := make(chan error, 8)
	note := func(mi int, body []byte) {
		mu.Lock()
		defer mu.Unlock()
		if was, ok := bodies[mi]; !ok {
			bodies[mi] = bytes.Clone(body)
		} else if !bytes.Equal(was, body) {
			select {
			case fail <- fmt.Errorf("member %d level 0: two responses differ", mi):
			default:
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mi := int(newest.Load())
				rec := get(t, h, fmt.Sprintf("/v1/a/test/snap/%d/level/0", mi))
				if rec.Code != http.StatusOK {
					select {
					case fail <- fmt.Errorf("member %d level 0: status %d: %s", mi, rec.Code, rec.Body.String()):
					default:
					}
					return
				}
				note(mi, rec.Body.Bytes())
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		lv, err := sa.level(pinned, pinnedMi, 0)
		for err == nil {
			select {
			case <-stop:
				return
			default:
			}
			var g *grid.Grid3[amr.Value]
			if g, err = s.levelGrid(context.Background(), lv); err == nil {
				note(pinnedMi, leBytes(g.Data))
			}
		}
		select {
		case fail <- fmt.Errorf("pinned generation: %w", err):
		default:
		}
	}()
	for _, ds := range snaps[2:] {
		newest.Store(int64(ingest(t, h, ds)))
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	fr, err := archive.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if len(bodies) < 2 {
		t.Fatalf("the readers saw %d members", len(bodies))
	}
	for mi, body := range bodies {
		l, err := fr.ExtractLevel(mi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, leBytes(l.Grid.Data)) {
			t.Fatalf("member %d level 0: served body differs from the file's extraction", mi)
		}
	}
}

// TestTailQuarantined: the quarantine check comes before the tail view, so
// a quarantined member answers ErrQuarantined although its reconstruction
// is in memory, and comes back from the tail when the quarantine lifts.
func TestTailQuarantined(t *testing.T) {
	snaps := tailCampaign(t, 2)
	s, sa, _ := newTailServer(t, snaps[0], 3)
	h := s.Handler()
	mi := ingest(t, h, snaps[2])
	if _, ok := sa.view().tail[mi]; !ok {
		t.Fatalf("member %d is not in the tail", mi)
	}
	sa.quarantine(mi, "test")
	served := sa.tailServed.Load()
	if _, _, err := s.LevelContext(context.Background(), "test", mi, 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined tail member: %v, want ErrQuarantined", err)
	}
	if rec := get(t, h, fmt.Sprintf("/v1/a/test/snap/%d/amr", mi)); rec.Code != http.StatusBadGateway {
		t.Fatalf("quarantined tail member over HTTP: status %d, want 502", rec.Code)
	}
	if sa.tailServed.Load() != served {
		t.Fatal("a quarantined member was answered from the tail")
	}
	sa.liftQuarantine(sa.view(), mi)
	if _, _, err := s.LevelContext(context.Background(), "test", mi, 0); err != nil {
		t.Fatal(err)
	}
	if sa.tailServed.Load() == served {
		t.Fatal("the member did not come back from the tail")
	}
}

// TestTailIntraIngestHasNone: an intra-mode writer retains nothing, so
// nothing is published and the new member is decoded from its frames.
func TestTailIntraIngestHasNone(t *testing.T) {
	s, _ := newAppendServer(t, Config{})
	defer s.Close()
	_, wire := ingestSnap(t, "live0", 123)
	if rec := post(t, s.Handler(), "/v1/a/live/ingest", wire); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	sa, err := s.lookup("live")
	if err != nil {
		t.Fatal(err)
	}
	if sa.view().tail != nil {
		t.Fatal("intra-mode ingest published a tail view")
	}
	if _, _, err := s.LevelContext(context.Background(), "live", 2, 0); err != nil {
		t.Fatal(err)
	}
	if in := s.IngestStats(); in.TailMembers != 0 || in.TailBytes != 0 || in.TailBatchesServed != 0 {
		t.Fatalf("intra-mode ingest stats %+v", in)
	}
	if st := s.Cache().Stats(); st.Decodes == 0 {
		t.Fatal("the new member was not decoded from its frames")
	}
}
