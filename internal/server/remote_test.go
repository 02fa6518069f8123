package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/remote"
	"repro/internal/sim"
)

// rawServer exposes blob with standard Range/ETag handling, as any
// range-capable origin would.
func rawServer(t testing.TB, blob []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("ETag", `"g0"`)
		http.ServeContent(w, req, "test.taca", time.Time{}, bytes.NewReader(blob))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRemotePrimaryByteIdentity registers an archive whose primary is a
// URL and checks every extraction surface against the same archive read
// locally.
func TestRemotePrimaryByteIdentity(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	ts := rawServer(t, blob)
	local, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{CacheBytes: 1 << 20})
	defer s.Close()
	name, err := s.Add("test", ArchiveSpec{Primary: ts.URL, Remote: remote.Config{SegmentBytes: 8 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if name != "test" {
		t.Fatalf("registered as %q", name)
	}
	for mi := range local.Members() {
		want, err := local.Extract(mi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.DatasetContext(context.Background(), "test", mi)
		if err != nil {
			t.Fatal(err)
		}
		for li := range want.Levels {
			if !bytes.Equal(floatBytes(want.Levels[li].Grid.Data), floatBytes(got.Levels[li].Grid.Data)) {
				t.Fatalf("member %d level %d differs between remote and local", mi, li)
			}
		}
	}
}

func floatBytes(vals []amr.Value) []byte {
	var buf bytes.Buffer
	for _, v := range vals {
		fmt.Fprintf(&buf, "%x,", v)
	}
	return buf.Bytes()
}

// TestRemoteAutoSegmentTuning checks that a URL primary opened with no
// explicit segment size gets retuned to the archive's frame span.
func TestRemoteAutoSegmentTuning(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	ts := rawServer(t, blob)
	rr, err := remote.Open(ts.URL, remote.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	r, err := archive.Open(rr, rr.Size())
	if err != nil {
		t.Fatal(err)
	}
	before := rr.SegmentBytes()
	tuneRemote(r, []*remote.Reader{rr}, remote.Config{})
	fb := r.TypicalFrameBytes()
	if fb <= 0 {
		t.Fatal("no typical frame size")
	}
	seg := rr.SegmentBytes()
	if seg < 4<<10 || seg > 4<<20 {
		t.Fatalf("tuned segment %d out of clamp range", seg)
	}
	// The tuned segment must be a power of two covering one typical
	// frame (unless clamped at the floor); bigger than 2x means the tune
	// overshot into ROI-overfetch territory.
	if seg > 4<<10 && (seg < fb || seg >= 2*fb) {
		t.Fatalf("tuned segment %d is not the covering power of two for frames of %d bytes (was %d)", seg, fb, before)
	}
}

// TestRemoteReplicasRetuned: every URL source of a spec is cut to the
// archive's frame span, not the primary alone — a replica left at the
// default 128 KiB would over-fetch exactly when a failover lands on it —
// and an explicit Remote.SegmentBytes pins them all.
func TestRemoteReplicasRetuned(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	primary, replica1, replica2 := rawServer(t, blob), rawServer(t, blob), rawServer(t, blob)
	s := New(Config{})
	defer s.Close()
	for name, rcfg := range map[string]remote.Config{"auto": {}, "pinned": {SegmentBytes: 8 << 10}} {
		if _, err := s.Add(name, ArchiveSpec{Primary: primary.URL, Replicas: []string{replica1.URL, replica2.URL}, Remote: rcfg}); err != nil {
			t.Fatal(err)
		}
		sa, err := s.lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(sa.mounts) != 3 {
			t.Fatalf("%s: %d URL sources recorded, want 3", name, len(sa.mounts))
		}
		want := int64(rcfg.SegmentBytes)
		if want == 0 {
			if want = sa.mounts[0].SegmentBytes(); want == remote.DefaultSegmentBytes {
				t.Fatalf("%s: primary still at the default segment, nothing was tuned", name)
			}
		}
		for i, rr := range sa.mounts {
			if got := rr.SegmentBytes(); got != want {
				t.Errorf("%s: source %d cut to %d-byte segments, want %d like the primary", name, i, got, want)
			}
		}
	}
}

// countingReaderAt counts the bytes a local reader pulls from its source.
type countingReaderAt struct {
	r    io.ReaderAt
	read atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.read.Add(int64(n))
	return n, err
}

// served runs fn on a fresh Server, cold, that serves r alone as "f": the
// serving tier's read path over r's source.
func served(r *archive.Reader, fn func(s *Server) error) error {
	s := New(Config{})
	defer s.Close()
	if err := s.AddReader("f", r, nil); err != nil {
		return err
	}
	return fn(s)
}

// TestRemoteFetchFraction pins the random-access claim on both read
// paths: one level of one snapshot, or an octant of its finest level,
// moves at most a tenth of the archive — off a local source, and over
// HTTP ranges once the segments are tuned to the frame span (a segment
// four frames wide pulls twice that). Each remote read starts from a cold
// mount, so no read's fetches pay for another's. A second full extract
// on one mount must come out of the segment cache, and fills never
// outnumber misses.
func TestRemoteFetchFraction(t *testing.T) {
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Run1_Z10", "Run1_Z5"} {
		spec, err := sim.SpecByName(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := sim.Generate(spec, sim.BaryonDensity)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddDataset(ds, codec.Config{ErrorBound: 1e9, Workers: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	ts := rawServer(t, blob)

	mount := func() (*archive.Reader, *remote.Reader) {
		t.Helper()
		rr, err := remote.Open(ts.URL, remote.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rr.Close() })
		r, err := archive.Open(rr, rr.Size())
		if err != nil {
			t.Fatal(err)
		}
		tuneRemote(r, []*remote.Reader{rr}, remote.Config{})
		return r, rr
	}
	cr := &countingReaderAt{r: bytes.NewReader(blob)}
	local, err := archive.Open(cr, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	fd := local.Members()[0].Levels[0].Dims
	octant := grid.Region{X1: fd.X / 2, Y1: fd.Y / 2, Z1: fd.Z / 2}

	reads := []struct {
		what string
		read func(r *archive.Reader) error
	}{
		{"level 1 of member 1", func(r *archive.Reader) error { _, err := r.ExtractLevel(1, 1); return err }},
		{"octant of member 0", func(r *archive.Reader) error { _, err := r.ExtractRegion(0, octant); return err }},
		{"served level 1 of member 1", func(r *archive.Reader) error {
			return served(r, func(s *Server) error { _, _, err := s.LevelContext(context.Background(), "f", 1, 1); return err })
		}},
		{"served octant of member 0", func(r *archive.Reader) error {
			return served(r, func(s *Server) error {
				// The octant, in each level's own cells, as ExtractRegion scales it.
				for li, l := range r.Members()[0].Levels {
					oct := grid.Region{X1: l.Dims.X / 2, Y1: l.Dims.Y / 2, Z1: l.Dims.Z / 2}
					if _, _, err := s.RegionContext(context.Background(), "f", 0, li, oct); err != nil {
						return err
					}
				}
				return nil
			})
		}},
	}
	for _, rd := range reads {
		check := func(path string, moved int64) {
			t.Helper()
			frac := float64(moved) / float64(len(blob))
			t.Logf("%s, %s: %d of %d bytes (%.1f%%)", rd.what, path, moved, len(blob), 100*frac)
			if moved == 0 || frac > 0.10 {
				t.Errorf("%s, %s: moved %.1f%% of the archive, want 0 < share <= 10%%", rd.what, path, 100*frac)
			}
		}
		before := cr.read.Load()
		if err := rd.read(local); err != nil {
			t.Fatal(err)
		}
		check("local", cr.read.Load()-before)

		r, rr := mount()
		fetched := rr.Stats().BytesFetched
		if err := rd.read(r); err != nil {
			t.Fatal(err)
		}
		check("remote", rr.Stats().BytesFetched-fetched)
	}

	r, rr := mount()
	for pass := 0; pass < 2; pass++ {
		if _, err := r.Extract(0); err != nil {
			t.Fatal(err)
		}
	}
	if st := rr.Stats(); st.Hits == 0 || st.Fills > st.Misses {
		t.Errorf("warm re-extract: %+v, want hits > 0 and fills <= misses", st)
	}
}

// TestRemoteFaultsRetryNotQuarantine injects transient connection drops
// into the range origin and asserts the serving tier's existing retry
// machinery absorbs them: reads succeed, retries are counted, and no
// member is quarantined (network faults are ErrIO, not corruption).
func TestRemoteFaultsRetryNotQuarantine(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	var armed atomic.Bool // faults start after the footer is parsed
	var mu sync.Mutex
	failed := map[string]bool{} // Range headers that have had their fault
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Once armed, every distinct range fails its first attempt mid-body
		// and then heals — the faultio fail-N-then-heal shape, keyed per
		// Range header so the schedule does not depend on how concurrent
		// fetches interleave: a frame spanning k segments needs at most k+1
		// attempts, and test frames span at most two. The headers must be
		// flushed first: a connection lost before any response bytes is
		// retried transparently by net/http's transport and would never
		// reach the serving tier's retry machinery.
		mu.Lock()
		rng := req.Header.Get("Range")
		drop := armed.Load() && !failed[rng]
		if drop {
			failed[rng] = true
		}
		mu.Unlock()
		if drop {
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
			return
		}
		w.Header().Set("ETag", `"g0"`)
		http.ServeContent(w, req, "test.taca", time.Time{}, bytes.NewReader(blob))
	}))
	defer ts.Close()

	s := New(Config{
		CacheBytes: 1 << 20,
		Logf:       func(string, ...any) {}, // quiet: faults are the point
	})
	defer s.Close()
	s.sleep = func(time.Duration) {}
	// Tiny segments so a snapshot read issues many requests and is
	// guaranteed to hit injected faults.
	if _, err := s.Add("test", ArchiveSpec{Primary: ts.URL, Remote: remote.Config{SegmentBytes: 4 << 10, CacheBytes: -1}}); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	local, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	for mi := range local.Members() {
		want, err := local.Extract(mi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.DatasetContext(context.Background(), "test", mi)
		if err != nil {
			t.Fatalf("member %d under faults: %v", mi, err)
		}
		for li := range want.Levels {
			if !bytes.Equal(floatBytes(want.Levels[li].Grid.Data), floatBytes(got.Levels[li].Grid.Data)) {
				t.Fatalf("member %d level %d torn under faults", mi, li)
			}
		}
	}
	hs := s.HealthStats()
	if hs.Retries == 0 {
		t.Fatal("injected faults never exercised the retry path")
	}
	if hs.Quarantines != 0 || hs.QuarantinedMembers != 0 {
		t.Fatalf("network faults quarantined a member: %+v", hs)
	}
	if hs.CorruptEvents != 0 {
		t.Fatalf("network faults counted as corruption strikes: %+v", hs)
	}
}

// TestRemoteChainLevelOneRequestPerRun serves the finest level of a
// chain-depth-3 campaign member from a cold remote mount. Every frame the
// request decodes — the member's and those of the three members its chain
// reaches — sits in one contiguous run per member-level, so the request
// costs at most one origin range request per member, whatever the segment
// size, and its body is byte-identical to a direct extraction.
func TestRemoteChainLevelOneRequestPerRun(t *testing.T) {
	base, err := sim.Generate(sim.Spec{
		Name: "c0", FinestN: 64, Levels: 2, UnitBlock: 4,
		Seed: 41, LeafFractions: []float64{0.3, 0.7},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := campaignFrom(t, base, 4, 4, 8)
	var armed atomic.Bool
	var ranges atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if armed.Load() && req.Header.Get("Range") != "" {
			ranges.Add(1)
		}
		w.Header().Set("ETag", `"g0"`)
		http.ServeContent(w, req, "test.taca", time.Time{}, bytes.NewReader(blob))
	}))
	defer ts.Close()
	local, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	const mi, li = 3, 0
	for m, n := mi, 0; n < 3; m, n = local.Members()[m].Ref, n+1 {
		idx := &local.Members()[m].Levels[li]
		for b := range idx.Batches {
			if !idx.IsDelta(b) {
				t.Fatalf("member %d level %d batch %d is intra: the chain is not depth 3 throughout", m, li, b)
			}
		}
	}

	s := New(Config{})
	defer s.Close()
	// Segments far smaller than a member's level, so per-segment fetches
	// would cost many requests.
	if _, err := s.Add("test", ArchiveSpec{Primary: ts.URL, Remote: remote.Config{SegmentBytes: 4 << 10}}); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	rec := get(t, s.Handler(), fmt.Sprintf("/v1/a/test/snap/%d/level/%d", mi, li))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if want := cleanLevelBody(t, blob, mi, li); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("served level differs from archive.Reader.ExtractLevel")
	}
	n := ranges.Load()
	t.Logf("cold chain-depth-3 level GET: %d origin range requests", n)
	if n == 0 || n > 4 {
		t.Fatalf("cold chain-depth-3 level GET issued %d origin range requests, want 1 to 4", n)
	}
	if st := s.Cache().Stats(); st.Decodes != 4*int64(len(local.Members()[mi].Levels[li].Batches)) {
		t.Fatalf("cache %+v: want every batch of the four chain members decoded once", st)
	}

	// Warm, every batch is resident: the request plans no run and reads
	// no byte of the archive.
	sa, err := s.lookup("test")
	if err != nil {
		t.Fatal(err)
	}
	read := sa.mounts[0].Stats().BytesRead
	if rec := get(t, s.Handler(), fmt.Sprintf("/v1/a/test/snap/%d/level/%d", mi, li)); rec.Code != http.StatusOK {
		t.Fatalf("warm GET: status %d", rec.Code)
	}
	if n := sa.mounts[0].Stats().BytesRead - read; n != 0 {
		t.Fatalf("warm GET read %d archive bytes, want 0", n)
	}
}

// TestRemoteChainLevelExtractReadsRuns is TestRemoteChainLevelOneRequestPerRun
// for archive.Reader on a cold remote mount, which plans its frames with the
// planner tacd uses: the same level costs at most one origin range request
// per chain member and matches a local extraction bit for bit, and a whole
// member costs no more range requests than tacd's DatasetContext of it, at
// 4 KiB and 32 KiB segments (at 128 KiB, Open's footer read brings in the
// whole 200 KB archive).
func TestRemoteChainLevelExtractReadsRuns(t *testing.T) {
	base, err := sim.Generate(sim.Spec{
		Name: "c0", FinestN: 64, Levels: 2, UnitBlock: 4,
		Seed: 41, LeafFractions: []float64{0.3, 0.7},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := campaignFrom(t, base, 4, 4, 8)
	var ranges atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Range") != "" {
			ranges.Add(1)
		}
		w.Header().Set("ETag", `"g0"`)
		http.ServeContent(w, req, "test.taca", time.Time{}, bytes.NewReader(blob))
	}))
	defer ts.Close()
	local, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	// mount opens a cold mount and returns the range requests fn makes on it,
	// footer reads excluded.
	mount := func(seg int, fn func(r *archive.Reader)) int64 {
		t.Helper()
		rr, err := remote.Open(ts.URL, remote.Config{SegmentBytes: seg})
		if err != nil {
			t.Fatal(err)
		}
		defer rr.Close()
		r, err := archive.Open(rr, rr.Size())
		if err != nil {
			t.Fatal(err)
		}
		before := ranges.Load()
		fn(r)
		return ranges.Load() - before
	}
	const mi, li = 3, 0
	want, err := local.ExtractLevel(mi, li)
	if err != nil {
		t.Fatal(err)
	}
	n := mount(4<<10, func(r *archive.Reader) {
		got, err := r.ExtractLevel(mi, li)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(floatBytes(got.Grid.Data), floatBytes(want.Grid.Data)) {
			t.Fatal("remote ExtractLevel differs from a local one")
		}
	})
	t.Logf("cold chain-depth-3 ExtractLevel: %d origin range requests", n)
	if n == 0 || n > 4 {
		t.Fatalf("cold chain-depth-3 ExtractLevel issued %d origin range requests, want 1 to 4", n)
	}

	for _, seg := range []int{4 << 10, 32 << 10} {
		extract := mount(seg, func(r *archive.Reader) {
			if _, err := r.Extract(mi); err != nil {
				t.Fatal(err)
			}
		})
		s := New(Config{})
		if _, err := s.Add("test", ArchiveSpec{Primary: ts.URL, Remote: remote.Config{SegmentBytes: seg}}); err != nil {
			t.Fatal(err)
		}
		before := ranges.Load()
		if _, err := s.DatasetContext(context.Background(), "test", mi); err != nil {
			t.Fatal(err)
		}
		served := ranges.Load() - before
		s.Close()
		t.Logf("%d-byte segments: Extract %d, DatasetContext %d origin range requests", seg, extract, served)
		if extract > served {
			t.Errorf("%d-byte segments: a remote Extract made %d origin range requests, tacd's DatasetContext %d", seg, extract, served)
		}
	}
}

// TestRemoteMountOnRawEndpoint stacks one serving tier on another: a
// second Server opens the first Server's /v1/a/{name}/raw endpoint as
// its primary, and both must serve identical bytes. Also checks the
// derived name (".../v1/a/test/raw" mounts as "test").
func TestRemoteMountOnRawEndpoint(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	origin, _ := newTestServer(t, blob, Config{})
	defer origin.Close()
	ts := httptest.NewServer(origin.Handler())
	defer ts.Close()

	edge := New(Config{})
	defer edge.Close()
	name, err := edge.Add("", ArchiveSpec{Primary: ts.URL + "/v1/a/test/raw"})
	if err != nil {
		t.Fatal(err)
	}
	if name != "test" {
		t.Fatalf("derived name %q, want %q", name, "test")
	}
	want, err := origin.DatasetContext(context.Background(), "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := edge.DatasetContext(context.Background(), "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	for li := range want.Levels {
		if !bytes.Equal(floatBytes(want.Levels[li].Grid.Data), floatBytes(got.Levels[li].Grid.Data)) {
			t.Fatalf("level %d differs through the raw mount", li)
		}
	}
}

// TestRemoteReplicaFailover serves an archive whose primary file is
// damaged and whose replica is a URL: reads must fail over the network.
func TestRemoteReplicaFailover(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	ts := rawServer(t, blob)
	// The local primary is truncated: its footer parses (we hand the
	// Multi the full size and the replica serves the tail) — simplest is
	// a primary that errors on every read instead.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Range") == "bytes=0-0" {
			w.Header().Set("ETag", `"g0"`)
			http.ServeContent(w, req, "t", time.Time{}, bytes.NewReader(blob))
			return
		}
		conn, _, _ := w.(http.Hijacker).Hijack()
		conn.Close()
	}))
	defer dead.Close()
	s := New(Config{Logf: func(string, ...any) {}})
	defer s.Close()
	s.sleep = func(time.Duration) {}
	if _, err := s.Add("test", ArchiveSpec{
		Primary:  dead.URL,
		Replicas: []string{ts.URL},
		Remote:   remote.Config{SegmentBytes: 8 << 10},
	}); err != nil {
		t.Fatal(err)
	}
	local, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Extract(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.DatasetContext(context.Background(), "test", 0)
	if err != nil {
		t.Fatalf("failover to URL replica: %v", err)
	}
	for li := range want.Levels {
		if !bytes.Equal(floatBytes(want.Levels[li].Grid.Data), floatBytes(got.Levels[li].Grid.Data)) {
			t.Fatalf("level %d differs via URL replica", li)
		}
	}
}

// TestV1RoutesAndEnvelope exercises the versioned surface: every
// endpoint answers under /v1/ and nowhere else — the liveness probe alone
// keeps its root path — and errors carry the JSON envelope with a stable
// code and no pre-v1 mirror fields.
func TestV1RoutesAndEnvelope(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	s, _ := newTestServer(t, blob, Config{})
	defer s.Close()
	h := s.Handler()

	for _, path := range []string{"/healthz", "/v1/healthz"} {
		rec := get(t, h, path)
		if rec.Code != 200 || rec.Body.String() != "ok\n" {
			t.Fatalf("%s = %d %q", path, rec.Code, rec.Body.String())
		}
	}
	for _, path := range []string{
		"/stats", "/archives", "/a/test", "/a/test/raw", "/a/test/snap/0",
		"/a/test/snap/0/amr", "/a/test/snap/0/level/0",
	} {
		if rec := get(t, h, "/v1"+path); rec.Code != 200 {
			t.Fatalf("/v1%s = %d", path, rec.Code)
		}
		if rec := get(t, h, path); rec.Code != 404 {
			t.Fatalf("unprefixed %s = %d, want 404", path, rec.Code)
		}
	}
	for _, path := range []string{"/a/test/ingest", "/a/test/repair"} {
		if rec := post(t, h, path, nil); rec.Code != 404 {
			t.Fatalf("unprefixed POST %s = %d, want 404", path, rec.Code)
		}
	}

	rec := get(t, h, "/v1/a/nope")
	if rec.Code != 404 {
		t.Fatalf("/v1/a/nope = %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("envelope content-type %q", ct)
	}
	var fields map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &fields); err != nil {
		t.Fatalf("envelope body %q: %v", rec.Body.String(), err)
	}
	if fields["code"] != "not_found" || fields["message"] == "" || len(fields) != 2 {
		t.Fatalf("envelope %v, want exactly code and message", fields)
	}
	rec = get(t, h, "/v1/a/test/snap/99")
	var env errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != 404 || env.Code != "not_found" {
		t.Fatalf("bad-snapshot envelope: %d %q (%v)", rec.Code, rec.Body.String(), err)
	}
}

// TestRawEndpointRangeSemantics checks the raw endpoint's HTTP
// contract directly: full body, a satisfied Range, and a strong ETag.
func TestRawEndpointRangeSemantics(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	s, _ := newTestServer(t, blob, Config{})
	defer s.Close()
	h := s.Handler()

	full := get(t, h, "/v1/a/test/raw")
	if full.Code != 200 || !bytes.Equal(full.Body.Bytes(), blob) {
		t.Fatalf("raw full read: %d, %d bytes (want %d)", full.Code, full.Body.Len(), len(blob))
	}
	etag := full.Header().Get("ETag")
	if etag == "" || strings.HasPrefix(etag, "W/") {
		t.Fatalf("raw ETag %q is not strong", etag)
	}
	part := get(t, h, "/v1/a/test/raw", "Range", "bytes=8-23")
	if part.Code != http.StatusPartialContent || !bytes.Equal(part.Body.Bytes(), blob[8:24]) {
		t.Fatalf("raw range read: %d, %q", part.Code, part.Body.Bytes())
	}
	if part.Header().Get("ETag") != etag {
		t.Fatalf("range ETag %q != full ETag %q", part.Header().Get("ETag"), etag)
	}
}

// TestSpecNameDerivation pins the CLI-visible name resolution rules.
func TestSpecNameDerivation(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"runs/alpha.taca", "alpha"},
		{"mine=runs/alpha.taca", "mine"},
		{"http://h:1234/v1/a/origin/raw", "origin"},
		{"https://h/files/camp.taca", "camp"},
		{"edge=http://h/v1/a/origin/raw", "edge"},
		// A query string contains '=' but must not be mis-split as a
		// name=primary form.
		{"http://h/v1/a/origin/raw?x=1", "origin"},
	}
	for _, c := range cases {
		if got, _ := SplitSpec(c.spec); got != c.want {
			t.Errorf("SplitSpec(%q) name = %q, want %q", c.spec, got, c.want)
		}
	}
}
