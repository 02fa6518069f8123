package server

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/sz"
)

// AddReader registers an already-opened archive under name. closer, if
// non-nil, is closed by Server.Close. Names must be unique and
// non-empty.
func (s *Server) AddReader(name string, r *archive.Reader, closer io.Closer) error {
	return s.addArchive(&servedArchive{name: name, closer: closer}, r)
}

// testArchiveBytes builds a small two-snapshot archive in memory.
func testArchiveBytes(t testing.TB, batchBlocks int) []byte {
	return testArchiveBytesSeed(t, batchBlocks, 77)
}

// testArchiveBytesSeed is testArchiveBytes with a chosen value seed, for
// tests that need two archives with different contents.
func testArchiveBytesSeed(t testing.TB, batchBlocks int, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = batchBlocks
	for ti, frac := range [][]float64{{0.25, 0.75}, {0.55, 0.45}} {
		spec := sim.Spec{
			Name: fmt.Sprintf("snap%d", ti), FinestN: 32, Levels: 2,
			UnitBlock: 4, Seed: seed + int64(ti), LeafFractions: frac,
		}
		ds, err := sim.Generate(spec, sim.BaryonDensity)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddDataset(ds, codec.Config{ErrorBound: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer opens the archive bytes and registers them as "test".
func newTestServer(t testing.TB, blob []byte, cfg Config) (*Server, *archive.Reader) {
	t.Helper()
	r, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	if err := s.AddReader("test", r, nil); err != nil {
		t.Fatal(err)
	}
	return s, r
}

// floatsOf reinterprets a raw little-endian float32 payload.
func floatsOf(t *testing.T, b []byte) []amr.Value {
	t.Helper()
	if len(b)%4 != 0 {
		t.Fatalf("payload length %d is not a multiple of 4", len(b))
	}
	out := make([]amr.Value, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// leBytes is the wire form of a level body — little-endian float32 —
// written the slow way, so the serving path's reinterpretation is held to
// an encoding it does not share code with.
func leBytes(vals []amr.Value) []byte {
	out := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// get drives the handler in-process and returns the response.
func get(t *testing.T, h http.Handler, url string, hdr ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestServedLevelByteIdentity asserts the level endpoint's payload equals
// the directly extracted level grid, byte for byte, for every member and
// level — the cache-assembled path and archive.Reader.ExtractLevel must
// be indistinguishable.
func TestServedLevelByteIdentity(t *testing.T) {
	blob := testArchiveBytes(t, 7) // odd batch size: exercises short tail batches
	s, r := newTestServer(t, blob, Config{})
	h := s.Handler()
	for mi := range r.Members() {
		for li := range r.Members()[mi].Levels {
			rec := get(t, h, fmt.Sprintf("/v1/a/test/snap/%d/level/%d", mi, li))
			if rec.Code != http.StatusOK {
				t.Fatalf("member %d level %d: status %d: %s", mi, li, rec.Code, rec.Body.String())
			}
			want, err := r.ExtractLevel(mi, li)
			if err != nil {
				t.Fatal(err)
			}
			got := floatsOf(t, rec.Body.Bytes())
			if len(got) != len(want.Grid.Data) {
				t.Fatalf("member %d level %d: %d values, want %d", mi, li, len(got), len(want.Grid.Data))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want.Grid.Data[i]) {
					t.Fatalf("member %d level %d: value %d differs: %g vs %g", mi, li, i, got[i], want.Grid.Data[i])
				}
			}
		}
	}
	// A second pass over an already-served level must be all hits.
	st0 := s.Cache().Stats()
	if rec := get(t, h, "/v1/a/test/snap/0/level/0"); rec.Code != http.StatusOK {
		t.Fatalf("repeat request failed: %d", rec.Code)
	}
	st1 := s.Cache().Stats()
	if st1.Hits <= st0.Hits || st1.Decodes != st0.Decodes {
		t.Fatalf("repeat extraction did not hit the cache: before %+v, after %+v", st0, st1)
	}
}

// TestServedRegionByteIdentity asserts ROI windows equal the same window
// of the fully extracted level.
func TestServedRegionByteIdentity(t *testing.T) {
	blob := testArchiveBytes(t, 5)
	s, r := newTestServer(t, blob, Config{})
	h := s.Handler()
	rois := []grid.Region{
		{X0: 0, Y0: 0, Z0: 0, X1: 9, Y1: 7, Z1: 5},
		{X0: 3, Y0: 3, Z0: 3, X1: 13, Y1: 29, Z1: 11},
		{X0: 8, Y0: 0, Z0: 8, X1: 32, Y1: 32, Z1: 32},
		{X0: 5, Y0: 5, Z0: 5, X1: 6, Y1: 6, Z1: 6}, // single cell
	}
	for mi := range r.Members() {
		for li := range r.Members()[mi].Levels {
			full, err := r.ExtractLevel(mi, li)
			if err != nil {
				t.Fatal(err)
			}
			for _, roi := range rois {
				clipped := roi.Intersect(full.Grid.Dim)
				if clipped.Empty() {
					continue
				}
				url := fmt.Sprintf("/v1/a/test/snap/%d/level/%d?roi=%d:%d,%d:%d,%d:%d",
					mi, li, roi.X0, roi.X1, roi.Y0, roi.Y1, roi.Z0, roi.Z1)
				rec := get(t, h, url)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.String())
				}
				want := make([]amr.Value, clipped.Count())
				full.Grid.CopyRegionTo(clipped, want)
				got := floatsOf(t, rec.Body.Bytes())
				if len(got) != len(want) {
					t.Fatalf("%s: %d values, want %d", url, len(got), len(want))
				}
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s: value %d differs: %g vs %g", url, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestServedDatasetByteIdentity asserts the /amr stream round-trips to a
// dataset value-identical to archive.Reader.Extract.
func TestServedDatasetByteIdentity(t *testing.T) {
	blob := testArchiveBytes(t, 6)
	s, r := newTestServer(t, blob, Config{})
	rec := get(t, s.Handler(), "/v1/a/test/snap/1/amr")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got, err := amr.ReadFrom(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Extract(1)
	if err != nil {
		t.Fatal(err)
	}
	var wb, gb bytes.Buffer
	if err := want.Write(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.Write(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("served .amr stream differs from direct extraction (%d vs %d bytes)", gb.Len(), wb.Len())
	}
}

// TestSingleflightCollapse fires many concurrent requests for the same
// uncached frame and asserts the decode counter — incremented only inside
// executed fills — shows exactly one decode: everyone else either joined
// the flight or hit the cache it populated.
func TestSingleflightCollapse(t *testing.T) {
	blob := testArchiveBytes(t, 1<<20) // one batch per level: one key of contention
	s, _ := newTestServer(t, blob, Config{})
	sa, err := s.lookup("test")
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.batch(sa, sa.view(), sa.view().src, 0, 0, 0)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.Cache().Stats()
	if st.Decodes != 1 {
		t.Fatalf("%d concurrent requests decoded %d times, want exactly 1 (stats %+v)", n, st.Decodes, st)
	}
	if st.Hits+st.Misses != n {
		t.Fatalf("hits %d + misses %d != %d requests", st.Hits, st.Misses, n)
	}
}

// TestConcurrentMixedPaths hammers every endpoint from concurrent
// goroutines (run under -race in CI with GOMAXPROCS=4): listings, levels,
// regions, full snapshots, stats. Responses must stay well-formed and
// identically sized across rounds.
func TestConcurrentMixedPaths(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	s, _ := newTestServer(t, blob, Config{CacheBytes: 1 << 20})
	h := s.Handler()
	paths := []string{
		"/v1/archives",
		"/v1/a/test",
		"/v1/a/test/snap/0",
		"/v1/a/test/snap/0/level/0",
		"/v1/a/test/snap/0/level/1",
		"/v1/a/test/snap/1/level/0?roi=0:16,0:16,0:16",
		"/v1/a/test/snap/1/amr",
		"/v1/stats",
		"/healthz",
	}
	// First pass serially to learn the expected sizes.
	wantLen := make(map[string]int)
	for _, p := range paths {
		rec := get(t, h, p)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", p, rec.Code, rec.Body.String())
		}
		wantLen[p] = rec.Body.Len()
	}
	const rounds = 8
	var wg sync.WaitGroup
	errCh := make(chan error, rounds*len(paths))
	for g := 0; g < rounds; g++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				rec := get(t, h, p)
				if rec.Code != http.StatusOK {
					errCh <- fmt.Errorf("%s: status %d", p, rec.Code)
					return
				}
				// /stats and /archives bodies change as counters move;
				// extraction payloads must not.
				if p != "/v1/stats" && rec.Body.Len() != wantLen[p] {
					errCh <- fmt.Errorf("%s: body %d bytes, want %d", p, rec.Body.Len(), wantLen[p])
				}
			}(p)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestGzipEncoding asserts the gzip response path round-trips to the
// identity payload.
func TestGzipEncoding(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	s, _ := newTestServer(t, blob, Config{})
	h := s.Handler()
	plain := get(t, h, "/v1/a/test/snap/0/level/1")
	zipped := get(t, h, "/v1/a/test/snap/0/level/1", "Accept-Encoding", "gzip")
	if enc := zipped.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", enc)
	}
	zr, err := gzip.NewReader(zipped.Body)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unzipped, plain.Body.Bytes()) {
		t.Fatalf("gzip payload decodes to %d bytes, identity is %d", len(unzipped), plain.Body.Len())
	}
	// A client that explicitly refuses gzip must get the identity body.
	refused := get(t, h, "/v1/a/test/snap/0/level/1", "Accept-Encoding", "gzip;q=0, identity")
	if enc := refused.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("Content-Encoding %q for a client that refused gzip", enc)
	}
	if !bytes.Equal(refused.Body.Bytes(), plain.Body.Bytes()) {
		t.Fatal("gzip-refusing client did not get the identity payload")
	}
	// All three binary routes are negotiated on Accept-Encoding and must
	// say so on both outcomes, or a shared cache may hand the gzip body to
	// a client that refused it.
	for _, path := range []string{"/v1/a/test/snap/0/level/1", "/v1/a/test/snap/0/level/0?roi=0:8,0:8,0:8", "/v1/a/test/snap/0/amr"} {
		// An explicit gzip entry outranks "*" either way, and codings are
		// case-insensitive (RFC 9110 §12.5.3, §8.4.1).
		for accept, want := range map[string]bool{"": false, "gzip": true, "gzip;q=0, identity": false,
			"*;q=0, gzip": true, "*, gzip;q=0": false, "GZIP": true} {
			rec := get(t, h, path, "Accept-Encoding", accept)
			if v := rec.Header().Get("Vary"); rec.Code != http.StatusOK || v != "Accept-Encoding" {
				t.Fatalf("GET %s (Accept-Encoding %q): status %d, Vary %q", path, accept, rec.Code, v)
			}
			if gz := rec.Header().Get("Content-Encoding") == "gzip"; gz != want {
				t.Fatalf("GET %s (Accept-Encoding %q): Content-Encoding %q", path, accept, rec.Header().Get("Content-Encoding"))
			}
		}
	}
}

// TestHTTPErrors covers the client-error paths.
func TestHTTPErrors(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	s, _ := newTestServer(t, blob, Config{})
	h := s.Handler()
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/a/nope", http.StatusNotFound},
		{"/v1/a/nope/snap/0/level/0", http.StatusNotFound},
		{"/v1/a/test/snap/99", http.StatusNotFound},
		{"/v1/a/test/snap/0/level/9", http.StatusNotFound},
		{"/v1/a/test/snap/x/level/0", http.StatusBadRequest},                    // non-numeric snap
		{"/v1/a/test/snap/0/level/0?roi=bogus", http.StatusBadRequest},          // malformed roi
		{"/v1/a/test/snap/0/level/0?roi=99:100,0:1,0:1", http.StatusBadRequest}, // outside extent
	}
	for _, c := range cases {
		rec := get(t, h, c.url)
		if rec.Code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.url, rec.Code, c.code, rec.Body.String())
		}
	}
}

// TestCloseThenReaddServesFreshData pins the Close→Add name-reuse path:
// batches of the closed archive must not survive in the cache under the
// reused name.
func TestCloseThenReaddServesFreshData(t *testing.T) {
	s, _ := newTestServer(t, testArchiveBytes(t, 4), Config{})
	h := s.Handler()
	old := get(t, h, "/v1/a/test/snap/0/level/0")
	if old.Code != http.StatusOK {
		t.Fatalf("status %d", old.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	blob2 := testArchiveBytesSeed(t, 4, 1234)
	r2, err := archive.Open(bytes.NewReader(blob2), int64(len(blob2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddReader("test", r2, nil); err != nil {
		t.Fatal(err)
	}
	fresh := get(t, h, "/v1/a/test/snap/0/level/0")
	if fresh.Code != http.StatusOK {
		t.Fatalf("status %d after re-add", fresh.Code)
	}
	want, err := r2.ExtractLevel(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := floatsOf(t, fresh.Body.Bytes())
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want.Grid.Data[i]) {
			t.Fatalf("value %d differs from the re-added archive: %g vs %g (stale cache?)", i, got[i], want.Grid.Data[i])
		}
	}
	if bytes.Equal(fresh.Body.Bytes(), old.Body.Bytes()) {
		t.Fatal("re-added archive served the old archive's payload")
	}
}

// TestStatsEndpoint sanity-checks the JSON counters after traffic.
func TestStatsEndpoint(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	s, _ := newTestServer(t, blob, Config{})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if rec := get(t, h, "/v1/a/test/snap/0/level/0"); rec.Code != http.StatusOK {
			t.Fatalf("level request failed: %d", rec.Code)
		}
	}
	// The same archive again, mounted from two URL sources.
	origin, mirror := rawServer(t, blob), rawServer(t, blob)
	if _, err := s.Add("mounted", ArchiveSpec{Primary: origin.URL, Replicas: []string{mirror.URL}}); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, h, "/v1/a/mounted/snap/0/level/0"); rec.Code != http.StatusOK {
		t.Fatalf("mounted level request failed: %d", rec.Code)
	}
	rec := get(t, h, "/v1/stats")
	var out struct {
		Archives []string   `json:"archives"`
		Cache    CacheStats `json:"cache"`
		HitRatio float64    `json:"cache_hit_ratio"`
		Kernel   string     `json:"codec_kernel"`
		Remote   map[string][]struct {
			Requests     int64 `json:"requests"`
			BytesFetched int64 `json:"bytes_fetched"`
			BytesRead    int64 `json:"bytes_read"`
			Hits         int64 `json:"hits"`
			Misses       int64 `json:"misses"`
			Fills        int64 `json:"fills"`
			SegmentBytes int64 `json:"segment_bytes"`
		} `json:"remote"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("stats decode: %v (%s)", err, rec.Body.String())
	}
	if len(out.Archives) != 2 || out.Archives[0] != "mounted" || out.Archives[1] != "test" {
		t.Fatalf("archives %v, want [mounted test]", out.Archives)
	}
	// One entry per URL source, primary first; a local archive has none,
	// and no origin URL reaches the body.
	if m := out.Remote["mounted"]; len(out.Remote) != 1 || len(m) != 2 {
		t.Fatalf("remote %+v, want two sources under \"mounted\" only", out.Remote)
	} else if p, r := m[0], m[1]; p.Requests < 2 || p.BytesFetched == 0 || p.BytesRead == 0 || p.Fills == 0 || p.Fills > p.Misses ||
		p.SegmentBytes == 0 || r.SegmentBytes != p.SegmentBytes || r.Requests != 1 || r.Fills != 0 {
		t.Fatalf("remote sources %+v: want a primary that fetched and a replica that was only probed, cut alike", m)
	}
	if strings.Contains(rec.Body.String(), "127.0.0.1") {
		t.Fatalf("stats body names an origin: %s", rec.Body.String())
	}
	if out.Kernel != sz.KernelPath() {
		t.Fatalf("codec_kernel %q, want %q", out.Kernel, sz.KernelPath())
	}
	if out.Cache.Hits == 0 || out.HitRatio <= 0 {
		t.Fatalf("expected hits after repeated requests: %+v", out.Cache)
	}
}
