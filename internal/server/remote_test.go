package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/remote"
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
	tuneRemote(r, rr, remote.Config{})
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

// TestRemoteMountOnRawEndpoint stacks one serving tier on another: a
// second Server opens the first Server's /v1/a/{name}/raw endpoint as
// its primary, and both must serve identical bytes. Also checks the
// derived name (".../a/test/raw" mounts as "test").
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
// endpoint must answer under /v1/, and errors must carry the JSON
// envelope with stable codes on both route sets.
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
		"/stats", "/v1/stats",
		"/archives", "/v1/archives",
		"/a/test", "/v1/a/test",
		"/a/test/snap/0", "/v1/a/test/snap/0",
	} {
		if rec := get(t, h, path); rec.Code != 200 {
			t.Fatalf("%s = %d", path, rec.Code)
		}
	}
	// Binary surfaces must be byte-identical across route sets.
	legacy := get(t, h, "/a/test/snap/0/amr")
	v1 := get(t, h, "/v1/a/test/snap/0/amr")
	if legacy.Code != 200 || v1.Code != 200 || !bytes.Equal(legacy.Body.Bytes(), v1.Body.Bytes()) {
		t.Fatalf("amr differs across route sets: %d vs %d", legacy.Code, v1.Code)
	}

	// Error envelope, both route sets.
	for _, path := range []string{"/a/nope", "/v1/a/nope"} {
		rec := get(t, h, path)
		if rec.Code != 404 {
			t.Fatalf("%s = %d, want 404", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s content-type %q", path, ct)
		}
		var env struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s body %q: %v", path, rec.Body.String(), err)
		}
		if env.Code != "not_found" || env.Message == "" || env.Error != env.Message {
			t.Fatalf("%s envelope %+v", path, env)
		}
	}
	rec := get(t, h, "/v1/a/test/snap/99")
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
	part := get(t, h, "/a/test/raw", "Range", "bytes=8-23")
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
		{"http://h:1234/a/origin/raw", "origin"},
		{"https://h/files/camp.taca", "camp"},
		{"edge=http://h/a/origin/raw", "edge"},
		// A query string contains '=' but must not be mis-split as a
		// name=primary form.
		{"http://h/a/origin/raw?x=1", "origin"},
	}
	for _, c := range cases {
		if got := SpecName(c.spec); got != c.want {
			t.Errorf("SpecName(%q) = %q, want %q", c.spec, got, c.want)
		}
	}
}
