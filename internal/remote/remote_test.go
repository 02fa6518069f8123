package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ETag is the validator pinned at Open ("" if the server sent none).
func (r *Reader) ETag() string { return r.etag }

// rangeServer serves blob with net/http's standard Range handling and a
// strong ETag, like a well-behaved origin.
func rangeServer(t *testing.T, blob []byte, etag string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if etag != "" {
			w.Header().Set("ETag", etag)
		}
		http.ServeContent(w, req, "blob.bin", time.Time{}, bytes.NewReader(blob))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func testBlob(n int) []byte {
	blob := make([]byte, n)
	rng := rand.New(rand.NewSource(42))
	rng.Read(blob)
	return blob
}

func TestOpenAndReadAt(t *testing.T) {
	blob := testBlob(300_000)
	ts := rangeServer(t, blob, `"v1"`)
	r, err := Open(ts.URL, Config{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != int64(len(blob)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(blob))
	}
	if r.ETag() != `"v1"` {
		t.Fatalf("ETag = %q, want %q", r.ETag(), `"v1"`)
	}
	if r.Label() != ts.URL {
		t.Fatalf("Label = %q", r.Label())
	}
	// Reads of every flavour: inside one segment, spanning segments,
	// at EOF, past EOF.
	cases := []struct{ off, n int }{
		{0, 100}, {777, 3000}, {16<<10 - 5, 10}, {100_000, 90_000},
		{len(blob) - 10, 10},
	}
	for _, c := range cases {
		got := make([]byte, c.n)
		n, err := r.ReadAt(got, int64(c.off))
		if err != nil || n != c.n {
			t.Fatalf("ReadAt(%d, %d) = %d, %v", c.off, c.n, n, err)
		}
		if !bytes.Equal(got, blob[c.off:c.off+c.n]) {
			t.Fatalf("ReadAt(%d, %d): bytes differ", c.off, c.n)
		}
	}
	// Truncated tail read: n < len(p) with io.EOF.
	got := make([]byte, 100)
	n, err := r.ReadAt(got, int64(len(blob)-40))
	if n != 40 || err != io.EOF {
		t.Fatalf("tail ReadAt = %d, %v; want 40, io.EOF", n, err)
	}
	if !bytes.Equal(got[:40], blob[len(blob)-40:]) {
		t.Fatal("tail bytes differ")
	}
	if _, err := r.ReadAt(got, int64(len(blob))); err != io.EOF {
		t.Fatalf("past-EOF ReadAt err = %v, want io.EOF", err)
	}
	st := r.Stats()
	if st.Fills > st.Misses {
		t.Fatalf("fills %d > misses %d", st.Fills, st.Misses)
	}
	if st.Requests == 0 || st.BytesFetched == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

func TestCacheHitsAndEviction(t *testing.T) {
	blob := testBlob(64 << 10)
	ts := rangeServer(t, blob, `"v1"`)
	r, err := Open(ts.URL, Config{SegmentBytes: 8 << 10, CacheBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 8<<10)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("second read hits = %d, want %d", after.Hits, before.Hits+1)
	}
	// Sweep the whole blob (4x the budget), then re-read the start: the
	// budget must have evicted it (a miss), and resident bytes must have
	// stayed within budget.
	for off := int64(0); off < int64(len(blob)); off += 8 << 10 {
		if _, err := r.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	resident := r.cache.Stats().Bytes
	if resident > 16<<10 {
		t.Fatalf("resident %d bytes exceeds 16KiB budget", resident)
	}
	pre := r.Stats().Misses
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Misses != pre+1 {
		t.Fatal("expected evicted segment to miss")
	}
}

func TestSingleflightCollapsesFills(t *testing.T) {
	blob := testBlob(32 << 10)
	var reqs sync.Map
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reqs.Store(req.Header.Get("Range"), true)
		time.Sleep(20 * time.Millisecond) // widen the window for concurrent misses
		w.Header().Set("ETag", `"v1"`)
		http.ServeContent(w, req, "blob.bin", time.Time{}, bytes.NewReader(blob))
	}))
	defer ts.Close()
	r, err := Open(ts.URL, Config{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 1024)
			if _, err := r.ReadAt(buf, int64(i*512)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st := r.Stats()
	if st.Fills > st.Misses {
		t.Fatalf("fills %d > misses %d", st.Fills, st.Misses)
	}
	if st.Fills != 1 {
		t.Fatalf("16 concurrent reads of one segment did %d fills, want 1", st.Fills)
	}
}

func TestShortRangeResponse(t *testing.T) {
	blob := testBlob(64 << 10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Range") == "bytes=0-0" {
			http.ServeContent(w, req, "b", time.Time{}, bytes.NewReader(blob))
			return
		}
		// Claim the full range but send half the bytes, then cut the
		// connection: a body shorter than the Content-Range promise.
		w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-%d/%d", 16<<10-1, len(blob)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(blob[:8<<10])
		w.(http.Flusher).Flush()
		conn, _, _ := w.(http.Hijacker).Hijack()
		conn.Close()
	}))
	defer ts.Close()
	r, err := Open(ts.URL, Config{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 4<<10)
	if _, err := r.ReadAt(buf, 0); err == nil {
		t.Fatal("short range body did not error")
	}
}

func TestWrongSpanRangeResponse(t *testing.T) {
	blob := testBlob(64 << 10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Range") == "bytes=0-0" {
			http.ServeContent(w, req, "b", time.Time{}, bytes.NewReader(blob))
			return
		}
		// Answer a different (over-long) span than asked.
		w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-%d/%d", 32<<10-1, len(blob)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(blob[:32<<10])
	}))
	defer ts.Close()
	r, err := Open(ts.URL, Config{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 4<<10)
	if _, err := r.ReadAt(buf, 0); err == nil || !strings.Contains(err.Error(), "asked bytes") {
		t.Fatalf("wrong-span response: err = %v, want span mismatch", err)
	}
}

func TestOverlongRangeBody(t *testing.T) {
	blob := testBlob(64 << 10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Range") == "bytes=0-0" {
			http.ServeContent(w, req, "b", time.Time{}, bytes.NewReader(blob))
			return
		}
		// Correct Content-Range, but more body bytes than it declares.
		w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-%d/%d", 16<<10-1, len(blob)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(blob[:24<<10])
	}))
	defer ts.Close()
	r, err := Open(ts.URL, Config{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 4<<10)
	if _, err := r.ReadAt(buf, 0); err == nil || !strings.Contains(err.Error(), "over-long") {
		t.Fatalf("over-long body: err = %v, want over-long error", err)
	}
}

func TestFullResponseFallback(t *testing.T) {
	// A server that ignores Range entirely (200 + full body) must still
	// produce correct bytes, just without partial transfers.
	blob := testBlob(48 << 10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("ETag", `"v1"`)
		w.Header().Set("Content-Length", fmt.Sprint(len(blob)))
		w.WriteHeader(http.StatusOK)
		w.Write(blob)
	}))
	defer ts.Close()
	r, err := Open(ts.URL, Config{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Size() != int64(len(blob)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(blob))
	}
	got := make([]byte, 1000)
	if _, err := r.ReadAt(got, 40_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob[40_000:41_000]) {
		t.Fatal("bytes differ via 200 fallback")
	}
}

func Test416(t *testing.T) {
	blob := testBlob(16 << 10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Range") == "bytes=0-0" {
			http.ServeContent(w, req, "b", time.Time{}, bytes.NewReader(blob))
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", 4<<10))
		w.WriteHeader(http.StatusRequestedRangeNotSatisfiable)
	}))
	defer ts.Close()
	r, err := Open(ts.URL, Config{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 1<<10)
	if _, err := r.ReadAt(buf, 8<<10); !errors.Is(err, ErrChanged) {
		t.Fatalf("416: err = %v, want ErrChanged", err)
	}
}

func TestConnectionDropMidBody(t *testing.T) {
	blob := testBlob(64 << 10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Range") == "bytes=0-0" {
			http.ServeContent(w, req, "b", time.Time{}, bytes.NewReader(blob))
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes 16384-%d/%d", 32<<10-1, len(blob)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(blob[16<<10 : 20<<10])
		w.(http.Flusher).Flush()
		conn, _, _ := w.(http.Hijacker).Hijack()
		conn.Close() // drop mid-body
	}))
	defer ts.Close()
	r, err := Open(ts.URL, Config{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 1<<10)
	if _, err := r.ReadAt(buf, 16<<10); err == nil {
		t.Fatal("connection drop mid-body did not error")
	}
	// The error must not be cached: a healthy retry through the same
	// reader is impossible here (server always drops), but the inflight
	// map must be clean so the next attempt issues a fresh fetch.
	pre := r.Stats().Fills
	r.ReadAt(buf, 16<<10) //nolint:errcheck
	if r.Stats().Fills != pre+1 {
		t.Fatal("failed fill was cached; retry did not refetch")
	}
}

func TestETagChangeBetweenRanges(t *testing.T) {
	// Generation pinning: the resource is appended/replaced between two
	// range requests. The second read must fail ErrChanged — never serve
	// bytes from the new generation against the old footer.
	blobV1 := testBlob(64 << 10)
	blobV2 := append(append([]byte{}, blobV1...), testBlob(16<<10)...)
	var mu sync.Mutex
	blob, etag := blobV1, `"v1"`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		b, e := blob, etag
		mu.Unlock()
		w.Header().Set("ETag", e)
		http.ServeContent(w, req, "b", time.Time{}, bytes.NewReader(b))
	}))
	defer ts.Close()
	r, err := Open(ts.URL, Config{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 1<<10)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	blob, etag = blobV2, `"v2"`
	mu.Unlock()
	if _, err := r.ReadAt(buf, 32<<10); !errors.Is(err, ErrChanged) {
		t.Fatalf("post-append read err = %v, want ErrChanged", err)
	}
	// Cached segments from the pinned generation stay readable — they
	// were fetched before the change and are still the old bytes.
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatalf("cached segment after change: %v", err)
	}
	if !bytes.Equal(buf, blobV1[:1<<10]) {
		t.Fatal("cached segment returned torn bytes")
	}
}

func TestETagChangeVia200Fallback(t *testing.T) {
	// A range-less server that swaps content must also be caught: the 200
	// fallback path compares ETag and Content-Length.
	var mu sync.Mutex
	blob, etag := testBlob(32<<10), `"v1"`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		b, e := blob, etag
		mu.Unlock()
		w.Header().Set("ETag", e)
		w.Header().Set("Content-Length", fmt.Sprint(len(b)))
		w.WriteHeader(http.StatusOK)
		w.Write(b)
	}))
	defer ts.Close()
	r, err := Open(ts.URL, Config{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mu.Lock()
	blob, etag = testBlob(32<<10), `"v2"`
	mu.Unlock()
	buf := make([]byte, 100)
	if _, err := r.ReadAt(buf, 0); !errors.Is(err, ErrChanged) {
		t.Fatalf("200-fallback after change: err = %v, want ErrChanged", err)
	}
}

func TestUnvalidated200AfterAppend(t *testing.T) {
	// The hole a pin to a strong ETag has to close: after an append the
	// origin answers the If-Range request with a 200 that carries no ETag
	// and, being chunked, no length. Nothing ties that body to the pinned
	// generation, so the read must fail ErrChanged — whether the origin
	// appended or not — and never return bytes of it. A weak or absent
	// validator never sends If-Range, pins nothing, and keeps the old
	// full-body fallback.
	blobV1 := testBlob(32 << 10)
	blobV2 := append(testBlob(8<<10), blobV1...) // shifts every byte
	for _, c := range []struct {
		name, etag string
		appended   bool
		wantErr    bool
	}{
		{"strong/appended", `"v1"`, true, true},
		{"strong/unchanged", `"v1"`, false, true},
		{"weak/unchanged", `W/"v1"`, false, false},
		{"none/unchanged", ``, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var appended atomic.Bool
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if req.Header.Get("Range") == "bytes=0-0" { // Open's probe
					if c.etag != "" {
						w.Header().Set("ETag", c.etag)
					}
					http.ServeContent(w, req, "b", time.Time{}, bytes.NewReader(blobV1))
					return
				}
				body := blobV1
				if appended.Load() {
					body = blobV2
				}
				w.WriteHeader(http.StatusOK)
				w.(http.Flusher).Flush() // commits to chunked: no Content-Length
				w.Write(body)
			}))
			defer ts.Close()
			r, err := Open(ts.URL, Config{SegmentBytes: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			appended.Store(c.appended)
			buf := make([]byte, 1<<10)
			_, err = r.ReadAt(buf, 16<<10)
			switch {
			case c.wantErr && !errors.Is(err, ErrChanged):
				t.Fatalf("err = %v, want ErrChanged", err)
			case !c.wantErr && (err != nil || !bytes.Equal(buf, blobV1[16<<10:17<<10])):
				t.Fatalf("unpinned full-body fallback: err = %v", err)
			}
		})
	}
}

func TestRetune(t *testing.T) {
	blob := testBlob(64 << 10)
	ts := rangeServer(t, blob, `"v1"`)
	r, err := Open(ts.URL, Config{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 1<<10)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	r.Retune(32 << 10)
	if r.SegmentBytes() != 32<<10 {
		t.Fatalf("SegmentBytes = %d after Retune", r.SegmentBytes())
	}
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, blob[:1<<10]) {
		t.Fatal("bytes differ after Retune")
	}
	// Clamping.
	r.Retune(1)
	if r.SegmentBytes() != minSegmentBytes {
		t.Fatalf("Retune(1) -> %d, want %d", r.SegmentBytes(), minSegmentBytes)
	}
}

// TestRetuneDuringStalledFetch holds one segment fetch at the origin,
// retunes to a larger unit under it, and lets it land. The read that was
// waiting gets its bytes; the fill, aligned to the old unit, must not
// enter the cache under the new one — there a read further into the same
// (now larger) segment would index past its end — and a reader arriving
// after the Retune must not be handed the old fill either.
func TestRetuneDuringStalledFetch(t *testing.T) {
	blob := testBlob(64 << 10)
	arrived, release := make(chan struct{}), make(chan struct{})
	var stallOnce sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Range") == "bytes=0-4095" {
			stallOnce.Do(func() {
				close(arrived)
				<-release
			})
		}
		w.Header().Set("ETag", `"v1"`)
		http.ServeContent(w, req, "blob.bin", time.Time{}, bytes.NewReader(blob))
	}))
	t.Cleanup(ts.Close)
	letGo := sync.OnceFunc(func() { close(release) })
	t.Cleanup(letGo) // before ts.Close, which waits for the handler
	r, err := Open(ts.URL, Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	read := func(off, n int) error {
		got := make([]byte, n)
		if _, err := r.ReadAt(got, int64(off)); err != nil {
			return err
		}
		if !bytes.Equal(got, blob[off:off+n]) {
			return fmt.Errorf("ReadAt(%d, %d): bytes differ", off, n)
		}
		return nil
	}
	stalled := make(chan error, 1)
	go func() { stalled <- read(100, 200) }()
	<-arrived
	r.Retune(16 << 10)
	// Same segment start, new unit, while the old fill is still out.
	late := make(chan error, 1)
	go func() { late <- read(8000, 100) }()
	select {
	case err := <-late:
		if err != nil {
			t.Fatalf("read under the new unit while the old fill is out: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read under the new unit waited on the fill of the old one")
	}
	letGo()
	if err := <-stalled; err != nil {
		t.Fatalf("read that spanned the Retune: %v", err)
	}
	if err := read(8000, 100); err != nil {
		t.Fatal(err)
	}
	if err := read(4000, 9000); err != nil {
		t.Fatal(err)
	}
}

func TestParseContentRange(t *testing.T) {
	good := []struct {
		h                  string
		first, last, total int64
	}{
		{"bytes 0-0/100", 0, 0, 100},
		{"bytes 5-9/100", 5, 9, 100},
		{"bytes 5-9/*", 5, 9, -1},
	}
	for _, c := range good {
		f, l, tot, err := parseContentRange(c.h)
		if err != nil || f != c.first || l != c.last || tot != c.total {
			t.Fatalf("parseContentRange(%q) = %d,%d,%d,%v", c.h, f, l, tot, err)
		}
	}
	bad := []string{"", "bytes 5-9", "bytes x-9/100", "bytes 9-5/100", "bytes 5-100/100", "0-0/100"}
	for _, h := range bad {
		if _, _, _, err := parseContentRange(h); err == nil {
			t.Fatalf("parseContentRange(%q) accepted", h)
		}
	}
}

func TestIsURL(t *testing.T) {
	if !IsURL("http://x/a") || !IsURL("https://x/a") {
		t.Fatal("http(s) URLs not recognized")
	}
	if IsURL("/tmp/a.taca") || IsURL("httpx.taca") {
		t.Fatal("paths misclassified as URLs")
	}
}

func TestOpenErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		http.NotFound(w, req)
	}))
	defer ts.Close()
	if _, err := Open(ts.URL, Config{}); err == nil {
		t.Fatal("Open of 404 resource succeeded")
	}
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		http.ServeContent(w, req, "b", time.Time{}, bytes.NewReader(nil))
	}))
	defer empty.Close()
	if _, err := Open(empty.URL, Config{}); err == nil {
		t.Fatal("Open of empty resource succeeded")
	}
}

// countingOrigin serves blob like rangeServer, after an optional delay,
// and counts the range requests after Open's probe. If gate is set, the
// first of them waits for release and then drops the connection.
type countingOrigin struct {
	*httptest.Server
	ranges  atomic.Int64
	release func() // idempotent; also runs before the origin closes
}

func newCountingOrigin(t *testing.T, blob []byte, delay time.Duration, arrived, gate chan struct{}) *countingOrigin {
	t.Helper()
	o := &countingOrigin{release: func() {}}
	if gate != nil {
		o.release = sync.OnceFunc(func() { close(gate) })
	}
	o.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Range") != "bytes=0-0" {
			if o.ranges.Add(1) == 1 && gate != nil {
				close(arrived)
				<-gate
				w.WriteHeader(http.StatusPartialContent)
				w.(http.Flusher).Flush()
				conn, _, _ := w.(http.Hijacker).Hijack()
				conn.Close()
				return
			}
			time.Sleep(delay)
		}
		w.Header().Set("ETag", `"v1"`)
		http.ServeContent(w, req, "blob.bin", time.Time{}, bytes.NewReader(blob))
	}))
	t.Cleanup(o.Close)
	t.Cleanup(o.release) // before Close, which waits for the handler
	return o
}

// TestRunFetch pins the fetch unit: every maximal run of a read's
// segments that are not resident is one range request, and every segment
// of it is one fill that concurrent readers share.
func TestRunFetch(t *testing.T) {
	const seg = 4 << 10
	blob := testBlob(64 << 10)
	open := func(o *countingOrigin) *Reader {
		t.Helper()
		r, err := Open(o.URL, Config{SegmentBytes: seg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	read := func(r *Reader, off, n int) error {
		got := make([]byte, n)
		if _, err := r.ReadAt(got, int64(off)); err != nil {
			return err
		}
		if !bytes.Equal(got, blob[off:off+n]) {
			return fmt.Errorf("ReadAt(%d, %d): bytes differ", off, n)
		}
		return nil
	}

	t.Run("cold read is one request", func(t *testing.T) {
		o := newCountingOrigin(t, blob, 0, nil, nil)
		r := open(o)
		// Five segments, the first and last in part.
		if err := read(r, 1000, 4*seg); err != nil {
			t.Fatal(err)
		}
		if n := o.ranges.Load(); n != 1 {
			t.Fatalf("cold read of 5 segments issued %d range requests, want 1", n)
		}
		if st := r.Stats(); st.BytesFetched != 5*seg || st.Misses != 5 || st.Fills != 5 {
			t.Fatalf("stats %+v, want 5 segments fetched, missed and filled", st)
		}
	})

	t.Run("resident middle splits the run", func(t *testing.T) {
		o := newCountingOrigin(t, blob, 0, nil, nil)
		r := open(o)
		if err := read(r, 2*seg+10, 20); err != nil {
			t.Fatal(err)
		}
		if err := read(r, 0, 5*seg); err != nil {
			t.Fatal(err)
		}
		if n := o.ranges.Load(); n != 3 {
			t.Fatalf("%d range requests, want 1 for the middle segment and 2 for the runs around it", n)
		}
		if st := r.Stats(); st.BytesFetched != 5*seg || st.Hits != 1 {
			t.Fatalf("stats %+v, want 5 segments fetched once and the middle one hit", st)
		}
	})

	t.Run("overlapping readers fetch each segment once", func(t *testing.T) {
		o := newCountingOrigin(t, blob, 2*time.Millisecond, nil, nil)
		r := open(o)
		union := make([]bool, len(blob)/seg)
		var spans [8][2]int
		rng := rand.New(rand.NewSource(7))
		for i := range spans {
			off := rng.Intn(len(blob) - 6*seg)
			spans[i] = [2]int{off, 1 + rng.Intn(6*seg)}
			for s := off / seg; s <= (off+spans[i][1]-1)/seg; s++ {
				union[s] = true
			}
		}
		var wg sync.WaitGroup
		for _, sp := range spans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := read(r, sp[0], sp[1]); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		var want int64
		for _, in := range union {
			if in {
				want += seg
			}
		}
		if st := r.Stats(); st.BytesFetched != want || st.Fills > st.Misses {
			t.Fatalf("stats %+v, want %d bytes fetched (the union of the spans) and fills <= misses", st, want)
		}
	})

	t.Run("failed run reaches every waiter and caches nothing", func(t *testing.T) {
		arrived, gate := make(chan struct{}), make(chan struct{})
		o := newCountingOrigin(t, blob, 0, arrived, gate)
		r := open(o)
		lead := make(chan error, 1)
		go func() { lead <- read(r, 0, 4*seg) }()
		<-arrived
		errs := make(chan error, 4)
		for s := 0; s < 4; s++ {
			go func() { errs <- read(r, s*seg+100, 10) }()
		}
		deadline := time.Now().Add(10 * time.Second)
		for r.Stats().Misses < 4+4 {
			if time.Now().After(deadline) {
				t.Fatal("readers of the run's segments never reached its flight")
			}
			time.Sleep(time.Millisecond)
		}
		o.release()
		if err := <-lead; err == nil {
			t.Fatal("the failed run's reader got no error")
		}
		for s := 0; s < 4; s++ {
			if err := <-errs; err == nil {
				t.Fatal("a waiter on the failed run got no error")
			}
		}
		if n := o.ranges.Load(); n != 1 {
			t.Fatalf("%d range requests, want only the failed run's", n)
		}
		if st := r.cache.Stats(); st.Entries != 0 || st.Fills != 4 {
			t.Fatalf("cache after the failed run: %+v, want 4 fills and nothing resident", st)
		}
		if err := read(r, 0, 4*seg); err != nil {
			t.Fatal(err)
		}
		if n := o.ranges.Load(); n != 2 {
			t.Fatalf("%d range requests, want the retry to fetch the run once more", n)
		}
	})
}

// FuzzParseContentRange holds the Content-Range parser to its contract on
// any header: no panic; an accepted triple has 0 <= first <= last and a
// total of -1 or past last; and the triple formatted back into a header
// parses to itself.
func FuzzParseContentRange(f *testing.F) {
	for _, h := range []string{
		"bytes 0-0/100", "bytes 5-9/100", "bytes 5-9/*",
		"", "bytes 5-9", "bytes x-9/100", "bytes 9-5/100", "bytes 5-100/100", "0-0/100",
		"bytes 0-0/-5", // a negative total once passed as an unknown one
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		first, last, total, err := parseContentRange(h)
		if err != nil {
			return
		}
		if first < 0 || last < first || (total != -1 && total <= last) {
			t.Fatalf("parseContentRange(%q) accepted %d-%d/%d", h, first, last, total)
		}
		tot := "*"
		if total >= 0 {
			tot = strconv.FormatInt(total, 10)
		}
		again := fmt.Sprintf("bytes %d-%d/%s", first, last, tot)
		f2, l2, t2, err := parseContentRange(again)
		if err != nil || f2 != first || l2 != last || t2 != total {
			t.Fatalf("%q parsed to %d-%d/%d, but %q to %d-%d/%d, %v", h, first, last, total, again, f2, l2, t2, err)
		}
	})
}
