package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/sim"
)

// writeTestArchiveFile materializes the standard two-snapshot test
// archive on disk, for the append path.
func writeTestArchiveFile(t testing.TB, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "live.taca")
	if err := os.WriteFile(path, testArchiveBytes(t, 7), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// ingestSnap generates a fresh snapshot and its .amr wire form.
func ingestSnap(t testing.TB, name string, seed int64) (*amr.Dataset, []byte) {
	t.Helper()
	ds, err := sim.Generate(sim.Spec{
		Name: name, FinestN: 16, Levels: 2, UnitBlock: 4,
		Seed: seed, LeafFractions: []float64{0.4, 0.6},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return ds, buf.Bytes()
}

// post drives the handler with a POST body.
func post(t testing.TB, h http.Handler, url string, body []byte, hdr ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", url, bytes.NewReader(body))
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// newAppendServer serves the on-disk archive writably as "live".
func newAppendServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	path := writeTestArchiveFile(t, t.TempDir())
	s := New(cfg)
	if _, err := s.Add("live", ArchiveSpec{Primary: path, Append: true, Ingest: codec.Config{ErrorBound: 1e9, Workers: 2}}); err != nil {
		t.Fatal(err)
	}
	return s, path
}

// TestIngestVisibility appends a snapshot over HTTP and asserts the new
// member is served immediately — no restart, no re-registration — while
// pre-existing members' payloads stay byte-identical; after shutdown the
// served bytes must equal what a cold open of the grown file extracts.
func TestIngestVisibility(t *testing.T) {
	s, path := newAppendServer(t, Config{})
	h := s.Handler()

	before := get(t, h, "/v1/a/live/snap/0/level/0")
	if before.Code != http.StatusOK {
		t.Fatalf("pre-ingest read: status %d", before.Code)
	}
	if rec := get(t, h, "/v1/a/live/snap/2"); rec.Code != http.StatusNotFound {
		t.Fatalf("snapshot 2 before ingest: status %d, want 404", rec.Code)
	}

	_, wire := ingestSnap(t, "live0", 123)
	rec := post(t, h, "/v1/a/live/ingest", wire)
	if rec.Code != http.StatusCreated {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Archive    string `json:"archive"`
		Snapshot   int    `json:"snapshot"`
		Name       string `json:"name"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("ingest response: %v", err)
	}
	if resp.Snapshot != 2 || resp.Name != "live0" || resp.Generation != 1 {
		t.Fatalf("ingest response %+v, want snapshot 2 name live0 generation 1", resp)
	}

	// The appended member is readable on the very next request.
	var served [][]byte
	for li := 0; li < 2; li++ {
		rec := get(t, h, fmt.Sprintf("/v1/a/live/snap/2/level/%d", li))
		if rec.Code != http.StatusOK {
			t.Fatalf("new member level %d: status %d: %s", li, rec.Code, rec.Body.String())
		}
		served = append(served, append([]byte(nil), rec.Body.Bytes()...))
	}
	// Pre-existing member payloads are untouched.
	after := get(t, h, "/v1/a/live/snap/0/level/0")
	if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Fatal("pre-existing member payload changed across ingest")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold reopen: the served-while-hot bytes must match disk truth.
	fr, err := archive.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if n := len(fr.Members()); n != 3 {
		t.Fatalf("reopened archive has %d members, want 3", n)
	}
	if g := fr.Generation(); g != 1 {
		t.Fatalf("reopened generation %d, want 1", g)
	}
	for li := 0; li < 2; li++ {
		l, err := fr.ExtractLevel(2, li)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served[li], leBytes(l.Grid.Data)) {
			t.Fatalf("level %d: served bytes differ from cold extraction", li)
		}
	}
}

// TestIngestConfigInheritance checks a zero codec.Config picks up the
// newest member's recorded compression parameters.
func TestIngestConfigInheritance(t *testing.T) {
	path := writeTestArchiveFile(t, t.TempDir())
	s := New(Config{})
	if _, err := s.Add("", ArchiveSpec{Primary: path, Append: true}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	_, wire := ingestSnap(t, "inherit", 9)
	rec := post(t, h, "/v1/a/live/ingest", wire)
	if rec.Code != http.StatusCreated {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	sa, err := s.lookup("live")
	if err != nil {
		t.Fatal(err)
	}
	ms := sa.reader().Members()
	last, prev := &ms[len(ms)-1], &ms[len(ms)-2]
	if last.ErrorBound != prev.ErrorBound || last.Mode != prev.Mode || last.QuantBits != prev.QuantBits {
		t.Fatalf("appended member params (eb=%g mode=%v qb=%d) differ from inherited (eb=%g mode=%v qb=%d)",
			last.ErrorBound, last.Mode, last.QuantBits, prev.ErrorBound, prev.Mode, prev.QuantBits)
	}
}

// TestIngestBackpressure holds the append loop mid-job, fills the queue,
// and asserts the overflow request is bounced with 429 + Retry-After
// while everything accepted eventually commits.
func TestIngestBackpressure(t *testing.T) {
	s, _ := newAppendServer(t, Config{IngestQueue: 1})
	h := s.Handler()
	sa, err := s.lookup("live")
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	var entered atomic.Bool
	sa.ing.beforeHandle = func() {
		// Only the first job blocks; the drain must run free.
		if entered.CompareAndSwap(false, true) {
			<-hold
		}
	}

	_, wire := ingestSnap(t, "bp", 5)
	codes := make(chan int, 3)
	var wg sync.WaitGroup
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- post(t, h, "/v1/a/live/ingest", wire).Code
		}()
	}
	// Job 1 occupies the loop (parked on hold), job 2 fills the queue.
	// Jobs must enter in order, so wait for each to be taken/queued.
	launch()
	waitFor(t, func() bool { return entered.Load() })
	launch()
	waitFor(t, func() bool { return len(sa.ing.slots) == 2 })
	// Queue full: this one must bounce immediately, before hold releases.
	rec := post(t, h, "/v1/a/live/ingest", wire)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow ingest: status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After")
	}
	close(hold)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusCreated {
			t.Fatalf("accepted ingest finished with status %d, want 201", code)
		}
	}
	if got := s.IngestStats(); got.Accepted != 2 || got.Rejected != 1 {
		t.Fatalf("ingest stats %+v, want 2 accepted / 1 rejected", got)
	}
}

// TestIngestCloseCommitsWaiting calls Close while one ingest is held
// mid-append and a second waits behind it: both must still answer 201,
// an ingest arriving after Close began is refused as draining, and the
// sealed file holds both new members.
func TestIngestCloseCommitsWaiting(t *testing.T) {
	s, path := newAppendServer(t, Config{IngestQueue: 1})
	h := s.Handler()
	sa, err := s.lookup("live")
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	var entered atomic.Bool
	sa.ing.beforeHandle = func() {
		if entered.CompareAndSwap(false, true) {
			<-hold
		}
	}

	ds, wire := ingestSnap(t, "close", 6)
	codes := make(chan int, 2)
	var wg sync.WaitGroup
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- post(t, h, "/v1/a/live/ingest", wire).Code
		}()
	}
	launch()
	waitFor(t, func() bool { return entered.Load() })
	launch()
	waitFor(t, func() bool { return len(sa.ing.slots) == 2 })
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitFor(t, func() bool { return sa.ing.closed.Load() })
	if _, _, err := sa.ing.append(ds); !errors.Is(err, ErrDraining) {
		t.Fatalf("append after Close began: %v, want ErrDraining", err)
	}
	close(hold)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusCreated {
			t.Fatalf("accepted ingest finished with status %d, want 201", code)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	fr, err := archive.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if n := len(fr.Members()); n != 4 {
		t.Fatalf("after Close: %d members on disk, want 4", n)
	}
}

// waitFor spins until cond holds (bounded by the test deadline).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 1e7; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("condition never held")
}

// TestIngestDraining checks the shutdown surface: draining flips healthz
// to 503 and refuses new ingests while reads keep flowing, and
// Server.Close commits everything already queued.
func TestIngestDraining(t *testing.T) {
	s, path := newAppendServer(t, Config{})
	h := s.Handler()
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	_, wire := ingestSnap(t, "pre", 31)
	if rec := post(t, h, "/v1/a/live/ingest", wire); rec.Code != http.StatusCreated {
		t.Fatalf("pre-drain ingest: status %d", rec.Code)
	}

	s.SetDraining(true)
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", rec.Code)
	}
	rec := post(t, h, "/v1/a/live/ingest", wire)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
	// Reads still work during the drain window.
	if rec := get(t, h, "/v1/a/live/snap/2/level/0"); rec.Code != http.StatusOK {
		t.Fatalf("read during drain: status %d", rec.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close sealed the file: the pre-drain ingest survived.
	fr, err := archive.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if n := len(fr.Members()); n != 3 {
		t.Fatalf("after drain: %d members on disk, want 3", n)
	}
}

// TestIngestMisuse covers the rejection paths: read-only archives,
// unknown archives, unparsable and structurally invalid bodies.
func TestIngestMisuse(t *testing.T) {
	blob := testArchiveBytes(t, 7)
	s, _ := newTestServer(t, blob, Config{}) // read-only registration
	h := s.Handler()
	_, wire := ingestSnap(t, "x", 1)
	if rec := post(t, h, "/v1/a/test/ingest", wire); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("read-only ingest: status %d, want 405: %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, h, "/v1/a/nope/ingest", wire); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown archive ingest: status %d, want 404", rec.Code)
	}

	sw, path := newAppendServer(t, Config{})
	defer sw.Close()
	hw := sw.Handler()
	if rec := post(t, hw, "/v1/a/live/ingest", []byte("not an amr stream")); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", rec.Code)
	}
	if rec := post(t, hw, "/v1/a/live/ingest", wire[:len(wire)/2]); rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want 400", rec.Code)
	}
	if rec := post(t, hw, "/v1/a/live/ingest", wire, "Content-Encoding", "gzip"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus gzip body: status %d, want 400", rec.Code)
	}
	// Nothing above should have grown the archive.
	fr, err := archive.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if n := len(fr.Members()); n != 2 {
		t.Fatalf("after rejected ingests: %d members, want 2", n)
	}
}

// TestReadWhileIngest hammers reads of pre-existing members from several
// goroutines while snapshots stream in through the ingest endpoint (run
// under -race in CI): reads must never fail, pre-existing payloads must
// stay byte-identical throughout, and every ingest must land.
func TestReadWhileIngest(t *testing.T) {
	s, _ := newAppendServer(t, Config{})
	defer s.Close()
	h := s.Handler()

	baseline := get(t, h, "/v1/a/live/snap/1/level/0")
	if baseline.Code != http.StatusOK {
		t.Fatalf("baseline read: status %d", baseline.Code)
	}
	want := baseline.Body.Bytes()

	const ingests = 3
	errs := make(chan error, 16)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := get(t, h, "/v1/a/live/snap/1/level/0")
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("concurrent read: status %d", rec.Code)
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), want) {
					errs <- fmt.Errorf("concurrent read: payload changed")
					return
				}
			}
		}()
	}
	for i := 0; i < ingests; i++ {
		_, wire := ingestSnap(t, fmt.Sprintf("live%d", i), int64(100+i))
		rec := post(t, h, "/v1/a/live/ingest", wire)
		if rec.Code != http.StatusCreated {
			t.Fatalf("ingest %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		// The member must be visible to an immediately following read.
		if rec := get(t, h, fmt.Sprintf("/v1/a/live/snap/%d", 2+i)); rec.Code != http.StatusOK {
			t.Fatalf("ingest %d not visible: status %d", i, rec.Code)
		}
	}
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sa, err := s.lookup("live")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sa.reader().Members()); n != 2+ingests {
		t.Fatalf("served member count %d, want %d", n, 2+ingests)
	}
	if g := sa.reader().Generation(); g != ingests {
		t.Fatalf("served generation %d, want %d", g, ingests)
	}
}
