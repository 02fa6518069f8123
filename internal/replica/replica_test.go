package replica

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultio"
	"repro/internal/remote"
)

// SourceStats is one source's health snapshot.
type SourceStats struct {
	Label      string `json:"label"`
	Reads      int64  `json:"reads"`
	Failures   int64  `json:"failures"`
	Demotions  int64  `json:"demotions"`
	Demoted    bool   `json:"demoted"`
	FailStreak int    `json:"fail_streak"`
}

// Stats snapshots every source's health, in priority order.
func (m *Multi) Stats() []SourceStats {
	out := make([]SourceStats, len(m.srcs))
	for i, ss := range m.srcs {
		ss.mu.Lock()
		out[i] = SourceStats{
			Label:      ss.src.Label(),
			Reads:      ss.reads,
			Failures:   ss.failures,
			Demotions:  ss.demotions,
			Demoted:    ss.demoted,
			FailStreak: ss.streak,
		}
		ss.mu.Unlock()
	}
	return out
}

var errInjected = errors.New("injected I/O error")

func blob(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// rig is a Multi over nf faultio-wrapped copies of the same bytes, with a
// manual clock.
type rig struct {
	m   *Multi
	fr  []*faultio.ReaderAt
	now time.Time
}

func newRig(t *testing.T, nf int) *rig {
	t.Helper()
	data := blob(4096)
	rg := &rig{now: time.Unix(1000, 0)}
	srcs := make([]Source, nf)
	for i := range srcs {
		fr := faultio.New(bytes.NewReader(data))
		rg.fr = append(rg.fr, fr)
		srcs[i] = Reader(fr, string(rune('a'+i)))
	}
	m, err := New(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	m.now = func() time.Time { return rg.now }
	rg.m = m
	return rg
}

func (rg *rig) read(t *testing.T, off int64, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if _, err := rg.m.ReadAt(p, off); err != nil {
		t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
	}
	return p
}

func TestNoSources(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("New with no sources succeeded")
	}
}

func TestPrimaryServesWhenHealthy(t *testing.T) {
	rg := newRig(t, 3)
	got := rg.read(t, 32, 16)
	want := blob(4096)[32:48]
	if !bytes.Equal(got, want) {
		t.Fatalf("read = %x, want %x", got, want)
	}
	if c := rg.fr[1].Calls() + rg.fr[2].Calls(); c != 0 {
		t.Fatalf("replicas saw %d calls while the primary is healthy", c)
	}
}

func TestFailoverPerRead(t *testing.T) {
	rg := newRig(t, 2)
	// Primary has a bad sector at [100, 200); replica is clean.
	rg.fr[0].SetPlan(faultio.FailTouching(100, 200, errInjected))
	got := rg.read(t, 96, 32)
	if !bytes.Equal(got, blob(4096)[96:128]) {
		t.Fatalf("failover read returned wrong bytes")
	}
	// Reads off the bad sector still come from the primary.
	before := rg.fr[1].Calls()
	rg.read(t, 1000, 16)
	if rg.fr[1].Calls() != before {
		t.Fatal("clean-offset read consulted the replica")
	}
}

func TestShortReadFailsOver(t *testing.T) {
	rg := newRig(t, 2)
	// A replica lagging generations is a strict prefix: model it with a
	// short read on every call to the primary.
	rg.fr[0].SetPlan(func(int64, int64, int) *faultio.Fault { return &faultio.Fault{Short: 4} })
	got := rg.read(t, 0, 64)
	if !bytes.Equal(got, blob(4096)[:64]) {
		t.Fatalf("short-read failover returned wrong bytes")
	}
}

func TestFlippedBytesAreNotReplicasProblem(t *testing.T) {
	// A silent in-flight flip on the primary is NOT detected here — that
	// is the archive layer's digest check. Multi must pass it through.
	rg := newRig(t, 2)
	rg.fr[0].SetPlan(faultio.FlipByte(10, 0x40))
	got := rg.read(t, 0, 16)
	want := blob(4096)[:16]
	if got[10] != want[10]^0x40 {
		t.Fatalf("flip not passed through: %x", got[10])
	}
}

func TestDemoteAndProbeBackoff(t *testing.T) {
	rg := newRig(t, 2)
	rg.fr[0].SetPlan(faultio.FailTouching(0, 4096, errInjected))
	for i := 0; i < demoteAfter; i++ {
		rg.read(t, 0, 8)
	}
	st := rg.m.Stats()
	if !st[0].Demoted || st[0].Demotions != 1 || st[0].Failures != demoteAfter {
		t.Fatalf("after %d failures: %+v", demoteAfter, st[0])
	}
	// While demoted and inside the backoff window the primary is skipped.
	calls := rg.fr[0].Calls()
	rg.read(t, 0, 8)
	if rg.fr[0].Calls() != calls {
		t.Fatal("demoted source was tried inside its backoff window")
	}
	// At probe time it is tried once, fails, and the backoff doubles.
	rg.now = rg.now.Add(probeBackoff)
	rg.read(t, 0, 8)
	if rg.fr[0].Calls() != calls+1 {
		t.Fatalf("probe-due source saw %d calls, want %d", rg.fr[0].Calls(), calls+1)
	}
	if st := rg.m.Stats(); st[0].Demotions != 2 {
		t.Fatalf("failed probe should re-arm the breaker: %+v", st[0])
	}
	rg.now = rg.now.Add(probeBackoff) // halfway through the doubled window: still skipped
	calls = rg.fr[0].Calls()
	rg.read(t, 0, 8)
	if rg.fr[0].Calls() != calls {
		t.Fatal("re-armed source was probed before the doubled backoff elapsed")
	}
	// Heal the source; the next due probe succeeds and re-promotes it.
	rg.fr[0].SetPlan(nil)
	rg.now = rg.now.Add(2 * probeBackoff)
	rg.read(t, 0, 8)
	st = rg.m.Stats()
	if st[0].Demoted || st[0].FailStreak != 0 {
		t.Fatalf("healed probe should re-promote: %+v", st[0])
	}
	// Re-promoted primary serves again without touching the replica.
	replicaCalls := rg.fr[1].Calls()
	rg.read(t, 0, 8)
	if rg.fr[1].Calls() != replicaCalls {
		t.Fatal("re-promoted primary did not take the read back")
	}
}

func TestAllDemotedStillServes(t *testing.T) {
	// Every source demoted and mid-backoff: reads must still try them
	// all as a last resort rather than failing outright.
	rg := newRig(t, 2)
	rg.fr[0].SetPlan(faultio.FailTouching(0, 4096, errInjected))
	rg.fr[1].SetPlan(faultio.FailTouching(0, 4096, errInjected))
	p := make([]byte, 8)
	for i := 0; i < demoteAfter; i++ {
		if _, err := rg.m.ReadAt(p, 0); err == nil {
			t.Fatal("read with every source failing succeeded")
		}
	}
	if st := rg.m.Stats(); !st[0].Demoted || !st[1].Demoted {
		t.Fatalf("every source should be demoted: %+v", st)
	}
	rg.fr[1].SetPlan(nil) // one copy survives, still demoted
	got := rg.read(t, 0, 8)
	if !bytes.Equal(got, blob(4096)[:8]) {
		t.Fatal("last-resort read returned wrong bytes")
	}
}

func TestAllSourcesFailReturnsLastError(t *testing.T) {
	rg := newRig(t, 3)
	for _, fr := range rg.fr {
		fr.SetPlan(faultio.FailTouching(0, 4096, errInjected))
	}
	p := make([]byte, 8)
	_, err := rg.m.ReadAt(p, 0)
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want wrapped errInjected", err)
	}
}

func TestFullReadAtEOFIsSuccess(t *testing.T) {
	// bytes.Reader returns (n, io.EOF) for a span ending exactly at the
	// last byte on some paths; a full read must count as success.
	data := blob(64)
	m, err := New(Reader(bytes.NewReader(data), "only"))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 16)
	n, rerr := m.ReadAt(p, 48)
	if n != 16 || rerr != nil {
		t.Fatalf("tail read = %d, %v", n, rerr)
	}
	if st := m.Stats(); st[0].Failures != 0 {
		t.Fatalf("tail read counted as failure: %+v", st[0])
	}
}

func TestReadPastEOFFails(t *testing.T) {
	data := blob(64)
	m, err := New(Reader(bytes.NewReader(data), "only"))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 16)
	if _, err := m.ReadAt(p, 60); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("past-EOF read = %v", err)
	}
}

// TestOpenPathAndURL opens the same bytes as a local file and over a
// range-capable URL: both report the file's size, read the same bytes
// and close; a missing path is an error.
func TestOpenPathAndURL(t *testing.T) {
	want := bytes.Repeat([]byte("replica "), 100)
	path := filepath.Join(t.TempDir(), "a.taca")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.FileServer(http.Dir(filepath.Dir(path))))
	defer srv.Close()
	for _, spec := range []string{path, srv.URL + "/a.taca"} {
		src, size, err := Open(spec, remote.Config{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		got := make([]byte, size)
		if _, err := src.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatalf("%s: %v", spec, err)
		}
		if size != int64(len(want)) || !bytes.Equal(got, want) || src.Label() == "" {
			t.Fatalf("%s: size %d, label %q, bytes equal %v", spec, size, src.Label(), bytes.Equal(got, want))
		}
		if err := src.Close(); err != nil {
			t.Fatalf("%s: close: %v", spec, err)
		}
	}
	if _, _, err := Open(filepath.Join(t.TempDir(), "missing.taca"), remote.Config{}); err == nil {
		t.Fatal("opened a missing path")
	}
}
