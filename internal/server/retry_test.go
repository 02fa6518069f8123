package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/faultio"
	"repro/internal/sim"
)

var errFlaky = errors.New("injected transient I/O error")

// sleepRecorder captures backoff sleeps instead of actually sleeping, so
// retry cadence is asserted without wall-clock time in the test.
type sleepRecorder struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (sr *sleepRecorder) sleep(d time.Duration) {
	sr.mu.Lock()
	sr.slept = append(sr.slept, d)
	sr.mu.Unlock()
}

func (sr *sleepRecorder) all() []time.Duration {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return append([]time.Duration(nil), sr.slept...)
}

// flakyServer registers blob as "test", served through a faultio wrapper
// (armed by the test after this clean open), with a recording clock and a
// fixed midpoint jitter so jittered(d, 0.5) == d exactly.
func flakyServer(t testing.TB, blob []byte, cfg Config) (*Server, *faultio.ReaderAt, *sleepRecorder) {
	t.Helper()
	fr := faultio.New(bytes.NewReader(blob))
	r, err := archive.Open(fr, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	sr := &sleepRecorder{}
	s.sleep = sr.sleep
	s.jitter = func() float64 { return 0.5 }
	if err := s.AddReader("test", r, nil); err != nil {
		t.Fatal(err)
	}
	return s, fr, sr
}

// cleanLevelBody is the expected payload of /v1/a/test/snap/{mi}/level/{li},
// extracted from a pristine reader so no serving-path state is involved.
func cleanLevelBody(t testing.TB, blob []byte, mi, li int) []byte {
	t.Helper()
	r, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	l, err := r.ExtractLevel(mi, li)
	if err != nil {
		t.Fatal(err)
	}
	return leBytes(l.Grid.Data)
}

// TestRetryFlakyThenHeal drives a request through storage that fails its
// first two reads and then heals: the request must succeed byte-identical
// to a clean extraction, after exactly two backoff sleeps on the doubling
// schedule, and the member must not be quarantined — transient faults are
// not corruption.
func TestRetryFlakyThenHeal(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	s, fr, sr := flakyServer(t, blob, Config{Workers: 1})
	fr.SetPlan(faultio.FailFirst(2, errFlaky))
	rec := get(t, s.Handler(), "/v1/a/test/snap/0/level/0")
	if rec.Code != http.StatusOK {
		t.Fatalf("request through flaky-then-heal storage: status %d: %s", rec.Code, rec.Body.String())
	}
	if want := cleanLevelBody(t, blob, 0, 0); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("payload served through retries differs from a clean extraction")
	}
	if got, want := sr.all(), []time.Duration{retryBackoff, 2 * retryBackoff}; len(got) != len(want) ||
		got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("backoff sleeps %v, want %v", got, want)
	}
	if fr.Faults() != 2 {
		t.Fatalf("storage injected %d faults, want 2", fr.Faults())
	}
	hs := s.HealthStats()
	if hs.Retries != 2 || hs.QuarantinedMembers != 0 || hs.CorruptEvents != 0 {
		t.Fatalf("health after transient faults: %+v", hs)
	}
	if rec := get(t, s.Handler(), "/healthz"); rec.Body.String() != "ok\n" {
		t.Fatalf("healthz after healed transient faults: %q", rec.Body.String())
	}
}

// TestRetryJitterSpreadsBackoff pins the jitter seam: a sleep is drawn
// from [0.5d, 1.5d), so synchronized clients desynchronize.
func TestRetryJitterSpreadsBackoff(t *testing.T) {
	d := 10 * time.Millisecond
	for _, j := range []float64{0, 0.25, 0.5, 0.999} {
		got := jittered(d, j)
		if got < d/2 || got >= d+d/2 {
			t.Fatalf("jittered(%v, %v) = %v, outside [%v, %v)", d, j, got, d/2, d+d/2)
		}
	}
	if jittered(d, 0.5) != d {
		t.Fatalf("midpoint jitter must be the nominal backoff, got %v", jittered(d, 0.5))
	}
}

// TestRetryExhaustionStaysTransient never lets the storage heal: the
// request must fail after exactly retryAttempts sleeps with the I/O error
// in the chain — and because the failure is transient, not corruption,
// the member must stay in service and recover as soon as the storage does.
func TestRetryExhaustionStaysTransient(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	s, fr, sr := flakyServer(t, blob, Config{Workers: 1})
	fr.SetPlan(faultio.FailFirst(1<<30, errFlaky))
	rec := get(t, s.Handler(), "/v1/a/test/snap/0/level/0")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unhealed storage: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if got := sr.all(); len(got) != retryAttempts {
		t.Fatalf("slept %d times, want %d (bounded attempts)", len(got), retryAttempts)
	}
	if hs := s.HealthStats(); hs.QuarantinedMembers != 0 || hs.CorruptEvents != 0 {
		t.Fatalf("transient exhaustion must not quarantine: %+v", hs)
	}
	fr.SetPlan(nil) // storage healed
	rec = get(t, s.Handler(), "/v1/a/test/snap/0/level/0")
	if rec.Code != http.StatusOK {
		t.Fatalf("after storage healed: status %d", rec.Code)
	}
	if want := cleanLevelBody(t, blob, 0, 0); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("post-heal payload differs from a clean extraction")
	}
}

// TestRetryDecodesNeverExceedMisses hammers flaky storage from many
// goroutines (run under -race in CI) and asserts the cache's decodes ≤
// misses invariant survives retries: retrying happens inside one fill, so
// it must never inflate the decode count past the misses that admitted
// fills.
func TestRetryDecodesNeverExceedMisses(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	s, fr, _ := flakyServer(t, blob, Config{})
	fr.SetPlan(faultio.FailFirst(8, errFlaky))
	h := s.Handler()
	var wg sync.WaitGroup
	codes := make([]int, 32)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("/v1/a/test/snap/%d/level/%d", i%2, i%2)
			codes[i] = get(t, h, url).Code
		}(i)
	}
	wg.Wait()
	st := s.Cache().Stats()
	if st.Decodes > st.Misses {
		t.Fatalf("decodes %d > misses %d under retries", st.Decodes, st.Misses)
	}
	// The plan healed after 8 faults, so a final pass must serve clean.
	for mi := 0; mi < 2; mi++ {
		rec := get(t, h, fmt.Sprintf("/v1/a/test/snap/%d/level/%d", mi, mi))
		if rec.Code != http.StatusOK {
			t.Fatalf("post-storm request for member %d: status %d", mi, rec.Code)
		}
		if want := cleanLevelBody(t, blob, mi, mi); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("member %d payload differs from clean extraction after the fault storm", mi)
		}
	}
	if st := s.Cache().Stats(); st.Decodes > st.Misses {
		t.Fatalf("decodes %d > misses %d after recovery", st.Decodes, st.Misses)
	}
}

// TestRetryRunExhaustionNamesItsMember reads the chain of a single-level
// campaign, whose members' frames lie back to back in the file, through
// storage that fails every read touching member 2's frames. The request
// for member 3 reads its chain as one run per member, so the exhausted
// run's error names member 2 and the envelope member 3, the one asked
// for. It fails as transient: no member is struck or quarantined, and
// the request serves once the storage heals.
func TestRetryRunExhaustionNamesItsMember(t *testing.T) {
	base, err := sim.Generate(sim.Spec{
		Name: "c0", FinestN: 32, Levels: 1, UnitBlock: 4,
		Seed: 41, LeafFractions: []float64{1},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := campaignFrom(t, base, 4, 4, 8)
	var logged []string
	s, fr, sr := flakyServer(t, blob, Config{Workers: 1, Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	sa, err := s.lookup("test")
	if err != nil {
		t.Fatal(err)
	}
	ms := sa.reader().Members()
	span := func(mi int) (lo, hi int64) {
		fs := ms[mi].Levels[0].Batches
		return fs[0].Offset, fs[len(fs)-1].Offset + fs[len(fs)-1].Length
	}
	lo, hi := span(2)
	if _, end1 := span(1); ms[3].Ref != 2 || ms[2].Ref != 1 || end1 != lo {
		t.Fatal("members 1, 2 and 3 are not a chain whose frames lie back to back")
	}
	fr.SetPlan(faultio.FailTouching(lo, hi, errFlaky))
	rec := get(t, s.Handler(), "/v1/a/test/snap/3/level/0")
	var env errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Code != "io" || env.Member == nil || *env.Member != 3 {
		t.Fatalf("status %d, envelope %s (%v): want 500, code io, member 3", rec.Code, rec.Body.String(), err)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "snapshot 2 level 0") {
		t.Fatalf("logged %q, want one failure naming snapshot 2 alone", logged)
	}
	if got := sr.all(); len(got) != retryAttempts {
		t.Fatalf("slept %d times, want %d", len(got), retryAttempts)
	}
	if hs := s.HealthStats(); hs.QuarantinedMembers != 0 || hs.CorruptEvents != 0 {
		t.Fatalf("a transient run failure struck a member: %+v", hs)
	}
	fr.SetPlan(nil)
	rec = get(t, s.Handler(), "/v1/a/test/snap/3/level/0")
	if want := cleanLevelBody(t, blob, 3, 0); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("after storage healed: status %d, body differs from a clean extraction", rec.Code)
	}
}
