package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/faultio"
	"repro/internal/sim"
)

// chaosArchiveBytes builds the two-snapshot test archive with per-frame
// digests, so in-flight bit rot is detected deterministically instead of
// surfacing as silently wrong values.
func chaosArchiveBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 4
	for ti, frac := range [][]float64{{0.25, 0.75}, {0.55, 0.45}} {
		spec := sim.Spec{
			Name: fmt.Sprintf("snap%d", ti), FinestN: 32, Levels: 2,
			UnitBlock: 4, Seed: 77 + int64(ti), LeafFractions: frac,
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

// frameMidpoint locates a byte in the middle of one frame's payload.
func frameMidpoint(t testing.TB, r *archive.Reader, mi, li, b int) int64 {
	t.Helper()
	rec := r.Members()[mi].Levels[li].Batches[b]
	return rec.Offset + rec.Length/2
}

// quarantineBody is httpError's structured 502 payload.
type quarantineBody struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	Quarantined bool   `json:"quarantined"`
}

// healthOf decodes the /stats health section.
func healthOf(t *testing.T, h http.Handler) HealthStats {
	t.Helper()
	rec := get(t, h, "/v1/stats")
	var out struct {
		Health HealthStats `json:"health"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("stats decode: %v (%s)", err, rec.Body.String())
	}
	return out.Health
}

// TestChaosBitFlipQuarantinesMember is the headline fault-injection run:
// storage silently flips one bit in one frame of member 0. Requests for
// that member fail with corruption errors until the strike threshold
// quarantines it (structured 502 from then on, for every level of the
// member), /healthz degrades, /stats names the member — and member 1,
// served through the same hostile ReaderAt, stays byte-identical to a
// clean extraction throughout.
func TestChaosBitFlipQuarantinesMember(t *testing.T) {
	blob := chaosArchiveBytes(t)
	s, fr, _ := flakyServer(t, blob, Config{Workers: 1, QuarantineAfter: 2})
	h := s.Handler()
	sa, err := s.lookup("test")
	if err != nil {
		t.Fatal(err)
	}
	fr.SetPlan(faultio.FlipByte(frameMidpoint(t, sa.reader(), 0, 0, 0), 0x20))

	// Strikes 1 and 2: corruption is detected (500, error names the
	// damage), and the second strike trips the quarantine.
	for strike := 1; strike <= 2; strike++ {
		rec := get(t, h, "/v1/a/test/snap/0/level/0")
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("strike %d: status %d, want 500: %s", strike, rec.Code, rec.Body.String())
		}
		if !bytes.Contains(rec.Body.Bytes(), []byte("checksum")) {
			t.Fatalf("strike %d: error does not name the checksum mismatch: %s", strike, rec.Body.String())
		}
	}

	// Quarantined: every level of member 0 answers the structured 502.
	for li := 0; li < 2; li++ {
		rec := get(t, h, fmt.Sprintf("/v1/a/test/snap/0/level/%d", li))
		if rec.Code != http.StatusBadGateway {
			t.Fatalf("quarantined member level %d: status %d, want 502: %s", li, rec.Code, rec.Body.String())
		}
		var qb quarantineBody
		if err := json.Unmarshal(rec.Body.Bytes(), &qb); err != nil {
			t.Fatalf("502 body is not the structured form: %v (%s)", err, rec.Body.String())
		}
		if !qb.Quarantined || qb.Code != "quarantined" || qb.Message == "" {
			t.Fatalf("structured 502 fields: %+v", qb)
		}
	}

	// The node is degraded but alive, and /stats names the member.
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK || rec.Body.String() != "degraded\n" {
		t.Fatalf("healthz: %d %q, want 200 \"degraded\"", rec.Code, rec.Body.String())
	}
	hs := healthOf(t, h)
	if hs.QuarantinedMembers != 1 || hs.CorruptEvents < 2 || !hs.Degraded {
		t.Fatalf("health stats: %+v", hs)
	}
	if qs := hs.Quarantined["test"]; len(qs) != 1 || qs[0] != 0 {
		t.Fatalf("quarantine map: %v, want member 0 of \"test\"", hs.Quarantined)
	}

	// Member 1, through the same hostile storage, serves byte-identical.
	for li := 0; li < 2; li++ {
		rec := get(t, h, fmt.Sprintf("/v1/a/test/snap/1/level/%d", li))
		if rec.Code != http.StatusOK {
			t.Fatalf("healthy member level %d: status %d: %s", li, rec.Code, rec.Body.String())
		}
		if want := cleanLevelBody(t, blob, 1, li); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("healthy member level %d differs from a clean extraction", li)
		}
	}
}

// TestChaosScrubQuarantinesBeforeTraffic arms the bit flip before any
// client request and lets the scrubber find it: after one sweep the
// damaged member is out of service — no client ever saw a corrupt read
// fail — and the healthy member still serves.
func TestChaosScrubQuarantinesBeforeTraffic(t *testing.T) {
	blob := chaosArchiveBytes(t)
	s, fr, _ := flakyServer(t, blob, Config{Workers: 1})
	h := s.Handler()
	sa, err := s.lookup("test")
	if err != nil {
		t.Fatal(err)
	}
	fr.SetPlan(faultio.FlipByte(frameMidpoint(t, sa.reader(), 0, 1, 0), 0x08))

	if issues := s.ScrubOnce(); issues == 0 {
		t.Fatal("scrub found no issues on storage that flips a frame byte")
	}
	hs := healthOf(t, h)
	if hs.ScrubPasses != 1 || hs.ScrubIssues == 0 || hs.QuarantinedMembers != 1 {
		t.Fatalf("health after scrub: %+v", hs)
	}
	if rec := get(t, h, "/v1/a/test/snap/0/level/0"); rec.Code != http.StatusBadGateway {
		t.Fatalf("scrub-quarantined member: status %d, want 502", rec.Code)
	}
	if rec := get(t, h, "/v1/a/test/snap/1/level/0"); rec.Code != http.StatusOK {
		t.Fatalf("healthy member after scrub: status %d", rec.Code)
	} else if want := cleanLevelBody(t, blob, 1, 0); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("healthy member differs from a clean extraction after scrub")
	}
	// A second sweep is idempotent: the member is already out.
	s.ScrubOnce()
	if hs := healthOf(t, h); hs.QuarantinedMembers != 1 {
		t.Fatalf("second sweep changed the quarantine set: %+v", hs)
	}
}

// TestChaosBackgroundScrubber runs the real timer-driven scrub loop
// against storage that rots after the server starts, and waits for the
// node to degrade on its own. Close must stop the loop cleanly.
func TestChaosBackgroundScrubber(t *testing.T) {
	blob := chaosArchiveBytes(t)
	fr := faultio.New(bytes.NewReader(blob))
	r, err := archive.Open(fr, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, ScrubInterval: 2 * time.Millisecond})
	defer s.Close()
	if err := s.AddReader("test", r, nil); err != nil {
		t.Fatal(err)
	}
	fr.SetPlan(faultio.FlipByte(frameMidpoint(t, r, 1, 0, 0), 0x40))
	deadline := time.Now().Add(10 * time.Second)
	for !s.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("background scrubber never quarantined the rotting member")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec := get(t, s.Handler(), "/v1/a/test/snap/1/level/0"); rec.Code != http.StatusBadGateway {
		t.Fatalf("rotted member after background scrub: status %d, want 502", rec.Code)
	}
	if rec := get(t, s.Handler(), "/v1/a/test/snap/0/level/0"); rec.Code != http.StatusOK {
		t.Fatalf("healthy member: status %d", rec.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosLatencyDeadline stalls every read far past the configured
// request budget: the request must come back 504, not hang. The stall is
// ten seconds but the injected delay honors context cancellation, so the
// in-flight read is freed the moment the deadline fires — the whole
// request lives and dies in tens of milliseconds, not storage time.
func TestChaosLatencyDeadline(t *testing.T) {
	blob := chaosArchiveBytes(t)
	fr := faultio.New(bytes.NewReader(blob))
	r, err := archive.Open(fr, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, RequestTimeout: 20 * time.Millisecond})
	if err := s.AddReader("test", r, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	fr.SetContext(ctx)
	fr.SetPlan(faultio.Delay(10 * time.Second))
	start := time.Now()
	rec := get(t, s.Handler(), "/v1/a/test/snap/0/level/0")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("stalled storage: status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("stalled read pinned the request for %v; cancellation did not free it", el)
	}
	// With the stall lifted the same request serves clean — a deadline
	// overrun is transient, never a quarantine.
	fr.SetPlan(nil)
	fr.SetContext(nil)
	if rec := get(t, s.Handler(), "/v1/a/test/snap/0/level/0"); rec.Code != http.StatusOK {
		t.Fatalf("after the stall lifted: status %d", rec.Code)
	}
	if hs := s.HealthStats(); hs.QuarantinedMembers != 0 {
		t.Fatalf("deadline overrun quarantined a member: %+v", hs)
	}
}

// TestChaosHeadFollowsChain strikes out member 0 of a campaign whose
// members 1 and 2 reference it in a chain: every member a GET refuses,
// a HEAD refuses too, with the same structured 502, and /stats lists
// them all — the same set a scrub of the same damage leaves.
func TestChaosHeadFollowsChain(t *testing.T) {
	blob, _ := campaignArchiveBytes(t, 3, 3, 8)
	s, fr, _ := flakyServer(t, blob, Config{Workers: 1, QuarantineAfter: 2})
	h := s.Handler()
	sa, err := s.lookup("test")
	if err != nil {
		t.Fatal(err)
	}
	fr.SetPlan(faultio.FlipByte(frameMidpoint(t, sa.reader(), 0, 0, 0), 0x20))
	for strike := 1; strike <= 2; strike++ {
		if rec := get(t, h, "/v1/a/test/snap/0/level/0"); rec.Code != http.StatusInternalServerError {
			t.Fatalf("strike %d: status %d: %s", strike, rec.Code, rec.Body.String())
		}
	}
	for mi := 0; mi < 3; mi++ {
		for _, p := range []string{"level/0", "level/1", "amr", "level/0?roi=0:4,0:4,0:4"} {
			url := fmt.Sprintf("/v1/a/test/snap/%d/%s", mi, p)
			for _, method := range []string{"GET", "HEAD"} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, url, nil))
				if rec.Code != http.StatusBadGateway {
					t.Fatalf("%s %s: status %d, want 502", method, url, rec.Code)
				}
			}
		}
	}
	if qs := healthOf(t, h).Quarantined["test"]; fmt.Sprint(qs) != "[0 1 2]" {
		t.Fatalf("/stats quarantined %v, want [0 1 2]", qs)
	}
	s.ScrubOnce()
	if qs := healthOf(t, h).Quarantined["test"]; fmt.Sprint(qs) != "[0 1 2]" {
		t.Fatalf("/stats quarantined after a scrub %v, want [0 1 2]", qs)
	}
}

// TestChaosStrikesLandOnTheDamage requests the tip of a chain whose root
// frame rots: each failure is a strike against the member the damage was
// found in, not against the members whose chains reached it, so member 0
// alone is recorded damaged and 1 and 2 are quarantined through it.
func TestChaosStrikesLandOnTheDamage(t *testing.T) {
	blob, _ := campaignArchiveBytes(t, 3, 3, 8)
	s, fr, _ := flakyServer(t, blob, Config{Workers: 1, QuarantineAfter: 2})
	h := s.Handler()
	sa, err := s.lookup("test")
	if err != nil {
		t.Fatal(err)
	}
	fr.SetPlan(faultio.FlipByte(frameMidpoint(t, sa.reader(), 0, 0, 0), 0x20))
	for strike := 1; strike <= 2; strike++ {
		if rec := get(t, h, "/v1/a/test/snap/2/level/0"); rec.Code != http.StatusInternalServerError {
			t.Fatalf("strike %d: status %d: %s", strike, rec.Code, rec.Body.String())
		}
	}
	hs := healthOf(t, h)
	if hs.Quarantines != 1 || fmt.Sprint(hs.Quarantined["test"]) != "[0 1 2]" {
		t.Fatalf("quarantines %d, quarantined %v: want 1 recorded, [0 1 2] out", hs.Quarantines, hs.Quarantined["test"])
	}
}
