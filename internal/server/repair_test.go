package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/archive"
)

// repairBody is handleRepair's JSON payload.
type repairBody struct {
	Archive        string `json:"archive"`
	FramesScanned  int    `json:"frames_scanned"`
	FramesDamaged  int    `json:"frames_damaged"`
	FramesRepaired int    `json:"frames_repaired"`
	BytesRespliced int64  `json:"bytes_respliced"`
	Repaired       []int  `json:"repaired"`
	Unquarantined  []int  `json:"unquarantined"`
	Error          string `json:"error"`
}

// replicaServer writes blob to a primary and one replica file, registers
// the primary as "test" with replica-backed failover and repair, and
// returns the server plus both paths. The caller damages the files —
// unlike the faultio chaos tests, the rot here is durable on-disk state,
// which is exactly what the repair path must be able to undo.
func replicaServer(t *testing.T, blob []byte, cfg Config) (*Server, string, string) {
	t.Helper()
	dir := t.TempDir()
	primary := filepath.Join(dir, "primary.taca")
	rep := filepath.Join(dir, "replica.taca")
	for _, p := range []string{primary, rep} {
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	name, err := s.Add("test", ArchiveSpec{Primary: primary, Replicas: []string{rep}})
	if err != nil {
		t.Fatal(err)
	}
	if name != "test" {
		t.Fatalf("registered as %q, want \"test\"", name)
	}
	return s, primary, rep
}

// flipAt XORs mask into the byte at off of the file at path, in place,
// through its own descriptor — the server's open handles see the change
// because they share the inode.
func flipAt(t *testing.T, path string, off int64, mask byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= mask
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// damageOffset locates a frame-midpoint byte using a pristine reader.
func damageOffset(t *testing.T, blob []byte, mi, li, b int) int64 {
	t.Helper()
	r, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	return frameMidpoint(t, r, mi, li, b)
}

// TestRepairAutoHealsOnQuarantine is the headline self-healing loop: a
// frame of the primary file rots on disk, requests strike out until the
// member is quarantined — and the quarantine trip itself re-fetches the
// damaged frame from the replica, digest-verifies it, splices it into
// the primary at the same offset, and lifts the quarantine. The next
// request serves 200, byte-identical, with no restart and no operator.
func TestRepairAutoHealsOnQuarantine(t *testing.T) {
	blob := chaosArchiveBytes(t)
	off := damageOffset(t, blob, 0, 0, 0)
	s, primary, _ := replicaServer(t, blob, Config{Workers: 1, QuarantineAfter: 2})
	flipAt(t, primary, off, 0x20)
	h := s.Handler()

	// Strikes 1 and 2 fail on the damaged frame; the second trips the
	// quarantine, whose synchronous auto-repair heals the member before
	// the response is on the wire.
	for strike := 1; strike <= 2; strike++ {
		if rec := get(t, h, "/v1/a/test/snap/0/level/0"); rec.Code != http.StatusInternalServerError {
			t.Fatalf("strike %d: status %d: %s", strike, rec.Code, rec.Body.String())
		}
	}

	// Every level of every member now serves clean, byte-identical.
	for mi := 0; mi < 2; mi++ {
		for li := 0; li < 2; li++ {
			rec := get(t, h, fmt.Sprintf("/v1/a/test/snap/%d/level/%d", mi, li))
			if rec.Code != http.StatusOK {
				t.Fatalf("member %d level %d after auto-repair: status %d: %s", mi, li, rec.Code, rec.Body.String())
			}
			if want := cleanLevelBody(t, blob, mi, li); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("member %d level %d differs from a clean extraction after repair", mi, li)
			}
		}
	}

	hs := healthOf(t, h)
	if hs.QuarantinedMembers != 0 || hs.Degraded {
		t.Fatalf("quarantine not lifted: %+v", hs)
	}
	if hs.RepairsAttempted < 1 || hs.RepairsSucceeded < 1 || hs.FramesRespliced < 1 || hs.Unquarantines < 1 {
		t.Fatalf("repair counters: %+v", hs)
	}

	// The splice healed the file itself, byte-identical to pristine.
	got, err := os.ReadFile(primary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("primary file is not byte-identical to the pristine archive after repair")
	}
	// The singleflight invariant holds through the damage/repair cycle.
	if cs := s.cache.Stats(); cs.Decodes > cs.Misses {
		t.Fatalf("decodes %d > misses %d", cs.Decodes, cs.Misses)
	}
}

// TestRepairEndpointHealsAfterReplicaFixed exercises the operator loop
// when auto-repair cannot help: the replica is rotten at the same frame,
// so the quarantine stands (502) — until the replica is restored and
// POST /v1/a/{name}/repair heals the member in place.
func TestRepairEndpointHealsAfterReplicaFixed(t *testing.T) {
	blob := chaosArchiveBytes(t)
	off := damageOffset(t, blob, 0, 0, 0)
	s, primary, rep := replicaServer(t, blob, Config{Workers: 1, QuarantineAfter: 2})
	flipAt(t, primary, off, 0x20)
	flipAt(t, rep, off, 0x08) // replica rotted at the same frame
	h := s.Handler()

	for strike := 1; strike <= 2; strike++ {
		if rec := get(t, h, "/v1/a/test/snap/0/level/0"); rec.Code != http.StatusInternalServerError {
			t.Fatalf("strike %d: status %d: %s", strike, rec.Code, rec.Body.String())
		}
	}
	// Auto-repair ran and failed — the fetch digest check refused the
	// damaged replica bytes — so the quarantine stands.
	hs := healthOf(t, h)
	if hs.RepairsAttempted < 1 || hs.RepairsSucceeded != 0 {
		t.Fatalf("counters after failed auto-repair: %+v", hs)
	}
	if rec := get(t, h, "/v1/a/test/snap/0/level/0"); rec.Code != http.StatusBadGateway {
		t.Fatalf("unrepairable member: status %d, want 502", rec.Code)
	}
	// Manual repair against the still-damaged replica fails the same way,
	// and must not splice the bad bytes into the primary.
	if rec := post(t, h, "/v1/a/test/repair", nil); rec.Code != http.StatusBadGateway {
		t.Fatalf("repair from damaged replica: status %d, want 502: %s", rec.Code, rec.Body.String())
	}

	// The operator restores the replica (rsync, snapshot, …) and POSTs
	// the repair: member healed, quarantine lifted, no restart.
	flipAt(t, rep, off, 0x08)
	rec := post(t, h, "/v1/a/test/repair", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("repair: status %d: %s", rec.Code, rec.Body.String())
	}
	var rb repairBody
	if err := json.Unmarshal(rec.Body.Bytes(), &rb); err != nil {
		t.Fatalf("repair body decode: %v (%s)", err, rec.Body.String())
	}
	if rb.FramesRepaired < 1 || len(rb.Repaired) != 1 || rb.Repaired[0] != 0 {
		t.Fatalf("repair body: %+v", rb)
	}
	if len(rb.Unquarantined) != 1 || rb.Unquarantined[0] != 0 {
		t.Fatalf("unquarantined %v, want [0]", rb.Unquarantined)
	}

	if rec := get(t, h, "/v1/a/test/snap/0/level/0"); rec.Code != http.StatusOK {
		t.Fatalf("after manual repair: status %d: %s", rec.Code, rec.Body.String())
	} else if want := cleanLevelBody(t, blob, 0, 0); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("repaired member differs from a clean extraction")
	}
	if got, err := os.ReadFile(primary); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("primary not healed on disk (err %v)", err)
	}
	if hs := healthOf(t, h); hs.QuarantinedMembers != 0 || hs.Degraded {
		t.Fatalf("quarantine not lifted: %+v", hs)
	}
	// Repairing the now-clean archive again is a harmless no-op.
	rec = post(t, h, "/v1/a/test/repair", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("idempotent repair: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rb); err != nil {
		t.Fatal(err)
	}
	if rb.FramesRepaired != 0 || rb.FramesDamaged != 0 {
		t.Fatalf("repair of a clean archive spliced frames: %+v", rb)
	}
}

// TestFailoverServesThroughTruncatedPrimary loses half the primary file
// under the server's open descriptor: every read past the cut fails at
// the primary and falls over to the replica per read, so clients keep
// getting byte-identical 200s and the health machine records no
// corruption at all — failover is invisible to the archive layer.
func TestFailoverServesThroughTruncatedPrimary(t *testing.T) {
	blob := chaosArchiveBytes(t)
	s, primary, _ := replicaServer(t, blob, Config{Workers: 1, QuarantineAfter: 2})
	h := s.Handler()
	if err := os.Truncate(primary, int64(len(blob)/2)); err != nil {
		t.Fatal(err)
	}
	for mi := 0; mi < 2; mi++ {
		for li := 0; li < 2; li++ {
			rec := get(t, h, fmt.Sprintf("/v1/a/test/snap/%d/level/%d", mi, li))
			if rec.Code != http.StatusOK {
				t.Fatalf("member %d level %d through truncated primary: status %d: %s", mi, li, rec.Code, rec.Body.String())
			}
			if want := cleanLevelBody(t, blob, mi, li); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("member %d level %d differs from a clean extraction", mi, li)
			}
		}
	}
	if hs := healthOf(t, h); hs.CorruptEvents != 0 || hs.QuarantinedMembers != 0 {
		t.Fatalf("failover surfaced as corruption: %+v", hs)
	}
}

// TestRepairEndpointErrors pins the error statuses: 409 without replicas,
// 404 for unknown archives and out-of-range members, 400 for garbage
// member indices, and a clean 200 no-op for an undamaged member.
func TestRepairEndpointErrors(t *testing.T) {
	blob := chaosArchiveBytes(t)
	s, _, _ := flakyServer(t, blob, Config{Workers: 1})
	h := s.Handler()
	if rec := post(t, h, "/v1/a/test/repair", nil); rec.Code != http.StatusConflict {
		t.Fatalf("repair without replicas: status %d, want 409: %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, h, "/v1/a/nope/repair", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown archive: status %d, want 404", rec.Code)
	}

	sr, _, _ := replicaServer(t, blob, Config{Workers: 1})
	hr := sr.Handler()
	if rec := post(t, hr, "/v1/a/test/repair?member=wat", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage member: status %d, want 400", rec.Code)
	}
	if rec := post(t, hr, "/v1/a/test/repair?member=99", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("member out of range: status %d, want 404", rec.Code)
	}
	rec := post(t, hr, "/v1/a/test/repair?member=0", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("repair of a clean member: status %d: %s", rec.Code, rec.Body.String())
	}
	var rb repairBody
	if err := json.Unmarshal(rec.Body.Bytes(), &rb); err != nil {
		t.Fatal(err)
	}
	if rb.FramesRepaired != 0 || rb.FramesDamaged != 0 || rb.FramesScanned == 0 {
		t.Fatalf("clean repair body: %+v", rb)
	}
}

// TestRepairLiftsChainQuarantine damages member 0 of a campaign whose
// members 1 and 2 reference it in a chain, on the primary and the
// replica alike, so the scrub's auto-repair fails and all three stay out
// of service. Once the replica is restored, repairing member 0 returns
// every member to service: the quarantine of 1 and 2 was only ever their
// chain reaching 0.
func TestRepairLiftsChainQuarantine(t *testing.T) {
	blob, _ := campaignArchiveBytes(t, 3, 3, 8)
	off := damageOffset(t, blob, 0, 0, 0)
	s, primary, rep := replicaServer(t, blob, Config{Workers: 1})
	flipAt(t, primary, off, 0x20)
	flipAt(t, rep, off, 0x08)
	h := s.Handler()

	if issues := s.ScrubOnce(); issues == 0 {
		t.Fatal("scrub found no issues")
	}
	if qs := healthOf(t, h).Quarantined["test"]; fmt.Sprint(qs) != "[0 1 2]" {
		t.Fatalf("quarantined %v after the scrub, want [0 1 2]", qs)
	}
	if rec := get(t, h, "/v1/a/test/snap/2/level/0"); rec.Code != http.StatusBadGateway {
		t.Fatalf("member 2 over a damaged chain: status %d, want 502", rec.Code)
	}

	flipAt(t, rep, off, 0x08)
	rec := post(t, h, "/v1/a/test/repair?member=0", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("repair: status %d: %s", rec.Code, rec.Body.String())
	}
	var rb repairBody
	if err := json.Unmarshal(rec.Body.Bytes(), &rb); err != nil {
		t.Fatalf("repair body decode: %v (%s)", err, rec.Body.String())
	}
	if fmt.Sprint(rb.Unquarantined) != "[0 1 2]" {
		t.Fatalf("unquarantined %v, want [0 1 2]", rb.Unquarantined)
	}
	for mi := 0; mi < 3; mi++ {
		for li := 0; li < 2; li++ {
			rec := get(t, h, fmt.Sprintf("/v1/a/test/snap/%d/level/%d", mi, li))
			if rec.Code != http.StatusOK {
				t.Fatalf("member %d level %d after repair: status %d: %s", mi, li, rec.Code, rec.Body.String())
			}
			if want := cleanLevelBody(t, blob, mi, li); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("member %d level %d differs from a clean extraction", mi, li)
			}
		}
	}
	if rec := get(t, h, "/healthz"); rec.Body.String() != "ok\n" {
		t.Fatalf("healthz after repair: %q, want \"ok\"", rec.Body.String())
	}
	if hs := healthOf(t, h); hs.QuarantinedMembers != 0 || hs.Degraded {
		t.Fatalf("quarantine not lifted: %+v", hs)
	}
}
