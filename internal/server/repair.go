package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"

	"repro/internal/archive"
)

// ErrNoReplica tags repair requests for archives registered without
// replica sources: there is nothing to re-fetch healthy frames from. The
// HTTP layer answers 409.
var ErrNoReplica = errors.New("no replica configured")

// RepairMember attempts to heal member mi of archive name from its
// replicas: the damaged frames are re-fetched through the replica
// failover reader, digest-verified, and spliced into the local file in
// place (archive.Reader.RepairMember), and on success the member — plus
// every member whose reference chain reached it — returns to service with
// its strikes cleared, no restart needed. Returns the splice stats and
// the member indices un-quarantined. Repairing a clean member is a cheap
// no-op.
func (s *Server) RepairMember(name string, mi int) (archive.RepairStats, []int, error) {
	sa, err := s.lookup(name)
	if err != nil {
		return archive.RepairStats{}, nil, err
	}
	st := sa.view()
	if _, err := sa.member(st, mi); err != nil {
		return archive.RepairStats{}, nil, err
	}
	return s.repairMember(sa, st, mi)
}

// repairMember is RepairMember after lookup; also the automatic-repair
// entry point. Attempts on one archive are serialized: a second request
// arriving while a repair is in flight waits and then finds the member
// already clean (its RepairMember call becomes the no-op re-scrub).
func (s *Server) repairMember(sa *servedArchive, st *archiveState, mi int) (archive.RepairStats, []int, error) {
	if sa.replicas == nil || sa.path == "" {
		return archive.RepairStats{}, nil, fmt.Errorf("server: %w: archive %q", ErrNoReplica, sa.name)
	}
	sa.repairMu.Lock()
	defer sa.repairMu.Unlock()
	s.health.repairsAttempted.Add(1)
	f, err := os.OpenFile(sa.path, os.O_RDWR, 0)
	if err != nil {
		return archive.RepairStats{}, nil, fmt.Errorf("server: repairing %q: %w", sa.name, err)
	}
	defer f.Close()
	rs, err := st.r.RepairMember(mi, sa.replicas, f)
	s.health.framesRespliced.Add(int64(rs.FramesRepaired))
	if err != nil {
		return rs, nil, fmt.Errorf("server: repairing %q snapshot %d: %w", sa.name, mi, err)
	}
	s.health.repairsSucceeded.Add(1)
	// Cached batches decoded from the member while it was damaged must
	// not outlive the repair: on digest-bearing archives every cached
	// decode was verified, but pre-v3 members can cache silently wrong
	// blocks, and dropping a handful of entries is cheap either way.
	if rs.FramesRepaired > 0 {
		s.cache.PurgeMember(sa.name, mi)
	}
	lifted := sa.liftQuarantine(st, mi)
	if len(lifted) > 0 {
		s.health.unquarantines.Add(int64(len(lifted)))
	}
	return rs, lifted, nil
}

// tryAutoRepair is the health machine's hook: fired synchronously the
// moment a member is quarantined, when the archive has replicas. A
// failed attempt (fetch errors, replicas damaged at the same frames)
// leaves the quarantine standing — operators see it in /stats.health as
// attempts without matching successes.
func (s *Server) tryAutoRepair(sa *servedArchive, mi int) {
	if sa.replicas == nil {
		return
	}
	_, _, _ = s.repairMember(sa, sa.view(), mi)
}

// handleRepair is POST /v1/a/{name}/repair: with ?member=i it repairs that
// member; without, it repairs every damaged member, which returns every
// quarantined one to service. The response reports the splice stats and
// which members returned to service; a repair that could not heal the
// archive answers 502 (the damage is upstream of this server — its
// replicas are bad too), and archives without replicas answer 409.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var (
		rs     archive.RepairStats
		lifted []int
		err    error
	)
	if q := r.URL.Query().Get("member"); q != "" {
		mi, aerr := strconv.Atoi(q)
		if aerr != nil {
			s.httpError(w, fmt.Errorf("server: %w: bad member %q", ErrBadRequest, q))
			return
		}
		rs, lifted, err = s.RepairMember(name, mi)
	} else {
		rs, lifted, err = s.RepairArchive(name)
	}
	if err != nil && (errors.Is(err, ErrNotFound) || errors.Is(err, ErrBadRequest) || errors.Is(err, ErrNoReplica)) {
		s.httpError(w, err)
		return
	}
	res := struct {
		Archive        string `json:"archive"`
		FramesScanned  int    `json:"frames_scanned"`
		FramesDamaged  int    `json:"frames_damaged"`
		FramesRepaired int    `json:"frames_repaired"`
		BytesRespliced int64  `json:"bytes_respliced"`
		Repaired       []int  `json:"repaired,omitempty"`
		Unquarantined  []int  `json:"unquarantined,omitempty"`
		Error          string `json:"error,omitempty"`
	}{
		Archive:        name,
		FramesScanned:  rs.FramesScanned,
		FramesDamaged:  rs.FramesDamaged,
		FramesRepaired: rs.FramesRepaired,
		BytesRespliced: rs.BytesRespliced,
		Repaired:       rs.Members,
		Unquarantined:  lifted,
	}
	if err != nil {
		res.Error = err.Error()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		writeJSON(w, res)
		return
	}
	writeJSON(w, res)
}

// RepairArchive repairs every damaged member of archive name, in index
// order. Returns combined stats and every member un-quarantined. An
// archive with nothing damaged returns zero stats and no error.
func (s *Server) RepairArchive(name string) (archive.RepairStats, []int, error) {
	sa, err := s.lookup(name)
	if err != nil {
		return archive.RepairStats{}, nil, err
	}
	if sa.replicas == nil || sa.path == "" {
		return archive.RepairStats{}, nil, fmt.Errorf("server: %w: archive %q", ErrNoReplica, sa.name)
	}
	st := sa.view()
	var total archive.RepairStats
	var lifted []int
	for _, mi := range sa.damagedList() {
		rs, up, err := s.repairMember(sa, st, mi)
		total.Add(rs)
		lifted = append(lifted, up...)
		if err != nil {
			return total, lifted, err
		}
	}
	return total, lifted, nil
}
