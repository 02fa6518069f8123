package server

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
)

// ErrQuarantined tags requests for members the health state machine has
// taken out of service after repeated corruption (or a scrub hit). The
// HTTP layer answers a structured 502: the archive is damaged upstream
// of this server, and retrying here cannot help — but every other member
// keeps serving.
var ErrQuarantined = errors.New("member quarantined")

// healthCounters are the server-wide fault-tolerance counters /stats
// exposes.
type healthCounters struct {
	retries          atomic.Int64 // frame reads retried after transient I/O errors
	corruptEvents    atomic.Int64 // deterministic ErrCorrupt detections on the request path
	quarantines      atomic.Int64 // members recorded damaged since start (never decremented)
	scrubPasses      atomic.Int64 // completed background scrub sweeps
	scrubIssues      atomic.Int64 // damaged frames found by scrubs
	repairsAttempted atomic.Int64 // member repair attempts (manual + automatic)
	repairsSucceeded atomic.Int64 // repair attempts that left the member clean
	framesRespliced  atomic.Int64 // damaged frames re-fetched from a replica and spliced back
	unquarantines    atomic.Int64 // members returned to service by a repair
}

// HealthStats is the /stats health section.
type HealthStats struct {
	Retries            int64 `json:"retries"`
	CorruptEvents      int64 `json:"corrupt_events"`
	Quarantines        int64 `json:"quarantines"`
	QuarantinedMembers int64 `json:"quarantined_members"`
	ScrubPasses        int64 `json:"scrub_passes"`
	ScrubIssues        int64 `json:"scrub_issues"`
	RepairsAttempted   int64 `json:"repairs_attempted"`
	RepairsSucceeded   int64 `json:"repairs_succeeded"`
	FramesRespliced    int64 `json:"frames_respliced"`
	Unquarantines      int64 `json:"unquarantines"`
	Degraded           bool  `json:"degraded"`
	// Quarantined lists the quarantined member indices per archive.
	Quarantined map[string][]int `json:"quarantined,omitempty"`
}

// archiveHealth is the per-archive member health state machine. A member
// is damaged once ErrCorrupt detections against it reach the quarantine
// threshold (or a scrub finds damage in it). A member is quarantined
// while it, or a member its reference chain reaches, is damaged: requests
// for it answer ErrQuarantined until a repair heals the damaged member
// (replica-backed archives attempt one automatically the moment the
// damage is recorded) or the process restarts with a repaired archive.
// Only the damaged members are stored; every quarantine is derived from
// them and the chains, so repairing a damaged member returns every member
// it held out. Transient I/O errors (archive.ErrIO) never count: they are
// retried, not held against the member.
type archiveHealth struct {
	mu      sync.Mutex
	strikes map[int]int
	damaged map[int]string // damaged member -> why
}

// heldBy returns the damaged member that holds member mi out of service
// — mi itself, or the first damaged member its reference chain reaches —
// and whether there is one. Keyframes bound the walk. The caller holds
// sa.health.mu.
func (sa *servedArchive) heldBy(members []archive.Member, mi int) (int, bool) {
	if len(sa.health.damaged) == 0 {
		return 0, false
	}
	for r := mi; r >= 0; r = members[r].Ref {
		if _, ok := sa.health.damaged[r]; ok {
			return r, true
		}
	}
	return 0, false
}

// quarantineErr is the error a request for member mi of generation st
// answers while the member is quarantined, nil otherwise.
func (sa *servedArchive) quarantineErr(st *archiveState, mi int) error {
	sa.health.mu.Lock()
	r, held := sa.heldBy(st.r.Members(), mi)
	reason := sa.health.damaged[r]
	sa.health.mu.Unlock()
	if !held {
		return nil
	}
	if r != mi {
		reason = fmt.Sprintf("reference member %d quarantined (%s)", r, reason)
	}
	return &memberError{mi: mi, err: fmt.Errorf("server: %w: archive %q snapshot %d: %s", ErrQuarantined, sa.name, mi, reason)}
}

// quarantine records member mi as damaged, reporting whether this call
// was the one that did it.
func (sa *servedArchive) quarantine(mi int, reason string) bool {
	sa.health.mu.Lock()
	defer sa.health.mu.Unlock()
	if _, done := sa.health.damaged[mi]; done {
		return false
	}
	if sa.health.damaged == nil {
		sa.health.damaged = make(map[int]string)
	}
	sa.health.damaged[mi] = reason
	return true
}

// liftQuarantine clears member root — just repaired — of damage and
// strikes, and returns the members of generation st this returned to
// service, sorted.
func (sa *servedArchive) liftQuarantine(st *archiveState, root int) []int {
	sa.health.mu.Lock()
	defer sa.health.mu.Unlock()
	delete(sa.health.strikes, root)
	if _, ok := sa.health.damaged[root]; !ok {
		return nil
	}
	held := sa.quarantinedLocked(st)
	delete(sa.health.damaged, root)
	members := st.r.Members()
	var lifted []int
	for _, mi := range held {
		if _, still := sa.heldBy(members, mi); !still {
			lifted = append(lifted, mi)
		}
	}
	return lifted
}

// damagedList returns the damaged members, sorted: the repair worklist.
func (sa *servedArchive) damagedList() []int {
	sa.health.mu.Lock()
	defer sa.health.mu.Unlock()
	out := make([]int, 0, len(sa.health.damaged))
	for mi := range sa.health.damaged {
		out = append(out, mi)
	}
	sort.Ints(out)
	return out
}

// recordCorrupt counts one deterministic corruption detection against
// member mi, quarantining it when the count reaches threshold (≤ 0
// disables quarantining). It reports whether this strike quarantined the
// member.
func (sa *servedArchive) recordCorrupt(mi, threshold int, reason string) bool {
	if threshold <= 0 {
		return false
	}
	sa.health.mu.Lock()
	if sa.health.strikes == nil {
		sa.health.strikes = make(map[int]int)
	}
	sa.health.strikes[mi]++
	hit := sa.health.strikes[mi] >= threshold
	sa.health.mu.Unlock()
	if hit {
		return sa.quarantine(mi, reason)
	}
	return false
}

// quarantinedList returns the members of generation st a request would
// find quarantined, sorted.
func (sa *servedArchive) quarantinedList(st *archiveState) []int {
	sa.health.mu.Lock()
	defer sa.health.mu.Unlock()
	return sa.quarantinedLocked(st)
}

// quarantinedLocked is quarantinedList with sa.health.mu held.
func (sa *servedArchive) quarantinedLocked(st *archiveState) []int {
	members := st.r.Members()
	var out []int
	for mi := range members {
		if _, held := sa.heldBy(members, mi); held {
			out = append(out, mi)
		}
	}
	return out
}

// noteError inspects an extraction error on the request path: a
// deterministic corruption (ErrCorrupt without ErrIO — the bytes arrived
// and failed verification) counts a strike against the member it was
// detected in. I/O-tagged failures were already retried and stay
// transient; usage errors are the client's problem.
func (s *Server) noteError(sa *servedArchive, mi int, err error) {
	if err == nil || !errors.Is(err, archive.ErrCorrupt) || errors.Is(err, archive.ErrIO) {
		return
	}
	s.health.corruptEvents.Add(1)
	if sa.recordCorrupt(mi, s.cfg.QuarantineAfter, fmt.Sprintf("repeated corruption: %v", err)) {
		s.health.quarantines.Add(1)
		// Replica-backed archives try to heal the member right away,
		// synchronously: the request that tripped the quarantine still
		// fails, but by the time its response is on the wire the member
		// is either repaired and back in service or confirmed
		// unrepairable (replicas damaged too — quarantine stands).
		s.tryAutoRepair(sa, mi)
	}
}

// Transient frame-read failures (archive.ErrIO) are retried retryAttempts
// times before the request fails. The first retry sleeps retryBackoff,
// each later one doubles it, and every sleep is jittered over
// [0.5d, 1.5d).
const (
	retryAttempts = 3
	retryBackoff  = 5 * time.Millisecond
)

// retryIO runs op, retrying transient I/O failures (archive.ErrIO) with
// exponential, jittered backoff; each retry is counted. Deterministic
// corruption is never retried — the same bytes would fail the same way —
// and neither are usage errors.
func (s *Server) retryIO(op func() error) error {
	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || attempt >= retryAttempts || !errors.Is(err, archive.ErrIO) {
			return err
		}
		s.health.retries.Add(1)
		s.sleep(jittered(backoff, s.jitter()))
		backoff *= 2
	}
}

// decodeRetry decodes one frame, read from src, under retryIO.
func (s *Server) decodeRetry(st *archiveState, src io.ReaderAt, mi, li, b int, refs blocks) (v blocks, err error) {
	err = s.retryIO(func() (err error) {
		v, err = st.r.DecodeBatchOn(src, mi, li, b, refs)
		return err
	})
	return v, err
}

// jittered spreads a backoff over [0.5d, 1.5d) so a fleet of requests
// hitting the same flaky device does not retry in lockstep. j is a
// uniform sample from [0, 1).
func jittered(d time.Duration, j float64) time.Duration {
	return time.Duration(float64(d) * (0.5 + j))
}

// defaultJitter is the production jitter source (tests inject their own).
func defaultJitter() float64 { return rand.Float64() }

// HealthStats snapshots the fault-tolerance counters and the quarantine
// map.
func (s *Server) HealthStats() HealthStats {
	hs := HealthStats{
		Retries:          s.health.retries.Load(),
		CorruptEvents:    s.health.corruptEvents.Load(),
		Quarantines:      s.health.quarantines.Load(),
		ScrubPasses:      s.health.scrubPasses.Load(),
		ScrubIssues:      s.health.scrubIssues.Load(),
		RepairsAttempted: s.health.repairsAttempted.Load(),
		RepairsSucceeded: s.health.repairsSucceeded.Load(),
		FramesRespliced:  s.health.framesRespliced.Load(),
		Unquarantines:    s.health.unquarantines.Load(),
	}
	s.mu.RLock()
	archives := make([]*servedArchive, 0, len(s.archives))
	for _, sa := range s.archives {
		archives = append(archives, sa)
	}
	s.mu.RUnlock()
	for _, sa := range archives {
		if qs := sa.quarantinedList(sa.view()); len(qs) > 0 {
			if hs.Quarantined == nil {
				hs.Quarantined = make(map[string][]int)
			}
			hs.Quarantined[sa.name] = qs
			hs.QuarantinedMembers += int64(len(qs))
		}
	}
	hs.Degraded = hs.QuarantinedMembers > 0
	return hs
}

// Degraded reports whether any registered member is damaged: the
// server still answers everything it can, but /healthz says "degraded"
// so operators notice the archive needs repair.
func (s *Server) Degraded() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sa := range s.archives {
		sa.health.mu.Lock()
		n := len(sa.health.damaged)
		sa.health.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// scrubMemberPause is the between-members yield of a scrub sweep: the
// scrubber is a background janitor and must not monopolize the ReaderAt
// or the decode pools against live traffic.
const scrubMemberPause = 2 * time.Millisecond

// ScrubOnce sweeps every registered archive member by member, verifying
// every frame (archive.Reader.ScrubMember: digest checks on checksummed
// archives, full decodes otherwise) and recording damaged members
// proactively, which quarantines them and every member whose reference
// chain reaches one. Members already quarantined are skipped. It returns
// the number of damaged frames found. The background scrubber calls this
// on a timer; tests and operators can call it directly.
func (s *Server) ScrubOnce() int {
	issues := 0
	for _, name := range s.Names() {
		sa, err := s.lookup(name)
		if err != nil {
			continue // racing Close
		}
		st := sa.view()
		for mi := range st.r.Members() {
			if sa.quarantineErr(st, mi) != nil {
				continue
			}
			probs := st.r.ScrubMember(mi)
			if len(probs) > 0 {
				issues += len(probs)
				s.health.scrubIssues.Add(int64(len(probs)))
				if sa.quarantine(mi, fmt.Sprintf("scrub: %v", probs[0].Err)) {
					s.health.quarantines.Add(1)
					s.tryAutoRepair(sa, mi)
				}
			}
			s.sleep(scrubMemberPause)
		}
	}
	s.health.scrubPasses.Add(1)
	return issues
}

// scrubLoop is the background scrubber goroutine, started by New when
// Config.ScrubInterval > 0 and stopped by Close.
func (s *Server) scrubLoop() {
	defer close(s.scrubDone)
	t := time.NewTicker(s.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-s.scrubStop:
			return
		case <-t.C:
			s.ScrubOnce()
		}
	}
}

// stopScrubber halts the background scrubber, waiting for an in-flight
// sweep to finish. Safe to call when none was started, and idempotent.
func (s *Server) stopScrubber() {
	if s.scrubStop == nil {
		return
	}
	s.scrubOnce.Do(func() { close(s.scrubStop) })
	<-s.scrubDone
}
