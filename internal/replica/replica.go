// Package replica provides a multi-source io.ReaderAt: an ordered set of
// byte-identical copies of one archive (the local file first, then
// secondary replicas) read through per-request failover. Every read tries
// the highest-priority healthy source and walks down the list on failure,
// so one bad replica never stalls a request; a source that fails
// demoteAfter consecutive reads is demoted by a circuit breaker and only
// probed again after a bounded exponential backoff, so a dead source
// costs one probe per backoff window instead of one failed syscall per
// read. The serving layer mounts an archive.Reader directly on a Multi,
// and the repair path uses a replicas-only Multi as its fetch source.
//
// Source is deliberately tiny — io.ReaderAt plus a label — so an HTTP
// range-request source over object storage slots in without touching the
// failover machinery.
package replica

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/remote"
)

// Source is one copy of the archive: any io.ReaderAt plus a label for
// health reporting. Sources that also implement io.Closer are closed by
// Multi.Close.
type Source interface {
	io.ReaderAt
	Label() string
}

// readerSource adapts a plain io.ReaderAt.
type readerSource struct {
	r     io.ReaderAt
	label string
}

func (s readerSource) ReadAt(p []byte, off int64) (int, error) { return s.r.ReadAt(p, off) }
func (s readerSource) Label() string                           { return s.label }

// Reader wraps any io.ReaderAt as a Source.
func Reader(r io.ReaderAt, label string) Source { return readerSource{r: r, label: label} }

// ClosableSource is a Source that releases its resources on Close.
type ClosableSource interface {
	Source
	io.Closer
}

// fileSource is a Source over a local file.
type fileSource struct{ *os.File }

func (s fileSource) Label() string { return s.Name() }

// Open opens one copy of an archive named by a local path or an http(s)://
// URL of any range-capable server (a tacd /v1/a/{name}/raw endpoint,
// nginx, an S3-style store), with its size. Over a URL only the ranges
// read cross the wire.
func Open(spec string, rcfg remote.Config) (ClosableSource, int64, error) {
	if remote.IsURL(spec) {
		rr, err := remote.Open(spec, rcfg)
		if err != nil {
			return nil, 0, err
		}
		return rr, rr.Size(), nil
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return fileSource{f}, st.Size(), nil
}

// The circuit breaker: demoteAfter consecutive failures trip a source's
// breaker, and a demoted source is probed again after probeBackoff, which
// each failed probe doubles up to maxProbe.
const (
	demoteAfter  = 3
	probeBackoff = 250 * time.Millisecond
	maxProbe     = 30 * time.Second
)

// sourceState is one source plus its health ledger.
type sourceState struct {
	src Source

	mu        sync.Mutex
	streak    int  // consecutive failures
	demoted   bool // circuit breaker open
	retryAt   time.Time
	backoff   time.Duration
	reads     int64 // successful reads served
	failures  int64
	demotions int64 // breaker trips, including failed probes that re-arm it
}

// candidate reports whether the source should be tried on the primary
// pass: healthy, or demoted with its probe window due.
func (ss *sourceState) candidate(now time.Time) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return !ss.demoted || !now.Before(ss.retryAt)
}

func (ss *sourceState) succeed() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.reads++
	ss.streak = 0
	ss.demoted = false
	ss.backoff = 0
}

func (ss *sourceState) fail(now time.Time) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.failures++
	ss.streak++
	if !ss.demoted && ss.streak < demoteAfter {
		return
	}
	// Trip (or re-arm, for a failed probe) the breaker with doubled,
	// capped backoff.
	if ss.backoff == 0 {
		ss.backoff = probeBackoff
	} else if ss.backoff < maxProbe {
		ss.backoff = min(2*ss.backoff, maxProbe)
	}
	ss.demoted = true
	ss.demotions++
	ss.retryAt = now.Add(ss.backoff)
}

// Multi is the failover ReaderAt over an ordered set of sources. It is
// safe for concurrent use.
type Multi struct {
	srcs []*sourceState
	now  func() time.Time // the breaker's clock; tests step their own
}

// New builds a Multi over sources, tried in the given order. At least one
// source is required.
func New(sources ...Source) (*Multi, error) {
	if len(sources) == 0 {
		return nil, errors.New("replica: no sources")
	}
	m := &Multi{srcs: make([]*sourceState, len(sources)), now: time.Now}
	for i, s := range sources {
		m.srcs[i] = &sourceState{src: s}
	}
	return m, nil
}

// ReadAt serves the read from the first source that returns the full
// span, walking the list in priority order. Demoted sources whose probe
// window has not arrived are skipped on the first pass but retried as a
// last resort when every other source fails — an archive with one
// surviving copy keeps serving even mid-backoff. A short read (a replica
// lagging generations is a strict byte-prefix of the primary) counts as
// that source failing. The returned error is the last source's, wrapped
// with its label.
func (m *Multi) ReadAt(p []byte, off int64) (int, error) {
	now := m.now()
	var lastErr error
	tried := make([]bool, len(m.srcs))
	for pass := 0; pass < 2; pass++ {
		for i, ss := range m.srcs {
			if tried[i] || (pass == 0 && !ss.candidate(now)) {
				continue
			}
			tried[i] = true
			n, err := ss.src.ReadAt(p, off)
			if n == len(p) {
				// A full read is a success even at io.EOF (the span ends
				// exactly at the source's last byte).
				ss.succeed()
				return n, nil
			}
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			ss.fail(now)
			lastErr = fmt.Errorf("replica: source %s: %w", ss.src.Label(), err)
		}
	}
	return 0, lastErr
}

// Close closes every source that implements io.Closer, returning the
// first error.
func (m *Multi) Close() error {
	var first error
	for _, ss := range m.srcs {
		if c, ok := ss.src.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
