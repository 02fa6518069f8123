package server

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/remote"
)

// maxIngestBody caps one ingest request body; .amr streams of realistic
// snapshots are far smaller, so anything bigger is hostile or a bug.
const maxIngestBody = 1 << 30

// ingester owns the write path of one archive: a single goroutine drains
// a bounded queue of parsed snapshots, compresses each through the
// archive's worker-pool pipeline, commits (crash-safe fsync ordering in
// archive.Writer.Commit), and swaps a fresh generation view into the
// servedArchive so concurrent readers see the new member immediately —
// without restart and without invalidating any batch they already hold.
//
// One goroutine per archive serializes appends (archive.Writer is not
// concurrency-safe) while the bounded queue is the backpressure surface:
// submit never blocks, it either enqueues or reports ErrBusy.
type ingester struct {
	sa  *servedArchive // set at registration, before run starts
	f   *os.File       // shared handle: writer appends, readers pread
	w   *archive.Writer
	cfg codec.Config
	q   chan ingestJob

	mu     sync.RWMutex // guards closed vs. submit (race-free close(q))
	closed bool

	done     chan struct{} // closed when run has sealed and closed the file
	finalErr error         // written before done closes, read after

	accepted atomic.Int64 // members committed
	rejected atomic.Int64 // submissions refused by a full queue
	bytesIn  atomic.Int64 // uncompressed bytes of committed members

	// beforeHandle, when non-nil, runs at the start of each handle; tests
	// use it to hold the loop mid-job so the queue fills deterministically.
	// Synchronized by the job channel: set it before the first submit.
	beforeHandle func()
}

type ingestJob struct {
	ds    *amr.Dataset
	reply chan ingestResult
}

type ingestResult struct {
	member int    // index of the appended member
	gen    uint64 // generation whose footer now indexes it
	err    error
}

// IngestStats aggregates the write-path counters across archives.
type IngestStats struct {
	// Accepted counts snapshots committed and made visible.
	Accepted int64 `json:"accepted"`
	// Rejected counts submissions bounced by a full queue (429s).
	Rejected int64 `json:"rejected"`
	// Bytes is the uncompressed size of everything accepted.
	Bytes int64 `json:"bytes"`
	// TailMembers and TailBytes size the tail views now published: the
	// newest member of each field of a campaign-mode archive, as the
	// writer holds it reconstructed for delta coding — memory ingest costs
	// anyway, which requests for those members are answered from.
	TailMembers int64 `json:"tail_members"`
	TailBytes   int64 `json:"tail_bytes"`
	// TailBatchesServed counts batches answered from a tail view: no
	// decode, and neither a hit nor a miss of the block cache.
	TailBatchesServed int64 `json:"tail_batches_served"`
}

// IngestStats sums the counters of every writable archive.
func (s *Server) IngestStats() IngestStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st IngestStats
	for _, sa := range s.archives {
		if sa.ing == nil {
			continue
		}
		st.Accepted += sa.ing.accepted.Load()
		st.Rejected += sa.ing.rejected.Load()
		st.Bytes += sa.ing.bytesIn.Load()
		st.TailBatchesServed += sa.tailServed.Load()
		for _, levels := range sa.view().tail {
			st.TailMembers++
			for _, bl := range levels {
				st.TailBytes += batchCost(bl)
			}
		}
	}
	return st
}

// addAppend opens spec.Primary read-write and registers it as a
// writable archive: reads are served exactly as read-only specs, and
// POST /v1/a/{name}/ingest appends snapshots to it. A torn tail from an
// earlier crash is truncated on open (archive.OpenAppend). spec.Ingest
// sets the compression parameters for ingested members; a zero
// ErrorBound inherits them from the archive's newest member, so a
// growing campaign keeps its established fidelity without restating it.
// The file is sealed and closed by Server.Close after the queue drains.
func (s *Server) addAppend(name string, spec ArchiveSpec) (string, error) {
	if remote.IsURL(spec.Primary) {
		return "", fmt.Errorf("server: %s: append requires a local file, not a URL", spec.Primary)
	}
	if len(spec.Replicas) > 0 {
		// The repair splice and the append tail would race over the same
		// file region; replicated archives are read-only for now.
		return "", fmt.Errorf("server: %s: replicas cannot back a writable archive", spec.Primary)
	}
	w, f, err := archive.OpenAppendFile(spec.Primary)
	if err != nil {
		return "", err
	}
	// Campaign mode: delta-code ingested members against the committed
	// tail. The writer primes each field's reference from the newest
	// committed member, so chains continue seamlessly across restarts.
	w.Keyframe = spec.Keyframe
	r, err := w.View(f)
	if err != nil {
		f.Close()
		return "", fmt.Errorf("%s: %w", spec.Primary, err)
	}
	cfg := spec.Ingest
	if cfg.ErrorBound == 0 {
		if ms := r.Members(); len(ms) > 0 {
			last := &ms[len(ms)-1]
			cfg.ErrorBound = last.ErrorBound
			cfg.Mode = last.Mode
			cfg.QuantBits = last.QuantBits
			cfg.LevelScales = append([]float64(nil), last.LevelScales...)
		}
	}
	ing := &ingester{
		f:    f,
		w:    w,
		cfg:  cfg,
		q:    make(chan ingestJob, s.cfg.IngestQueue),
		done: make(chan struct{}),
	}
	if err := s.addArchive(&servedArchive{name: name, ing: ing}, r); err != nil {
		f.Close()
		return "", err
	}
	return name, nil
}

// submit hands ds to the ingester without blocking: the reply channel
// resolves once the snapshot is committed (or failed). ErrBusy means the
// queue is full — the client should back off and retry; ErrDraining
// means the ingester is shutting down.
func (ing *ingester) submit(ds *amr.Dataset) (<-chan ingestResult, error) {
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	if ing.closed {
		return nil, fmt.Errorf("server: %w", ErrDraining)
	}
	job := ingestJob{ds: ds, reply: make(chan ingestResult, 1)}
	select {
	case ing.q <- job:
		return job.reply, nil
	default:
		ing.rejected.Add(1)
		return nil, fmt.Errorf("server: %w (%d queued)", ErrBusy, cap(ing.q))
	}
}

// stop drains the queue (every accepted snapshot still commits), seals
// the archive, closes the file, and waits for all of it.
func (ing *ingester) stop() error {
	ing.mu.Lock()
	if !ing.closed {
		ing.closed = true
		close(ing.q)
	}
	ing.mu.Unlock()
	<-ing.done
	return ing.finalErr
}

// run is the per-archive append loop.
func (ing *ingester) run() {
	defer close(ing.done)
	for job := range ing.q {
		job.reply <- ing.handle(job.ds)
	}
	// Seal: commits nothing new when the last handle already committed,
	// but guarantees a clean footer if a mid-append failure left members
	// sealed-but-uncommitted.
	if err := ing.w.Close(); err != nil && ing.finalErr == nil {
		ing.finalErr = err
	}
	if err := ing.f.Close(); err != nil && ing.finalErr == nil {
		ing.finalErr = err
	}
}

// handle appends one snapshot: compress, commit, republish the view.
func (ing *ingester) handle(ds *amr.Dataset) ingestResult {
	if ing.beforeHandle != nil {
		ing.beforeHandle()
	}
	// A member that fails half-built is unhooked by AddDataset, so the
	// writer survives for the next job; its flushed frames become dead
	// bytes.
	if err := ing.w.AddDataset(ds, ing.cfg); err != nil {
		return ingestResult{err: err}
	}
	if err := ing.w.Commit(); err != nil {
		return ingestResult{err: err}
	}
	// Publish the new generation — the writer's own index over the file,
	// not a parse of the footer it has just written — and, in the same
	// store, the tail view that goes with it. Readers pinned to the old
	// view keep working: the bytes they index were never touched.
	r, err := ing.w.View(ing.f)
	if err != nil {
		return ingestResult{err: fmt.Errorf("server: viewing the committed generation: %w", err)}
	}
	old := ing.sa.state.Load()
	ing.sa.state.Store(newArchiveState(r, old, ing.w.Retained()))
	ing.accepted.Add(1)
	ing.bytesIn.Add(int64(ds.OriginalBytes()))
	return ingestResult{member: len(r.Members()) - 1, gen: r.Generation()}
}

// handleIngest is POST /v1/a/{name}/ingest: parse an .amr body, queue it,
// and answer with the committed member's coordinates.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sa, err := s.lookup(r.PathValue("name"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	if sa.ing == nil {
		s.httpError(w, fmt.Errorf("server: %w: archive %q was not opened for append", ErrReadOnly, sa.name))
		return
	}
	if s.Draining() {
		s.httpError(w, fmt.Errorf("server: %w", ErrDraining))
		return
	}
	body := io.Reader(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(body)
		if err != nil {
			s.httpError(w, fmt.Errorf("server: %w: bad gzip body: %v", ErrBadRequest, err))
			return
		}
		defer zr.Close()
		body = zr
	}
	ds, err := amr.ReadFrom(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, errorBody{
				Code: "too_large", Message: "ingest body exceeds limit",
			})
			return
		}
		s.httpError(w, fmt.Errorf("server: %w: parsing .amr body: %v", ErrBadRequest, err))
		return
	}
	if err := ds.Validate(); err != nil {
		s.httpError(w, fmt.Errorf("server: %w: invalid snapshot: %v", ErrBadRequest, err))
		return
	}
	reply, err := sa.ing.submit(ds)
	if err != nil {
		s.httpError(w, err)
		return
	}
	res := <-reply
	if res.err != nil {
		s.httpError(w, fmt.Errorf("server: appending snapshot: %w", res.err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, struct {
		Archive     string `json:"archive"`
		Snapshot    int    `json:"snapshot"`
		Name        string `json:"name"`
		Field       string `json:"field"`
		Generation  uint64 `json:"generation"`
		StoredCells int    `json:"stored_cells"`
	}{sa.name, res.member, ds.Name, ds.Field, res.gen, ds.StoredCells()})
}
