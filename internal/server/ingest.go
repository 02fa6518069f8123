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

// ingester owns the write path of one archive. Each ingest appends on
// its own request's goroutine: it compresses the snapshot through the
// archive's worker-pool pipeline, commits (crash-safe fsync ordering in
// archive.Writer.Commit), and swaps a fresh generation view into the
// servedArchive so concurrent readers see the new member immediately —
// without restart and without invalidating any batch they already hold.
//
// mu serializes appends (archive.Writer is not concurrency-safe), and
// slots is the backpressure surface: one token for the snapshot being
// appended and one for each snapshot waiting behind it on mu. An ingest
// that finds no free slot is refused with ErrBusy instead of waiting.
// Waiting snapshots commit in whatever order mu grants, not arrival order.
type ingester struct {
	sa  *servedArchive
	f   *os.File // shared handle: writer appends, readers pread
	w   *archive.Writer
	cfg codec.Config

	slots  chan struct{} // capacity Config.IngestQueue+1
	mu     sync.Mutex    // held for one append, and by stop to seal
	closed atomic.Bool   // set by stop; later ingests answer ErrDraining

	accepted atomic.Int64 // members committed
	rejected atomic.Int64 // ingests refused for want of a slot
	bytesIn  atomic.Int64 // uncompressed bytes of committed members

	// beforeHandle, when non-nil, runs under mu at the start of each
	// append; tests use it to hold one append so the slots fill
	// deterministically. Set it before the first ingest.
	beforeHandle func()
}

// IngestStats aggregates the write-path counters across archives.
type IngestStats struct {
	// Accepted counts snapshots committed and made visible.
	Accepted int64 `json:"accepted"`
	// Rejected counts ingests refused because every slot was taken (429s).
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
// The file is sealed and closed by Server.Close once every accepted
// ingest has committed.
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
	sa := &servedArchive{name: name}
	sa.ing = &ingester{sa: sa, f: f, w: w, cfg: cfg, slots: make(chan struct{}, s.cfg.IngestQueue+1)}
	if err := s.addArchive(sa, r); err != nil {
		f.Close()
		return "", err
	}
	return name, nil
}

// append commits ds as the archive's next member and republishes the
// view, returning the member's index and the generation that indexes it.
// It never queues beyond the slots: ErrBusy means every slot is taken —
// the client should back off and retry; ErrDraining means stop has begun.
func (ing *ingester) append(ds *amr.Dataset) (member int, gen uint64, err error) {
	select {
	case ing.slots <- struct{}{}:
	default:
		// stop sets closed before taking slots: those it holds mean draining.
		if ing.closed.Load() {
			return 0, 0, fmt.Errorf("server: %w", ErrDraining)
		}
		ing.rejected.Add(1)
		return 0, 0, fmt.Errorf("server: %w (%d queued)", ErrBusy, cap(ing.slots)-1)
	}
	defer func() { <-ing.slots }()
	if ing.closed.Load() {
		return 0, 0, fmt.Errorf("server: %w", ErrDraining)
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.beforeHandle != nil {
		ing.beforeHandle()
	}
	// A member that fails half-built is unhooked by AddDataset, so the
	// writer survives for the next append; its flushed frames become dead
	// bytes.
	if err := ing.w.AddDataset(ds, ing.cfg); err != nil {
		return 0, 0, fmt.Errorf("server: appending snapshot: %w", err)
	}
	if err := ing.w.Commit(); err != nil {
		return 0, 0, fmt.Errorf("server: appending snapshot: %w", err)
	}
	// Publish the new generation — the writer's own index over the file,
	// not a parse of the footer it has just written — and, in the same
	// store, the tail view that goes with it. Readers pinned to the old
	// view keep working: the bytes they index were never touched.
	r, err := ing.w.View(ing.f)
	if err != nil {
		return 0, 0, fmt.Errorf("server: appending snapshot: viewing the committed generation: %w", err)
	}
	ing.sa.state.Store(&archiveState{r: r, src: r.Section(), tail: ing.w.Retained()})
	ing.accepted.Add(1)
	ing.bytesIn.Add(int64(ds.OriginalBytes()))
	return len(r.Members()) - 1, r.Generation(), nil
}

// stop refuses new ingests, waits for every accepted one to commit by
// taking all the slots (which it never gives back), then seals the
// archive and closes the file. Sealing commits nothing new when the last
// append already committed, but guarantees a clean footer if a
// mid-append failure left members sealed-but-uncommitted.
func (ing *ingester) stop() error {
	ing.closed.Store(true)
	for range cap(ing.slots) {
		ing.slots <- struct{}{}
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	err := ing.w.Close()
	if cerr := ing.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// handleIngest is POST /v1/a/{name}/ingest: parse an .amr body, append it,
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
	member, gen, err := sa.ing.append(ds)
	if err != nil {
		s.httpError(w, err)
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
	}{sa.name, member, ds.Name, ds.Field, gen, ds.StoredCells()})
}
