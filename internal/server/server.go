// Package server implements tacd's concurrent TAC serving layer: a
// long-lived HTTP service that opens one or more TACA archives once and
// serves snapshot / level / region extraction out of them under
// contention. Three mechanisms keep N concurrent requests from costing N
// full decodes:
//
//   - per-archive reader reuse: each archive is opened (index parsed)
//     exactly once, and every request reads frames through the shared
//     io.ReaderAt, which archive.Reader supports from any number of
//     goroutines;
//   - a sharded, byte-budgeted LRU cache over decoded block batches
//     (internal/lru), keyed at exactly the container's frame granularity
//     (archive/member/level/batch), so the popular frames of a campaign
//     stay decoded;
//   - its collapse of concurrent misses into one fill, so a thundering
//     herd on one frame decodes it once while everyone else waits for
//     the shared result.
//
// Decoding borrows pooled sz engines through archive.Reader.DecodeBatchOn,
// the cache resolving each delta frame's reference batch itself (not
// DecodeBatch, which would decode the chain again) and the request
// supplying the frame bytes: before its fan-out, a request reads the frames
// its misses will decode as one read per contiguous run (ReadRuns, as tacc
// does), so a remote-mounted archive answers it in one range request per
// run, not one round trip per frame. HTTP response bodies are assembled in
// pooled buffers, so steady-state serving allocates next to nothing.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/url"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/fanout"
	"repro/internal/grid"
	"repro/internal/remote"
	"repro/internal/replica"
)

// Defaults for Config zero values.
const (
	DefaultCacheBytes  = 256 << 20 // 256 MiB of decoded batches
	DefaultCacheShards = 16
	DefaultIngestQueue = 4
	// DefaultQuarantineAfter is how many deterministic corruption
	// detections against one member take it out of service.
	DefaultQuarantineAfter = 2
)

// Sentinels the HTTP layer maps to status codes (errors.Is); every
// client-attributable failure in this package wraps one of them.
var (
	// ErrNotFound tags lookups of archives, snapshots, levels or batches
	// that do not exist.
	ErrNotFound = errors.New("not found")
	// ErrBadRequest tags malformed or out-of-range request parameters.
	ErrBadRequest = errors.New("bad request")
	// ErrReadOnly tags ingest attempts on archives not opened for append.
	ErrReadOnly = errors.New("archive is read-only")
	// ErrBusy tags ingest attempts rejected because IngestQueue snapshots
	// already wait (backpressure; the HTTP layer answers 429 with Retry-After).
	ErrBusy = errors.New("ingest queue full")
	// ErrDraining tags requests refused because the server is shutting
	// down.
	ErrDraining = errors.New("server is draining")
)

// Config parameterizes a Server.
type Config struct {
	// CacheBytes budgets the decoded-batch LRU cache; 0 means
	// DefaultCacheBytes. The budget is split evenly across its
	// DefaultCacheShards shards.
	CacheBytes int64
	// Workers bounds the per-request batch fan-out during level and
	// region assembly; 0 means GOMAXPROCS, 1 assembles serially.
	Workers int
	// IngestQueue bounds the snapshots waiting (per writable archive)
	// behind the one being compressed; an arriving ingest finding that
	// many waiting is rejected with ErrBusy. 0 means DefaultIngestQueue.
	IngestQueue int
	// QuarantineAfter is how many deterministic corruption detections
	// against one member quarantine it (requests for it answer
	// ErrQuarantined while every other member keeps serving); 0 means
	// DefaultQuarantineAfter, negative disables quarantining.
	QuarantineAfter int
	// ScrubInterval, when > 0, runs a background scrubber that verifies
	// every frame of every registered archive on this period,
	// quarantining damaged members (and their dependents) before a
	// client ever hits them. 0 disables the scrubber; ScrubOnce remains
	// callable.
	ScrubInterval time.Duration
	// RequestTimeout, when > 0, bounds each HTTP extraction request;
	// requests over budget answer 504. 0 leaves requests unbounded.
	RequestTimeout time.Duration
	// Logf receives server-side detail of sanitized 5xx responses (raw
	// I/O errors may carry file paths, URLs and offsets that must not
	// reach clients). nil means log.Printf.
	Logf func(format string, args ...any)
}

// archiveState is the immutable per-generation view of one archive: the
// Reader over a committed footer, whose indices hold each level's block
// order (archive.LevelIndex.Ords) and share it with the generation before.
// Ingest swaps in a fresh state atomically; requests that already loaded
// the old one keep serving from it, which stays correct because committed
// bytes are never overwritten and member indices are append-only.
type archiveState struct {
	r   *archive.Reader
	src io.ReaderAt // r.Section(): the generation's committed bytes

	// tail is the tail view of a live campaign: the reconstruction the
	// ingesting writer keeps of each field's newest member as the next
	// one's delta reference (archive.Writer.Retained), by member index and
	// level, in the order and with the values the member's frames decode
	// to. batch serves those members from it — the step that has just
	// landed, otherwise the deepest chain in the archive, costs no decode
	// and no cache space, and no memory the writer was not holding already.
	// Published with the generation that commits the member, so a request
	// never sees one without the other; nil for read-only archives and for
	// intra-mode ingest, which retains nothing.
	tail map[int][]blocks
}

// servedArchive is one registered archive: an atomically swappable view
// plus, for archives opened for append, the ingester that grows it.
type servedArchive struct {
	name   string
	closer io.Closer
	state  atomic.Pointer[archiveState]
	ing    *ingester     // non-nil iff the archive accepts POST ingest
	health archiveHealth // per-member quarantine state machine

	tailServed atomic.Int64 // batches answered from a tail view

	// Self-healing hooks, set by Add for a spec with Replicas: the local file path
	// (splice target for in-place member repair) and the replicas-only
	// failover reader repairs fetch healthy frames from. Both nil/empty
	// for archives registered without replicas — repair then answers
	// ErrNoReplica.
	path     string
	replicas *replica.Multi
	// mounts are the URL sources among the archive's byte sources, primary
	// first (/v1/stats reports them by that index).
	mounts   []*remote.Reader
	repairMu sync.Mutex // serializes repair attempts on this archive
}

// view pins the current generation for the duration of one operation.
func (sa *servedArchive) view() *archiveState { return sa.state.Load() }

// reader returns the current generation's Reader (listing handlers).
func (sa *servedArchive) reader() *archive.Reader { return sa.view().r }

// Server routes extraction requests across its registered archives. Add
// archives before serving; the registry itself is guarded, so late
// registration is safe too.
type Server struct {
	cfg   Config
	cache *Cache

	draining atomic.Bool

	health healthCounters
	// sleep and jitter are the backoff seams; tests inject a recording
	// clock and a fixed jitter to assert retry cadence deterministically.
	sleep  func(time.Duration)
	jitter func() float64

	scrubStop chan struct{}
	scrubDone chan struct{}
	scrubOnce sync.Once

	mu       sync.RWMutex
	archives map[string]*servedArchive
	names    []string
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.IngestQueue <= 0 {
		cfg.IngestQueue = DefaultIngestQueue
	}
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = DefaultQuarantineAfter
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s := &Server{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheBytes),
		sleep:    time.Sleep,
		jitter:   defaultJitter,
		archives: make(map[string]*servedArchive),
	}
	if cfg.ScrubInterval > 0 {
		s.scrubStop = make(chan struct{})
		s.scrubDone = make(chan struct{})
		go s.scrubLoop()
	}
	return s
}

// Cache exposes the block cache (stats endpoints, benchmarks, tests).
func (s *Server) Cache() *Cache { return s.cache }

// SetDraining flips the drain flag: while set, /healthz answers 503 and
// new ingests are refused, while read traffic keeps being served. tacd
// sets it on SIGTERM before http.Server.Shutdown so load balancers stop
// routing here during the drain window.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server is refusing new ingests.
func (s *Server) Draining() bool { return s.draining.Load() }

// ArchiveSpec describes one archive to register: where its bytes live
// (a local path or an http(s):// URL), which replica copies back it, and
// whether it accepts live ingest. Server.Add is the single registration
// entry point.
type ArchiveSpec struct {
	// Primary is the archive's byte source: a local file path, or an
	// http(s):// URL of any range-capable server (another tacd's
	// /v1/a/{name}/raw endpoint, nginx, an S3-style store).
	Primary string
	// Replicas are additional byte-identical copies (paths or URLs):
	// reads fail over to them when the primary errors, and they are the
	// fetch source for member repair. A replica lagging generations is
	// tolerated — reads past its end fail over.
	Replicas []string
	// Append opens the archive read-write for POST ingest. The primary
	// must be a local path and Replicas must be empty (the repair splice
	// and the append tail would race over the same region).
	Append bool
	// Ingest sets compression parameters for ingested members (Append
	// only). A zero ErrorBound inherits from the archive's newest member.
	Ingest codec.Config
	// Keyframe, when ≥ 2, makes ingested members delta-code against the
	// archive's committed tail (archive.Writer.Keyframe): every K-th
	// member per field is a keyframe bounding the reference chain. 0 or 1
	// keeps ingest in intra mode.
	Keyframe int
	// Deprecated: every archive is written at v4, with a digest of every
	// frame and of the footer; setting this has no effect.
	Checksums bool
	// Deprecated: every archive is written at v4, with a digest of every
	// frame and of the footer; setting this has no effect.
	FooterSum bool
	// Remote tunes URL sources. A zero SegmentBytes is auto-sized to the
	// archive's typical frame span once the footer is parsed.
	Remote remote.Config
}

// Add opens every source named by spec and registers the archive under
// name (empty name derives one from the primary, as SplitSpec does).
// It returns the registered name. This is the one registration entry
// point; every layer — local files, URL primaries, replicated sets,
// append mode — is a field on the spec, not a separate method.
func (s *Server) Add(name string, spec ArchiveSpec) (string, error) {
	if spec.Primary == "" {
		return "", fmt.Errorf("server: spec has no primary source")
	}
	if name == "" {
		name = deriveName(spec.Primary)
	}
	if spec.Append {
		return s.addAppend(name, spec)
	}
	primary, size, err := replica.Open(spec.Primary, spec.Remote)
	if err != nil {
		return "", err
	}
	srcs := []replica.Source{primary}
	for _, rp := range spec.Replicas {
		src, _, err := replica.Open(rp, spec.Remote)
		if err != nil {
			closeAll(srcs)
			return "", err
		}
		srcs = append(srcs, src)
	}
	sa := &servedArchive{name: name, closer: primary, mounts: mountsOf(srcs)}
	// serve is what the archive is read through: the primary itself, or
	// with replicas a failover reader over all sources, which then owns
	// closing them.
	var serve interface {
		io.ReaderAt
		io.Closer
	} = primary
	if len(spec.Replicas) > 0 {
		multi, err := replica.New(srcs...)
		if err != nil {
			closeAll(srcs)
			return "", err
		}
		serve, sa.closer = multi, multi
		// The repair fetch path reads from the replicas only — re-fetching a
		// damaged frame from the file being repaired would splice the damage
		// back. Sources are shared with the serve Multi; only serve owns
		// closing them.
		if sa.replicas, err = replica.New(srcs[1:]...); err != nil {
			serve.Close()
			return "", err
		}
		// In-place member repair splices into the primary file; a URL
		// primary has no splice target, so repair stays ErrNoReplica there
		// while per-read failover still works.
		if !remote.IsURL(spec.Primary) {
			sa.path = spec.Primary
		}
	}
	r, err := archive.Open(serve, size)
	if err != nil {
		serve.Close()
		return "", fmt.Errorf("%s: %w", spec.Primary, err)
	}
	tuneRemote(r, sa.mounts, spec.Remote)
	if err := s.addArchive(sa, r); err != nil {
		serve.Close()
		return "", err
	}
	return name, nil
}

// closeAll releases sources opened for a registration that failed.
func closeAll(srcs []replica.Source) {
	for _, src := range srcs {
		if c, ok := src.(io.Closer); ok {
			c.Close()
		}
	}
}

// mountsOf picks the URL sources out of an archive's sources, in order.
func mountsOf(srcs []replica.Source) []*remote.Reader {
	var mounts []*remote.Reader
	for _, src := range srcs {
		if rr, ok := src.(*remote.Reader); ok {
			mounts = append(mounts, rr)
		}
	}
	return mounts
}

// tuneRemote sizes the segments of every URL source — primary and
// replicas alike: a failover must not land on a source still cut the
// default way — to the parsed archive's typical frame span, unless the
// spec pinned an explicit size. Segments stay the cache unit and runs of
// them the fetch unit: a request reads each contiguous run of its frames
// in one call (archive.Reader.ReadRuns), which the source fetches as one
// range request per run of missing segments. One-frame segments therefore
// cost a request no round trips, and they keep scattered ROI reads from
// dragging in neighbors they never touch — larger segments were measured to
// double or triple the bytes fetched for region queries.
func tuneRemote(r *archive.Reader, mounts []*remote.Reader, rcfg remote.Config) {
	fb := r.TypicalFrameBytes()
	if rcfg.SegmentBytes != 0 || fb <= 0 {
		return
	}
	seg := int64(1)
	for seg < fb {
		seg <<= 1
	}
	for _, rr := range mounts {
		rr.Retune(seg)
	}
}

// deriveName is the serving name derived from a primary source: the
// base name minus extension for paths; for URLs, the last path element
// (with a trailing /raw resolving to its parent, so mounting another
// tacd's /v1/a/{name}/raw endpoint inherits that name).
func deriveName(primary string) string {
	if remote.IsURL(primary) {
		p := primary
		if u, err := url.Parse(primary); err == nil && u.Path != "" {
			p = u.Path
		}
		p = strings.TrimSuffix(p, "/")
		if rest, ok := strings.CutSuffix(p, "/raw"); ok && path.Base(rest) != "/" {
			p = rest
		}
		base := path.Base(p)
		return strings.TrimSuffix(base, path.Ext(base))
	}
	return strings.TrimSuffix(filepath.Base(primary), filepath.Ext(primary))
}

// SplitSpec splits a CLI archive spec into its serving name and primary
// source (path or URL). The name=primary form only applies when the part
// before '=' looks like a name (no '/' or ':'), so bare URLs with query
// strings are not mis-split; otherwise the name is derived (see
// deriveName).
func SplitSpec(spec string) (name, primary string) {
	if n, p, ok := strings.Cut(spec, "="); ok && !strings.ContainsAny(n, "/:") {
		return n, p
	}
	return deriveName(spec), spec
}

func (s *Server) addArchive(sa *servedArchive, r *archive.Reader) error {
	name := sa.name
	if name == "" {
		return fmt.Errorf("server: empty archive name")
	}
	sa.state.Store(&archiveState{r: r, src: r.Section()})
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.archives[name]; dup {
		return fmt.Errorf("server: archive %q already registered", name)
	}
	s.archives[name] = sa
	s.names = append(s.names, name)
	sort.Strings(s.names)
	return nil
}

// Close drains every ingester (each accepted snapshot, appending or
// waiting, commits before the archive file is sealed and closed) and
// then closes every registered archive that was added with a closer.
func (s *Server) Close() error {
	s.stopScrubber()
	s.mu.Lock()
	archives := s.archives
	s.archives = make(map[string]*servedArchive)
	s.names = nil
	s.mu.Unlock()
	var first error
	for _, sa := range archives {
		if sa.ing != nil {
			if err := sa.ing.stop(); err != nil && first == nil {
				first = err
			}
		}
		if sa.closer != nil {
			if err := sa.closer.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	// Drop every cached batch: entries are keyed by archive name, so a
	// later Add under a reused name must never serve blocks decoded from
	// the old file.
	s.cache.Purge()
	return first
}

// Names returns the registered archive names, sorted.
func (s *Server) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.names...)
}

// lookup resolves an archive name.
func (s *Server) lookup(name string) (*servedArchive, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sa, ok := s.archives[name]
	if !ok {
		return nil, fmt.Errorf("server: %w: no archive %q", ErrNotFound, name)
	}
	return sa, nil
}

// member bounds-checks and resolves a member of one pinned generation.
func (sa *servedArchive) member(st *archiveState, mi int) (*archive.Member, error) {
	members := st.r.Members()
	if mi < 0 || mi >= len(members) {
		return nil, fmt.Errorf("server: %w: archive %q has no snapshot %d (have %d)", ErrNotFound, sa.name, mi, len(members))
	}
	return &members[mi], nil
}

// batch returns the decoded blocks of one frame, from the cache or
// decoded once via the pooled engines (concurrent misses collapse). The
// cache key carries no generation: members are append-only and committed
// frames immutable, so (member, level, batch) decodes identically under
// every generation that contains it.
//
// Delta frames (campaign archives) resolve their reference chain through
// this same path: the reference batch is fetched under its own canonical
// key — so extracting member t warms the cache for every member on its
// chain, each reconstruction stored exactly once — and only the final
// residual decode runs here. Recursing inside the fill closure is safe:
// the cache runs fills with no locks held, and chain references are
// strictly backward, so the keys strictly decrease and never collide
// with a fill already in flight on this goroutine.
// Quarantined members — damaged ones and members whose reference chain
// reaches one — answer ErrQuarantined up front, before the cache:
// blocks decoded from a member later found damaged must not keep serving.
// A member in the generation's tail view is answered from it next, ahead
// of the cache and counted by neither of its counters.
// Frames are read from src (the runs fetch read), and transient read failures
// are retried inside the fill (decodeRetry), so the decodes ≤ misses cache
// invariant holds across retries; failures that survive retry are
// inspected by the health state machine, where a deterministic corruption
// counts a strike toward quarantine against the member it was detected in.
func (s *Server) batch(sa *servedArchive, st *archiveState, src io.ReaderAt, mi, li, b int) (blocks, error) {
	if err := sa.quarantineErr(st, mi); err != nil {
		return nil, err
	}
	if levels, ok := st.tail[mi]; ok {
		lo, hi := st.r.Members()[mi].Levels[li].BatchSpan(b)
		sa.tailServed.Add(1)
		return levels[li][lo:hi], nil
	}
	v, err := s.cache.GetOrFill(Key{Archive: sa.name, Member: mi, Level: li, Batch: b}, func() (blocks, int64, error) {
		ref, delta, err := st.r.BatchDep(mi, li, b)
		if err != nil {
			return nil, 0, err
		}
		var refs blocks
		if delta {
			refs, err = s.batch(sa, st, src, ref, li, b)
			if err != nil {
				return nil, 0, err
			}
		}
		v, err := s.decodeRetry(st, src, mi, li, b, refs)
		if err != nil {
			return nil, 0, err
		}
		return v, batchCost(v), nil
	})
	if err != nil {
		// A failure that came up the reference chain was noted against
		// the member it was detected in.
		var up *memberError
		if !errors.As(err, &up) {
			s.noteError(sa, mi, err)
		}
		// Tag the failure with its member so the HTTP envelope can carry
		// machine-readable coordinates (nested tags from a reference
		// chain are fine: errors.As finds the outermost, which is the
		// member the client actually asked for).
		return v, &memberError{mi: mi, err: err}
	}
	return v, nil
}

// fetch hands use the blocks of every batch in jobs of lv, fanned out
// across the server's worker budget; use must only touch disjoint state
// per batch (the assembly paths write disjoint cell ranges). It plans on
// the request's goroutine first, checking what batch checks in batch's
// order: a quarantined member fails the request, a member in the tail
// view is answered from it, and a batch resident in the block cache is
// taken there, counted as the one hit it is. Only the rest go through batch,
// whose lookup counts them; their frames are read first (ReadRuns), chains
// down to the first link resident, in the tail view or quarantined, each run
// under retryIO, and a run that fails strikes no member. The context is
// checked before each run and between batches, not inside a decode: a frame
// decode is short and its result is shared through the cache, so abandoning
// one mid-flight would poison the shared fill other requests wait on.
func (s *Server) fetch(ctx context.Context, lv levelView, jobs []int, use func(b int, bl blocks) error) error {
	if len(jobs) == 0 {
		return nil
	}
	if err := lv.sa.quarantineErr(lv.st, lv.mi); err != nil {
		return err
	}
	// got[ji] is batch jobs[ji] where the plan found it, nil where batch
	// is to find it: a batch holds at least one block.
	got := make([]blocks, len(jobs))
	var rest []int
	levels, inTail := lv.st.tail[lv.mi]
	for ji, b := range jobs {
		if inTail {
			lo, hi := lv.idx.BatchSpan(b)
			got[ji] = levels[lv.li][lo:hi]
			lv.sa.tailServed.Add(1)
		} else if bl, ok := s.cache.Get(Key{Archive: lv.sa.name, Member: lv.mi, Level: lv.li, Batch: b}); ok {
			got[ji] = bl
		} else {
			rest = append(rest, b)
		}
	}
	src, err := lv.st.r.ReadRuns(lv.mi, lv.li, rest, func(mi, b int) bool {
		return s.cache.Has(Key{Archive: lv.sa.name, Member: mi, Level: lv.li, Batch: b}) ||
			lv.st.tail[mi] != nil || lv.sa.quarantineErr(lv.st, mi) != nil
	}, func(mi int, p []byte, off int64) (n int, err error) {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("server: request aborted: %w", err)
		}
		err = s.retryIO(func() (err error) {
			if n, err = lv.st.src.ReadAt(p, off); err != nil {
				err = fmt.Errorf("server: archive %q snapshot %d level %d: %w: %w", lv.sa.name, mi, lv.li, archive.ErrIO, err)
			}
			return err
		})
		return n, err
	})
	if err != nil {
		return &memberError{mi: lv.mi, err: err}
	}
	return fanout.Run(len(jobs), s.cfg.Workers, func(ji int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("server: request aborted: %w", err)
		}
		bl := got[ji]
		if bl == nil {
			var err error
			if bl, err = s.batch(lv.sa, lv.st, src, lv.mi, lv.li, jobs[ji]); err != nil {
				return err
			}
		}
		return use(jobs[ji], bl)
	})
}

// levelView pins one level of one member in one generation of an archive:
// everything an assembly needs that does not depend on the request's
// window. The level's block order is idx.Ords().
type levelView struct {
	sa     *servedArchive
	st     *archiveState
	mi, li int
	idx    *archive.LevelIndex
}

// level bounds-checks and resolves level li of member mi of st.
func (sa *servedArchive) level(st *archiveState, mi, li int) (levelView, error) {
	m, err := sa.member(st, mi)
	if err != nil {
		return levelView{}, err
	}
	if li < 0 || li >= len(m.Levels) {
		return levelView{}, fmt.Errorf("server: %w: archive %q snapshot %d has no level %d", ErrNotFound, sa.name, mi, li)
	}
	return levelView{sa: sa, st: st, mi: mi, li: li, idx: &m.Levels[li]}, nil
}

// clip bounds a requested window to the level's extent.
func (lv levelView) clip(roi grid.Region) (grid.Region, error) {
	clipped := roi.Intersect(lv.idx.Dims)
	if clipped.Empty() {
		return grid.Region{}, fmt.Errorf("server: %w: region %v does not intersect level %d extent %v", ErrBadRequest, roi, lv.li, lv.idx.Dims)
	}
	return clipped, nil
}

// window is one level's window with its stored blocks resolved and pinned:
// every frame holding a block inside roi has been fetched or decoded, so
// nothing that can fail is left. A window holds references, not copies:
// the cache may evict a pinned batch, but its blocks stay readable
// (entries are never mutated) until the window is dropped.
//
// Blocks are bucketed by unit-block x-plane for free: the block order
// (idx.Ords()) is row-major over the mask, x slowest, so the stored
// blocks of one x-plane are one run of ordinals, and a slab of planes
// reads its own blocks without scanning the rest.
type window struct {
	lv    levelView
	roi   grid.Region // the window, in level cells
	br    grid.Region // the unit blocks roi touches
	first []int       // x-plane br.X0+p holds ordinals first[p] up to first[p+1]
	b0    int         // the batch holding ordinal first[0]
	got   []blocks    // got[b-b0]: batch b, for every batch with a block in roi
}

// pin resolves the stored blocks of the level that fall in roi — a
// non-empty window inside the level's extent — into a window. Only frames
// with a block inside roi are fetched or decoded, through fetch (tail
// view, cache, read-ahead, retry), fanned out across the worker budget.
// Pinning stops between batches once ctx is done (deadline overruns
// surface as context.DeadlineExceeded, which the HTTP layer maps to 504).
func (s *Server) pin(ctx context.Context, lv levelView, roi grid.Region) (*window, error) {
	idx, ords := lv.idx, lv.idx.Ords()
	md := idx.Mask.Dim
	w := &window{lv: lv, roi: roi, br: roi.Blocks(idx.UnitBlock)}
	w.first = make([]int, w.br.X1-w.br.X0+1)
	for p := range w.first {
		w.first[p] = sort.SearchInts(ords, (w.br.X0+p)*md.Y*md.Z)
	}
	lo, hi := w.first[0], w.first[len(w.first)-1]
	if lo == hi {
		return w, nil // no stored block in the window's planes
	}
	// Batch b holds ordinals b·BatchBlocks onward (LevelIndex.BatchSpan).
	// got spans the batches of the window's planes, not the level's.
	w.b0 = lo / idx.BatchBlocks
	w.got = make([]blocks, (hi-1)/idx.BatchBlocks-w.b0+1)
	var jobs []int
	for k := lo; k < hi; k++ {
		if _, by, bz := md.Coords(ords[k]); w.inYZ(by, bz) {
			b := k / idx.BatchBlocks
			jobs = append(jobs, b)
			k = (b+1)*idx.BatchBlocks - 1 // on to the next batch
		}
	}
	err := s.fetch(ctx, lv, jobs, func(b int, bl blocks) error {
		w.got[b-w.b0] = bl
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// inYZ reports whether unit blocks (·, by, bz) lie in the window.
func (w *window) inYZ(by, bz int) bool {
	return by >= w.br.Y0 && by < w.br.Y1 && bz >= w.br.Z0 && bz < w.br.Z1
}

// place fills dst — dense over sub, a window inside the pinned one — with
// every pinned cell that falls in sub. It is the one block→window routine
// of the serving layer. Cells no stored block covers are not written, so
// unless the level covers sub, dst must hold zeros there already, as a
// fresh slice does.
func (w *window) place(sub grid.Region, dst []amr.Value) {
	idx, ords, ub := w.lv.idx, w.lv.idx.Ords(), w.lv.idx.UnitBlock
	for bx := sub.X0 / ub; bx*ub < sub.X1; bx++ {
		p := bx - w.br.X0
		for k := w.first[p]; k < w.first[p+1]; k++ {
			if _, by, bz := idx.Mask.Dim.Coords(ords[k]); w.inYZ(by, bz) {
				b := k / idx.BatchBlocks
				blk := w.got[b-w.b0][k-b*idx.BatchBlocks]
				grid.CopyRegionOverlap(dst, sub, blk.Data, grid.BlockRegion(bx, by, bz, ub))
			}
		}
	}
}

// assemble pins roi's blocks and places them into a grid of its own over
// roi, zero where no stored block covers it: the in-process fronts' window.
func (s *Server) assemble(ctx context.Context, lv levelView, roi grid.Region) (*grid.Grid3[amr.Value], error) {
	w, err := s.pin(ctx, lv, roi)
	if err != nil {
		return nil, err
	}
	g := grid.New[amr.Value](roi.Dims())
	w.place(roi, g.Data)
	return g, nil
}

// covers reports whether every unit block that roi touches is stored, so
// that place writes every cell of the window.
func (lv levelView) covers(roi grid.Region) bool {
	br := roi.Blocks(lv.idx.UnitBlock)
	return lv.idx.Mask.CountRegion(br) == br.Count()
}

// assembleStream fills dst with the level's .amr payload: its occupied
// unit blocks in mask order, little-endian — which is the order the
// batches hold them in, so every cached block is one copy to its final
// place. dst must be amr.LevelPayloadLen bytes.
func (s *Server) assembleStream(ctx context.Context, lv levelView, dst []byte) error {
	ub := lv.idx.UnitBlock
	blockBytes := amr.ValueBytes * ub * ub * ub
	jobs := make([]int, len(lv.idx.Batches))
	for b := range jobs {
		jobs[b] = b
	}
	return s.fetch(ctx, lv, jobs, func(b int, bl blocks) error {
		lo, _ := lv.idx.BatchSpan(b)
		out := dst[lo*blockBytes:]
		for _, blk := range bl {
			out = out[amr.PutValues(out, blk.Data):]
		}
		return nil
	})
}

// resolve pins the current generation of archive name and resolves one
// level in it.
func (s *Server) resolve(name string, mi, li int) (levelView, error) {
	sa, err := s.lookup(name)
	if err != nil {
		return levelView{}, err
	}
	return sa.level(sa.view(), mi, li)
}

// levelGrid assembles the whole of one level into a grid of its own.
func (s *Server) levelGrid(ctx context.Context, lv levelView) (*grid.Grid3[amr.Value], error) {
	return s.assemble(ctx, lv, grid.RegionOf(lv.idx.Dims))
}

// LevelContext assembles the full grid of one refinement level from cached
// batches into a grid the caller owns: byte-identical to
// archive.Reader.ExtractLevel(mi, li).Grid. See pin for ctx.
func (s *Server) LevelContext(ctx context.Context, name string, mi, li int) (*grid.Grid3[amr.Value], *archive.LevelIndex, error) {
	lv, err := s.resolve(name, mi, li)
	if err != nil {
		return nil, nil, err
	}
	g, err := s.levelGrid(ctx, lv)
	if err != nil {
		return nil, nil, err
	}
	return g, lv.idx, nil
}

// RegionContext assembles the dense window of one level covering roi (in
// that level's cell coordinates, clipped to its extent) into a grid the
// caller owns: it has the clipped roi's dims, with cells outside the
// level's stored blocks zero — byte-identical to the same window of the
// fully extracted level. See pin for what is fetched and for ctx.
func (s *Server) RegionContext(ctx context.Context, name string, mi, li int, roi grid.Region) (*grid.Grid3[amr.Value], grid.Region, error) {
	lv, err := s.resolve(name, mi, li)
	if err != nil {
		return nil, grid.Region{}, err
	}
	if roi, err = lv.clip(roi); err != nil {
		return nil, grid.Region{}, err
	}
	out, err := s.assemble(ctx, lv, roi)
	if err != nil {
		return nil, grid.Region{}, err
	}
	return out, roi, nil
}

// DatasetContext assembles a whole member from cached batches:
// structurally equal to archive.Reader.Extract(mi), with every level grid
// byte-identical. The levels share the reader's occupancy masks, which
// must not be mutated. See pin for ctx.
func (s *Server) DatasetContext(ctx context.Context, name string, mi int) (*amr.Dataset, error) {
	sa, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	st := sa.view()
	m, err := sa.member(st, mi)
	if err != nil {
		return nil, err
	}
	ds := &amr.Dataset{Name: m.Name, Field: m.Field, Ratio: m.Ratio}
	for li := range m.Levels {
		lv, err := sa.level(st, mi, li)
		if err != nil {
			return nil, err
		}
		g, err := s.levelGrid(ctx, lv)
		if err != nil {
			return nil, err
		}
		ds.Levels = append(ds.Levels, &amr.Level{Grid: g, UnitBlock: lv.idx.UnitBlock, Mask: lv.idx.Mask})
	}
	return ds, nil
}
