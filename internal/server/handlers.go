package server

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/grid"
	"repro/internal/remote"
	"repro/internal/sz"
)

// Handler returns the HTTP API, mounted under /v1/; the liveness probe
// alone also answers at the root, where probes configured outside this
// repository expect it:
//
//	GET  /healthz, /v1/healthz                      liveness probe ("ok", or 503 "draining")
//	GET  /v1/stats                                  cache + ingest + URL-source + registry counters (JSON)
//	GET  /v1/archives                               registered archives (JSON)
//	GET  /v1/a/{name}                               member listing (JSON)
//	GET  /v1/a/{name}/raw                           committed archive bytes (Range/ETag/If-Range;
//	                                                mount point for remote tacds)
//	GET  /v1/a/{name}/snap/{i}                      one member's level geometry (JSON)
//	GET  /v1/a/{name}/snap/{i}/amr                  whole snapshot, .amr stream
//	GET  /v1/a/{name}/snap/{i}/level/{l}            dense level grid, raw float32 LE
//	GET  /v1/a/{name}/snap/{i}/level/{l}?roi=x0:x1,y0:y1,z0:z1
//	                                                dense window of the level (level cells)
//	POST /v1/a/{name}/ingest                        append one .amr snapshot (writable archives)
//	POST /v1/a/{name}/repair[?member=i]             re-fetch and splice damaged members
//
// Binary responses (level, ROI, .amr) carry the payload geometry in
// X-Tac-* headers and are gzip-compressed when the client advertises
// Accept-Encoding: gzip; both encodings say Vary: Accept-Encoding. The
// identity encoding carries Content-Length — a body's length is known from
// the index; gzip bodies are chunked. Level and ROI windows leave in slabs
// of bounded size. Every frame a body reads is fetched or decoded before
// its status line is sent, so a frame that fails to decode answers the
// error envelope, never a 200 cut short. The GET patterns also
// match HEAD, which on the binary routes answers the GET's status, X-Tac-*
// headers and Content-Length from the index without reading a frame or
// touching the cache (a quarantined member still answers its 502).
// Ingest bodies are .amr streams (amr.Dataset.Write), optionally
// gzip-compressed with Content-Encoding: gzip; an ingest finding every
// slot taken (Config.IngestQueue) answers 429 with a Retry-After hint.
//
// Non-2xx responses (except /healthz, which stays plain text for
// probes) carry the JSON error envelope {code, message, member?,
// quarantined?}: code is a stable slug (not_found, bad_request,
// read_only, busy, draining, no_replica, timeout, quarantined, corrupt,
// io, too_large, internal) that also tells a client whether to retry
// (busy, draining, timeout, io), and member is the snapshot index the
// failure concerns when known.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	healthz := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		// Degraded is still 200: the node serves every healthy member, so
		// load balancers should keep routing here — but the body tells
		// operators the archive needs repair.
		if s.Degraded() {
			fmt.Fprintln(w, "degraded")
			return
		}
		fmt.Fprintln(w, "ok")
	}
	mux.HandleFunc("GET /healthz", healthz)
	mux.HandleFunc("GET /v1/healthz", healthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/archives", s.handleArchives)
	mux.HandleFunc("GET /v1/a/{name}", s.handleArchive)
	mux.HandleFunc("GET /v1/a/{name}/raw", s.handleRaw)
	mux.HandleFunc("GET /v1/a/{name}/snap/{snap}", s.handleSnap)
	mux.HandleFunc("GET /v1/a/{name}/snap/{snap}/amr", s.handleSnapAMR)
	mux.HandleFunc("GET /v1/a/{name}/snap/{snap}/level/{level}", s.handleLevel)
	mux.HandleFunc("POST /v1/a/{name}/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/a/{name}/repair", s.handleRepair)
	return mux
}

// handleRaw serves the committed bytes of one archive's current
// generation with full Range / ETag / If-Range semantics — the mount
// point a remote tacd (internal/remote) opens as its primary. The ETag
// is a strong, generation-derived validator: an ingest commit changes
// it, so a remote reader pinned to the old generation fails ErrChanged
// (classified ErrIO downstream) instead of reading torn bytes.
func (s *Server) handleRaw(w http.ResponseWriter, r *http.Request) {
	sa, err := s.lookup(r.PathValue("name"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	st := sa.view()
	w.Header().Set("ETag", fmt.Sprintf("\"taca-g%d-%d\"", st.r.Generation(), st.r.EndOffset()))
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, sa.name+".taca", time.Time{}, st.r.Section())
}

// errorBody is the JSON error envelope; clients key on Code.
type errorBody struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	Member      *int   `json:"member,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
}

// memberError tags an error with the member index it concerns so the
// envelope can carry machine-readable coordinates.
type memberError struct {
	mi  int
	err error
}

func (e *memberError) Error() string { return e.err.Error() }
func (e *memberError) Unwrap() error { return e.err }

// httpError maps an assembly error to a status code and the JSON error
// envelope via the sentinel the error was tagged with: unknown names
// and indices are the client's fault, archive damage and everything
// untagged is a server-side failure. Quarantined members answer a
// structured 502 — the damage is upstream of this server, and the body
// says so in machine-readable form so clients can stop retrying the
// poisoned member and keep using the rest.
//
// Client-attributable and archive-integrity messages pass through: they
// are constructed by this package or the archive index layer and name
// members, levels and checksums, never storage internals. Raw I/O and
// untagged failures are sanitized — their messages carry file paths,
// URLs and offsets — with the detail logged server-side (Config.Logf).
func (s *Server) httpError(w http.ResponseWriter, err error) {
	env := errorBody{Code: "internal", Message: err.Error()}
	var me *memberError
	if errors.As(err, &me) {
		mi := me.mi
		env.Member = &mi
	}
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrQuarantined):
		code = http.StatusBadGateway
		env.Code = "quarantined"
		env.Quarantined = true
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
		env.Code = "not_found"
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
		env.Code = "bad_request"
	case errors.Is(err, ErrReadOnly):
		code = http.StatusMethodNotAllowed
		env.Code = "read_only"
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
		env.Code = "busy"
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		code = http.StatusServiceUnavailable
		env.Code = "draining"
	case errors.Is(err, ErrNoReplica):
		code = http.StatusConflict
		env.Code = "no_replica"
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
		env.Code = "timeout"
	case errors.Is(err, archive.ErrIO):
		// Transient storage fault that survived the retry budget. The
		// underlying error is an OS or network message (paths, URLs,
		// offsets) — log it, don't leak it.
		env.Code = "io"
		env.Message = "transient storage read failure (retries exhausted); try again"
		s.cfg.Logf("server: io error: %v", err)
	case errors.Is(err, archive.ErrCorrupt):
		// Deterministic damage: the message is archive-constructed
		// (member/level/batch coordinates, checksum mismatch) and safe.
		env.Code = "corrupt"
	default:
		env.Message = "internal server error"
		s.cfg.Logf("server: internal error: %v", err)
	}
	s.writeError(w, code, env)
}

// writeError emits the envelope with the given status.
func (s *Server) writeError(w http.ResponseWriter, code int, env errorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(env) //nolint:errcheck // client went away; nothing to do
}

// requestCtx derives the per-request context, bounded by RequestTimeout
// when one is configured.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

// archiveInfo is the /v1/archives listing row.
type archiveInfo struct {
	Name            string `json:"name"`
	Members         int    `json:"members"`
	CompressedBytes int64  `json:"compressed_bytes"`
	OriginalBytes   int64  `json:"original_bytes"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One snapshot for both fields, so the reported ratio always equals
	// hits/(hits+misses) of the counters in the same body.
	st := s.cache.Stats()
	writeJSON(w, struct {
		Archives []string    `json:"archives"`
		Cache    CacheStats  `json:"cache"`
		HitRatio float64     `json:"cache_hit_ratio"`
		Ingest   IngestStats `json:"ingest"`
		Health   HealthStats `json:"health"`
		// URL sources per archive, primary first; archives without one are absent.
		Remote   map[string][]mountStats `json:"remote"`
		Draining bool                    `json:"draining"`
		// Which batch kernels decode and encode in this process (sz.KernelPath).
		CodecKernel string `json:"codec_kernel"`
	}{s.Names(), st, st.HitRatio(), s.IngestStats(), s.HealthStats(), s.remoteStats(), s.Draining(), sz.KernelPath()})
}

// mountStats is one URL source's counters and its current segment unit.
// Sources are told apart by position, not by URL: origins stay out of
// client-visible bodies.
type mountStats struct {
	remote.Stats
	SegmentBytes int64 `json:"segment_bytes"`
}

// remoteStats snapshots the URL sources of every archive that has any, in
// source order (the primary, then the replicas).
func (s *Server) remoteStats() map[string][]mountStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]mountStats)
	for name, sa := range s.archives {
		for _, rr := range sa.mounts {
			out[name] = append(out[name], mountStats{rr.Stats(), rr.SegmentBytes()})
		}
	}
	return out
}

func (s *Server) handleArchives(w http.ResponseWriter, r *http.Request) {
	var out []archiveInfo
	for _, name := range s.Names() {
		sa, err := s.lookup(name)
		if err != nil {
			continue // racing Close; skip
		}
		info := archiveInfo{Name: name}
		members := sa.reader().Members()
		for mi := range members {
			m := &members[mi]
			info.Members++
			info.CompressedBytes += m.CompressedBytes()
			info.OriginalBytes += m.OriginalBytes()
		}
		out = append(out, info)
	}
	writeJSON(w, struct {
		Archives []archiveInfo `json:"archives"`
	}{out})
}

// memberInfo is the /v1/a/{name} listing row.
type memberInfo struct {
	Index           int     `json:"index"`
	Name            string  `json:"name"`
	Field           string  `json:"field"`
	Ratio           int     `json:"ratio"`
	Levels          int     `json:"levels"`
	StoredCells     int     `json:"stored_cells"`
	CompressedBytes int64   `json:"compressed_bytes"`
	ErrorBound      float64 `json:"error_bound"`
}

func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	sa, err := s.lookup(r.PathValue("name"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	members := sa.reader().Members()
	out := make([]memberInfo, len(members))
	for mi := range members {
		m := &members[mi]
		out[mi] = memberInfo{
			Index: mi, Name: m.Name, Field: m.Field, Ratio: m.Ratio,
			Levels: len(m.Levels), StoredCells: m.StoredCells(),
			CompressedBytes: m.CompressedBytes(), ErrorBound: m.ErrorBound,
		}
	}
	writeJSON(w, struct {
		Name    string       `json:"name"`
		Members []memberInfo `json:"members"`
	}{sa.name, out})
}

// levelInfo is the /v1/a/{name}/snap/{i} geometry row.
type levelInfo struct {
	Level           int    `json:"level"`
	Dims            [3]int `json:"dims"`
	UnitBlock       int    `json:"unit_block"`
	OccupiedBlocks  int    `json:"occupied_blocks"`
	Batches         int    `json:"batches"`
	CompressedBytes int64  `json:"compressed_bytes"`
}

// snapArgs resolves the {name}/{snap} path segments shared by the
// snapshot handlers, pinning the archive's current generation for the
// rest of the request.
func (s *Server) snapArgs(r *http.Request) (*servedArchive, *archiveState, int, *archive.Member, error) {
	sa, err := s.lookup(r.PathValue("name"))
	if err != nil {
		return nil, nil, 0, nil, err
	}
	mi, err := strconv.Atoi(r.PathValue("snap"))
	if err != nil {
		return nil, nil, 0, nil, fmt.Errorf("server: %w: snapshot index %q is not a number", ErrBadRequest, r.PathValue("snap"))
	}
	st := sa.view()
	m, err := sa.member(st, mi)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	return sa, st, mi, m, nil
}

func (s *Server) handleSnap(w http.ResponseWriter, r *http.Request) {
	sa, _, mi, m, err := s.snapArgs(r)
	if err != nil {
		s.httpError(w, err)
		return
	}
	levels := make([]levelInfo, len(m.Levels))
	for li := range m.Levels {
		idx := &m.Levels[li]
		levels[li] = levelInfo{
			Level:          li,
			Dims:           [3]int{idx.Dims.X, idx.Dims.Y, idx.Dims.Z},
			UnitBlock:      idx.UnitBlock,
			OccupiedBlocks: idx.Occupied(),
			Batches:        len(idx.Batches),

			CompressedBytes: idx.CompressedBytes(),
		}
	}
	writeJSON(w, struct {
		Archive string      `json:"archive"`
		Index   int         `json:"index"`
		Name    string      `json:"name"`
		Field   string      `json:"field"`
		Ratio   int         `json:"ratio"`
		Levels  []levelInfo `json:"levels"`
	}{sa.name, mi, m.Name, m.Field, m.Ratio, levels})
}

// Binary bodies (level, ROI, .amr) are resolved before the status line
// goes out: every frame they read is fetched or decoded first, so a
// failing frame still answers the JSON envelope, and their length is known
// from the index, so the identity encoding carries Content-Length and a
// HEAD answers from the index alone. The .amr body, bounded by stored
// bytes, is built whole in one pooled wire buffer; a level or ROI window,
// bounded only by its dense extent, is written as slabs of at most
// slabBytes from one pooled buffer (writeWindow).

// wireBufs pools response buffers by size class: class c holds slices of
// 1<<c values, so whatever Get returns fits every request of the class.
// A buffer comes back dirty; callers overwrite or clear what they send.
var wireBufs [bits.UintSize]sync.Pool

func wireClass(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// getWire returns a buffer of at least n values with arbitrary contents.
func getWire(n int) *[]amr.Value {
	c := wireClass(n)
	if p, _ := wireBufs[c].Get().(*[]amr.Value); p != nil {
		return p
	}
	b := make([]amr.Value, 1<<c)
	return &b
}

// putWire returns a buffer no response references any more.
func putWire(p *[]amr.Value) { wireBufs[wireClass(len(*p))].Put(p) }

// bodyHeaders sets what a binary response of n bytes says about its
// encoding: the negotiation it depended on, and either gzip (chunked, the
// compressed length is not known up front) or the identity length.
func bodyHeaders(h http.Header, gz bool, n int) {
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Vary", "Accept-Encoding")
	if gz {
		h.Set("Content-Encoding", "gzip")
	} else {
		h.Set("Content-Length", strconv.Itoa(n))
	}
}

// bodyWriter returns where a binary body goes after bodyHeaders — w
// itself, or a pooled gzip stream over it — and the func that finishes the
// body. Writes are best effort: the status line is gone by the first byte,
// so a write failure can only surface to the client as a short body. A
// buffer passed to Write may be reused as soon as Write returns.
func bodyWriter(w http.ResponseWriter, gz bool) (io.Writer, func()) {
	if !gz {
		return w, func() {}
	}
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(w)
	return zw, func() {
		zw.Close() //nolint:errcheck // client went away; nothing to do
		zw.Reset(nil)
		gzipWriters.Put(zw)
	}
}

func (s *Server) handleSnapAMR(w http.ResponseWriter, r *http.Request) {
	sa, st, mi, m, err := s.snapArgs(r)
	if err != nil {
		s.httpError(w, err)
		return
	}
	gz := acceptsGzip(r.Header.Get("Accept-Encoding"))
	n := amr.StreamHeaderLen(m.Name, m.Field)
	for li := range m.Levels {
		idx := &m.Levels[li]
		n += amr.LevelPrologueLen(idx.Mask) + amr.LevelPayloadLen(idx.Mask, idx.UnitBlock)
	}
	if r.Method == http.MethodHead {
		if err := sa.quarantineErr(st, mi); err != nil {
			s.httpError(w, err)
			return
		}
		bodyHeaders(w.Header(), gz, n)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	buf := getWire((n + amr.ValueBytes - 1) / amr.ValueBytes)
	defer putWire(buf)
	// Every byte of body[:n] is written below, so what the view holds now
	// does not matter.
	body := amr.AppendStreamHeader(amr.WireBytes(*buf)[:0], m.Name, m.Field, m.Ratio, len(m.Levels))
	for li := range m.Levels {
		lv, err := sa.level(st, mi, li)
		if err != nil {
			s.httpError(w, err)
			return
		}
		body = amr.AppendLevelPrologue(body, lv.idx.Dims, lv.idx.UnitBlock, lv.idx.Mask)
		payload := len(body)
		body = body[:payload+amr.LevelPayloadLen(lv.idx.Mask, lv.idx.UnitBlock)]
		if err := s.assembleStream(ctx, lv, body[payload:]); err != nil {
			s.httpError(w, err)
			return
		}
	}
	bodyHeaders(w.Header(), gz, n)
	out, done := bodyWriter(w, gz)
	out.Write(body) //nolint:errcheck // client went away; nothing to do
	done()
}

func (s *Server) handleLevel(w http.ResponseWriter, r *http.Request) {
	sa, st, mi, _, err := s.snapArgs(r)
	if err != nil {
		s.httpError(w, err)
		return
	}
	li, err := strconv.Atoi(r.PathValue("level"))
	if err != nil {
		s.httpError(w, fmt.Errorf("server: %w: level index %q is not a number", ErrBadRequest, r.PathValue("level")))
		return
	}
	lv, err := sa.level(st, mi, li)
	if err != nil {
		s.httpError(w, err)
		return
	}
	reg := grid.RegionOf(lv.idx.Dims)
	if roiStr := r.URL.Query().Get("roi"); roiStr != "" {
		roi, err := grid.ParseRegion(roiStr)
		if err != nil {
			s.httpError(w, fmt.Errorf("server: %w: %w", ErrBadRequest, err))
			return
		}
		if reg, err = lv.clip(roi); err != nil {
			s.httpError(w, err)
			return
		}
	}
	gz := acceptsGzip(r.Header.Get("Accept-Encoding"))
	d := reg.Dims()
	headers := func() {
		h := w.Header()
		h.Set("X-Tac-Elem", "float32le")
		h.Set("X-Tac-Dims", fmt.Sprintf("%d %d %d", d.X, d.Y, d.Z))
		h.Set("X-Tac-Region", fmt.Sprintf("%d:%d,%d:%d,%d:%d", reg.X0, reg.X1, reg.Y0, reg.Y1, reg.Z0, reg.Z1))
		h.Set("X-Tac-Unit-Block", strconv.Itoa(lv.idx.UnitBlock))
		bodyHeaders(h, gz, amr.ValueBytes*d.Count())
	}
	if r.Method == http.MethodHead {
		if err := sa.quarantineErr(st, mi); err != nil {
			s.httpError(w, err)
			return
		}
		headers()
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	win, err := s.pin(ctx, lv, reg)
	if err != nil {
		s.httpError(w, err)
		return
	}
	headers()
	writeWindow(w, gz, win)
}

// slabBytes bounds the dense buffer a level or ROI body is written from,
// whatever the window's extent. It is a constant, not an option;
// EXPERIMENTS.md records the sizes tried against it.
const slabBytes = 1 << 20

// writeWindow sends a pinned window, after its headers, as slabs of whole
// unit-block x-planes — as many as fit in slabBytes, and at least one. x is
// the body's slowest axis, so each slab is one contiguous run of the body,
// filled and written in turn from one pooled buffer.
func writeWindow(w http.ResponseWriter, gz bool, win *window) {
	roi, ub := win.roi, win.lv.idx.UnitBlock
	d := roi.Dims()
	planes := max(1, slabBytes/(amr.ValueBytes*ub*d.Y*d.Z))
	buf := getWire(min(planes*ub, d.X) * d.Y * d.Z)
	defer putWire(buf)
	out, done := bodyWriter(w, gz)
	defer done()
	for bx := roi.X0 / ub; bx*ub < roi.X1; bx += planes {
		sub := roi
		sub.X0, sub.X1 = max(roi.X0, bx*ub), min(roi.X1, (bx+planes)*ub)
		vals := (*buf)[:sub.Count()]
		if !win.lv.covers(sub) {
			// One clear of the whole slab, stored cells included: clearing
			// only the gaps between blocks, run by run, measured no faster.
			clear(vals)
		}
		win.place(sub, vals)
		if _, err := out.Write(amr.WireBytes(vals)); err != nil {
			return // the client went away; the rest would go nowhere
		}
	}
}

// gzipWriters pools the serving-side gzip state (BestSpeed; level grids
// of floats compress little but the window state is the expensive part).
var gzipWriters = sync.Pool{
	New: func() any {
		zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
		return zw
	},
}

// acceptsGzip reports whether the request's Accept-Encoding accepts gzip,
// by RFC 9110 §12.5.3: an entry naming gzip or x-gzip decides by its
// quality, and only without one does "*" decide by its own. Codings
// compare case-insensitively. "gzip", "X-Gzip", "gzip;q=0.5" and
// "*;q=0, gzip" accept gzip; "gzip;q=0", "*, gzip;q=0" and absence refuse
// it. Full q-value ranking across codings is not attempted, since gzip is
// the only coding offered.
func acceptsGzip(header string) bool {
	named, star := -1.0, -1.0
	for _, part := range strings.Split(header, ",") {
		coding, params, _ := strings.Cut(part, ";")
		switch coding = strings.TrimSpace(coding); {
		case strings.EqualFold(coding, "gzip"), strings.EqualFold(coding, "x-gzip"):
			named = max(named, quality(params))
		case coding == "*":
			star = max(star, quality(params))
		}
	}
	if named >= 0 {
		return named > 0
	}
	return star > 0
}

// quality is the weight an Accept-Encoding entry's parameters give it: its
// q parameter, or 1 when it has none or q does not parse.
func quality(params string) float64 {
	for _, p := range strings.Split(params, ";") {
		k, v, _ := strings.Cut(p, "=")
		if strings.EqualFold(strings.TrimSpace(k), "q") {
			if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				return q
			}
			return 1
		}
	}
	return 1
}
