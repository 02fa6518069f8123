// Package remote provides an io.ReaderAt backed by HTTP Range requests,
// so a TACA archive hosted on any range-capable server — another tacd's
// /v1/a/{name}/raw endpoint, nginx, an S3-style blob store — can be opened,
// served, and repaired from without a local copy.
//
// The reader is built for the archive's access pattern: level and ROI
// extraction touch only a few percent of archive bytes (2.7–3.1% of a
// local file; server.TestRemoteFetchFraction holds both paths under 10%),
// in frame-sized spans clustered by batch index, and a request that knows
// its frames reads each contiguous run of them in one call. Segments are
// the cache unit and runs the fetch unit: reads go through a
// byte-budgeted cache of aligned segments (an internal/lru instance), and
// each maximal run of a read's segments that are not resident is fetched
// with one range request. Every segment of that run is one shared fill in
// flight, so concurrent reads that miss on any of them wait for it, and a
// fleet of workers pulls each segment over the wire at most once while it
// is resident or in flight.
//
// Generation pinning: Open records the resource's ETag, every request
// carries If-Range (strong validators only), and every response's ETag is
// compared against the pinned one. A mid-read append or rewrite upstream
// therefore fails the read with ErrChanged instead of splicing bytes from
// two generations together. The archive layer wraps any ReadAt failure on
// a frame as ErrCorrupt+ErrIO, so the serving tier's retry/backoff and
// failover machinery applies to network faults unchanged.
package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/lru"
)

// ErrChanged reports that the remote resource's validator (ETag) no
// longer matches the one pinned at Open: the archive was appended to or
// replaced upstream. Callers should reopen to pick up the new generation.
var ErrChanged = errors.New("remote: resource changed upstream")

const (
	// DefaultSegmentBytes covers a handful of typical batch frames, so one
	// segment read-aheads the neighbours a level sweep touches next.
	DefaultSegmentBytes = 128 << 10
	// DefaultCacheBytes bounds resident segments per reader.
	DefaultCacheBytes = 32 << 20
	// DefaultTimeout bounds each individual range request.
	DefaultTimeout = 30 * time.Second

	minSegmentBytes = 4 << 10
	maxSegmentBytes = 4 << 20
)

// Config tunes a Reader. The zero value is usable.
type Config struct {
	// Timeout bounds each range request, connect to last body byte.
	// 0 means DefaultTimeout; negative means no limit.
	Timeout time.Duration
	// SegmentBytes is the aligned cache unit; a fetch is a run of them.
	// 0 means DefaultSegmentBytes; values are clamped to [4 KiB, 4 MiB].
	SegmentBytes int
	// CacheBytes budgets resident segments. 0 means DefaultCacheBytes;
	// negative disables caching (every read fetches).
	CacheBytes int64
}

// Stats is a point-in-time counter snapshot of a Reader.
type Stats struct {
	Requests     int64 `json:"requests"`      // HTTP requests issued (incl. the Open probe)
	BytesFetched int64 `json:"bytes_fetched"` // payload bytes pulled over the wire
	BytesRead    int64 `json:"bytes_read"`    // logical bytes served to callers
	Hits         int64 `json:"hits"`          // segment lookups served from cache
	Misses       int64 `json:"misses"`        // segment lookups that had to wait for a fill
	Fills        int64 `json:"fills"`         // actual segment fills (≤ Misses: concurrent misses share one)
}

// HitRatio is the fraction of segment lookups served from cache.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Reader is an io.ReaderAt over one HTTP resource. It is safe for
// concurrent use; the archive decode fan-out reads through one Reader.
type Reader struct {
	url     string
	client  *http.Client // a pooled transport of its own, closed by Close
	timeout time.Duration
	size    int64
	etag    string // pinned validator, "" if the server sent none
	strong  bool   // etag is strong: eligible for If-Range

	segBytes atomic.Int64 // the aligned cache unit; fetches are runs of it
	// cache holds fetched segments. Its budget is one reader's, in one
	// shard: split further, a small budget would be less than a segment
	// per shard.
	cache *lru.Cache[segKey, []byte]

	requests, fetched, read atomic.Int64
}

// segKey names one aligned segment. The unit is part of the key, so a
// segment cut under one unit is never found, or waited for, under another.
type segKey struct{ unit, start int64 }

// Open probes url with a 1-byte range request to learn the resource
// size and pin its ETag, and returns a Reader over it. The server must
// either honor Range (206) or expose Content-Length on a 200.
func Open(url string, cfg Config) (*Reader, error) {
	r := &Reader{url: url, timeout: cfg.Timeout, client: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}}}
	if r.timeout == 0 {
		r.timeout = DefaultTimeout
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	r.cache = lru.New[segKey, []byte](cfg.CacheBytes, 1, nil)
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	r.segBytes.Store(clampSegment(int64(cfg.SegmentBytes)))
	if err := r.probe(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// probe learns size and pins the validator.
func (r *Reader) probe() error {
	ctx, cancel := r.reqContext()
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url, nil)
	if err != nil {
		return fmt.Errorf("remote: %s: %w", r.url, err)
	}
	req.Header.Set("Range", "bytes=0-0")
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("remote: probing %s: %w", r.url, err)
	}
	defer drain(resp)
	r.requests.Add(1)
	r.etag = resp.Header.Get("ETag")
	r.strong = r.etag != "" && !strings.HasPrefix(r.etag, "W/")
	switch resp.StatusCode {
	case http.StatusPartialContent:
		_, _, total, err := parseContentRange(resp.Header.Get("Content-Range"))
		if err != nil {
			return fmt.Errorf("remote: probing %s: %w", r.url, err)
		}
		if total < 0 {
			return fmt.Errorf("remote: probing %s: server did not report a total size", r.url)
		}
		r.size = total
	case http.StatusOK:
		// Range not honored: the reader still works via the 200 fallback
		// in fetch, just without partial transfers.
		if resp.ContentLength < 0 {
			return fmt.Errorf("remote: probing %s: no Content-Length on 200 response", r.url)
		}
		r.size = resp.ContentLength
	default:
		return fmt.Errorf("remote: probing %s: http %d", r.url, resp.StatusCode)
	}
	if r.size <= 0 {
		return fmt.Errorf("remote: %s: empty resource", r.url)
	}
	return nil
}

// Size is the pinned resource length in bytes.
func (r *Reader) Size() int64 { return r.size }

// Label identifies this source in failover logs (replica.Source).
func (r *Reader) Label() string { return r.url }

// Stats snapshots the reader's counters.
func (r *Reader) Stats() Stats {
	c := r.cache.Stats()
	return Stats{
		Requests:     r.requests.Load(),
		BytesFetched: r.fetched.Load(),
		BytesRead:    r.read.Load(),
		Hits:         c.Hits,
		Misses:       c.Misses,
		Fills:        c.Fills,
	}
}

// Close drops the cache and the pooled connections. The Reader must not
// be used afterwards.
func (r *Reader) Close() error {
	r.cache.Purge()
	r.client.CloseIdleConnections()
	return nil
}

// Retune resizes the segment unit (clamped to [4 KiB, 4 MiB]) and drops
// the cache, whose segments are cut in the old unit: fills in flight stay
// with the readers already waiting on them and are not cached when they
// land. The serving tier calls this after parsing the footer, sizing
// segments to the archive's typical frame span.
func (r *Reader) Retune(segmentBytes int64) {
	segmentBytes = clampSegment(segmentBytes)
	if r.segBytes.Swap(segmentBytes) != segmentBytes {
		r.cache.Purge()
	}
}

// SegmentBytes is the current aligned cache unit.
func (r *Reader) SegmentBytes() int64 { return r.segBytes.Load() }

func clampSegment(n int64) int64 { return min(max(n, minSegmentBytes), maxSegmentBytes) }

// ReadAt implements io.ReaderAt. Reads past the pinned size return
// io.EOF; every fetched byte is validated against the pinned ETag, so a
// changed resource yields ErrChanged, never torn bytes.
//
// The read is cut into aligned segments. Resident ones are copied from the
// cache, and each maximal run of the others is fetched with one range
// request, as one fill of the cache that concurrent readers of any of its
// segments share (lru.Cache.GetOrFillRun): they wait for it rather than
// fetch a segment again. A failed run reaches every one of them and caches
// nothing. The unit read here is part of every key, so what a lookup finds
// is always aligned the way it expects, whenever Retune runs; a run keyed
// just before a Retune may land in the cache under the old unit, where
// nothing looks it up again and the LRU ages it out.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("remote: %s: negative offset %d", r.url, off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= r.size {
		return 0, io.EOF
	}
	end := min(off+int64(len(p)), r.size)
	unit := r.segBytes.Load()
	keys := make([]segKey, 0, (end-1)/unit-off/unit+1)
	for start := off / unit * unit; start < end; start += unit {
		keys = append(keys, segKey{unit, start})
	}
	segs, err := r.cache.GetOrFillRun(keys, func(lo, hi int) ([][]byte, []int64, error) {
		return r.fetch(keys[lo].start, min(keys[hi-1].start+unit, r.size), unit)
	})
	if err != nil {
		return 0, err
	}
	n := 0
	for k, seg := range segs {
		n += copy(p[n:end-off], seg[off+int64(n)-keys[k].start:])
	}
	r.read.Add(int64(n))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// fetch pulls [start, end) in one range request, cut into segments of unit
// bytes from start, and returns them with their lengths as their costs. It
// validates the response shape: a 206 must match the requested span
// exactly (short or over-long bodies are errors, not truncations), a 200
// is accepted only as the full resource with the prefix discarded,
// anything else fails.
func (r *Reader) fetch(start, end, unit int64) ([][]byte, []int64, error) {
	ctx, cancel := r.reqContext()
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: %s: %w", r.url, err)
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", start, end-1))
	if r.strong {
		// A strong validator turns a stale range into a 200 + current
		// body instead of torn bytes; the ETag check below still guards
		// servers that ignore If-Range.
		req.Header.Set("If-Range", r.etag)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: %s: bytes [%d,%d): %w", r.url, start, end, err)
	}
	defer drain(resp)
	r.requests.Add(1)
	if et := resp.Header.Get("ETag"); et != "" && r.etag != "" && et != r.etag {
		return nil, nil, fmt.Errorf("remote: %s: etag %s -> %s: %w", r.url, r.etag, et, ErrChanged)
	}
	switch resp.StatusCode {
	case http.StatusPartialContent:
		first, last, total, err := parseContentRange(resp.Header.Get("Content-Range"))
		if err != nil {
			return nil, nil, fmt.Errorf("remote: %s: %w", r.url, err)
		}
		if total >= 0 && total != r.size {
			return nil, nil, fmt.Errorf("remote: %s: size %d -> %d: %w", r.url, r.size, total, ErrChanged)
		}
		if first != start || last != end-1 {
			return nil, nil, fmt.Errorf("remote: %s: asked bytes [%d,%d), got [%d,%d]", r.url, start, end, first, last)
		}
		segs, costs, err := readSegments(resp.Body, start, end, unit)
		if err != nil {
			return nil, nil, fmt.Errorf("remote: %s: short body for bytes [%d,%d): %w", r.url, start, end, err)
		}
		var extra [1]byte
		if m, _ := resp.Body.Read(extra[:]); m > 0 {
			return nil, nil, fmt.Errorf("remote: %s: over-long body for bytes [%d,%d)", r.url, start, end)
		}
		r.fetched.Add(end - start)
		return segs, costs, nil
	case http.StatusOK:
		// Range ignored, or If-Range did not match: the body is the whole
		// resource, of whichever generation. The ETag comparison above
		// already rejected a changed validator.
		if resp.ContentLength >= 0 && resp.ContentLength != r.size {
			return nil, nil, fmt.Errorf("remote: %s: size %d -> %d: %w", r.url, r.size, resp.ContentLength, ErrChanged)
		}
		// A reader pinned to a strong ETag sent If-Range, so a 200 says
		// the validator no longer matched — or the server ignores ranges.
		// Only a matching ETag or a matching length tells the two apart; a
		// body that carries neither (chunked, no validator) may be any
		// generation, and reading it would be the torn bytes the pin
		// exists to rule out.
		if r.strong && resp.Header.Get("ETag") == "" && resp.ContentLength < 0 {
			return nil, nil, fmt.Errorf("remote: %s: full response with neither ETag nor length to match %s against: %w", r.url, r.etag, ErrChanged)
		}
		if _, err := io.CopyN(io.Discard, resp.Body, start); err != nil {
			return nil, nil, fmt.Errorf("remote: %s: skipping to %d in full body: %w", r.url, start, err)
		}
		segs, costs, err := readSegments(resp.Body, start, end, unit)
		if err != nil {
			return nil, nil, fmt.Errorf("remote: %s: short body at %d in full response: %w", r.url, start, err)
		}
		r.fetched.Add(end)
		return segs, costs, nil
	case http.StatusRequestedRangeNotSatisfiable:
		return nil, nil, fmt.Errorf("remote: %s: bytes [%d,%d) not satisfiable (http 416): %w", r.url, start, end, ErrChanged)
	default:
		return nil, nil, fmt.Errorf("remote: %s: http %d fetching bytes [%d,%d)", r.url, resp.StatusCode, start, end)
	}
}

// readSegments reads bytes [start, end) of the resource from body, each
// segment of unit bytes into a buffer of its own: segments are cached and
// evicted one by one, so none may keep another's bytes alive.
func readSegments(body io.Reader, start, end, unit int64) ([][]byte, []int64, error) {
	var segs [][]byte
	var costs []int64
	for s := start; s < end; s += unit {
		seg := make([]byte, min(s+unit, end)-s)
		if _, err := io.ReadFull(body, seg); err != nil {
			return nil, nil, err
		}
		segs, costs = append(segs, seg), append(costs, int64(len(seg)))
	}
	return segs, costs, nil
}

func (r *Reader) reqContext() (context.Context, context.CancelFunc) {
	if r.timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), r.timeout)
}

// drain consumes a bounded remainder of the body so the connection can
// be reused, then closes it.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256<<10)) //nolint:errcheck
	resp.Body.Close()
}

// parseContentRange parses "bytes first-last/total" ("/*" yields
// total = -1).
func parseContentRange(h string) (first, last, total int64, err error) {
	rest, ok := strings.CutPrefix(h, "bytes ")
	if !ok {
		return 0, 0, 0, fmt.Errorf("bad Content-Range %q", h)
	}
	span, tot, ok := strings.Cut(rest, "/")
	if !ok {
		return 0, 0, 0, fmt.Errorf("bad Content-Range %q", h)
	}
	lo, hi, ok := strings.Cut(span, "-")
	if !ok {
		return 0, 0, 0, fmt.Errorf("bad Content-Range %q", h)
	}
	if first, err = strconv.ParseInt(lo, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad Content-Range %q", h)
	}
	if last, err = strconv.ParseInt(hi, 10, 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad Content-Range %q", h)
	}
	if tot == "*" {
		total = -1
	} else if total, err = strconv.ParseInt(tot, 10, 64); err != nil || total < 0 {
		return 0, 0, 0, fmt.Errorf("bad Content-Range %q", h)
	}
	if first < 0 || last < first || (total >= 0 && last >= total) {
		return 0, 0, 0, fmt.Errorf("bad Content-Range %q", h)
	}
	return first, last, total, nil
}

// IsURL reports whether spec names a remote resource this package can
// open, as opposed to a local file path.
func IsURL(spec string) bool {
	return strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://")
}
