package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the program
// under test. Spans of one operation share Op; Parent is the span that
// caused this one (0 for an operation's root).
//
// Stages are re-executed one after another once the operation itself
// has finished, so a child's interval lies after its parent's, not inside
// it: self time is the parent's duration minus the sum of its children's
// durations, not an interval difference.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allots the identifier the spans of one operation share.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its identifier, for children to name
// as their parent; end closes it.
func (t *tracer) begin(op, parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int, bytes int64) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs, t.spans[id-1].Bytes = now, bytes
}

// do times fn as a span and returns the span's identifier.
func (t *tracer) do(op, parent int, name string, bytes int64, fn func()) int {
	id := t.begin(op, parent, name)
	fn()
	t.end(id, bytes)
	return id
}

// add records a span whose interval the caller measured itself.
func (t *tracer) add(op, parent int, name string, bytes int64, start, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{len(t.spans) + 1, parent, op, name, int64(start), int64(end), bytes})
}

// named returns the spans with the given name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums duration and bytes over the spans with the given name.
func (t *tracer) total(name string) (time.Duration, int64) {
	var d time.Duration
	var b int64
	for _, s := range t.named(name) {
		d += s.dur()
		b += s.Bytes
	}
	return d, b
}

// rate is the bytes-per-second of all spans with the given name, MB/s.
func (t *tracer) rate(name string) float64 {
	d, b := t.total(name)
	return mbPerS(b, d)
}

// medianMs is the median duration of the spans with the given name.
func (t *tracer) medianMs(name string) float64 {
	var vs []float64
	for _, s := range t.named(name) {
		vs = append(vs, ms(s.dur()))
	}
	return median(vs)
}

// perOpMs is the median, over operations, of the time one operation spent
// in spans with the given name.
func (t *tracer) perOpMs(name string) float64 {
	byOp := map[int]time.Duration{}
	for _, s := range t.named(name) {
		byOp[s.Op] += s.dur()
	}
	var vs []float64
	for _, d := range byOp {
		vs = append(vs, ms(d))
	}
	return median(vs)
}

// unattributedShare is, over all operation roots (spans named "op.*"),
// the share of their time no child span accounts for.
func (t *tracer) unattributedShare() float64 {
	children := map[int]time.Duration{}
	for _, s := range t.spans {
		children[s.Parent] += s.dur()
	}
	var self, all time.Duration
	for _, s := range t.spans {
		if s.Parent != 0 || len(s.Name) < 3 || s.Name[:3] != "op." {
			continue
		}
		all += s.dur()
		if rest := s.dur() - children[s.ID]; rest > 0 {
			self += rest
		}
	}
	return ratio(float64(self), float64(all))
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ioCounter is the tally a wrapper keeps at a layer boundary: calls,
// bytes, and time inside the wrapped call.
type ioCounter struct {
	calls, bytes, ns atomic.Int64
}

func (c *ioCounter) record(n int, start time.Time) {
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	c.ns.Add(int64(time.Since(start)))
}

func (c *ioCounter) busy() time.Duration { return time.Duration(c.ns.Load()) }

// traceCounters are the wrappers' tallies for one traced window.
type traceCounters struct {
	sink   ioCounter // io.Writer under archive.NewWriter
	source ioCounter // io.ReaderAt under archive.Open
	origin ioCounter // http.Handler of the range origin
}

// countingWriter counts what the archive writer pushes into its sink.
type countingWriter struct {
	w io.Writer
	c *ioCounter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := cw.w.Write(p)
	cw.c.record(n, start)
	return n, err
}

// countingReaderAt counts what the archive reader pulls from its source.
type countingReaderAt struct {
	r io.ReaderAt
	c *ioCounter
}

func (cr countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := cr.r.ReadAt(p, off)
	cr.c.record(n, start)
	return n, err
}

// countingHandler counts requests, body bytes and busy time of the
// range origin remote-mounted archives fetch from.
func countingHandler(h http.Handler, c *ioCounter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &countingResponse{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		c.record(cw.n, start)
	})
}

type countingResponse struct {
	http.ResponseWriter
	n int
}

func (c *countingResponse) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// ReadFrom keeps http.ServeContent's io.Copy on the fast path of the
// wrapped writer while still counting.
func (c *countingResponse) ReadFrom(r io.Reader) (int64, error) {
	n, err := io.Copy(c.ResponseWriter, r)
	c.n += int(n)
	return n, err
}
