package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/grid"
	"repro/internal/remote"
	"repro/internal/server"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// roiEighths are the edges of a member's ROI requests, in eighths of the
// finest level's: volumes 1/64, 1/16, 1/8, 1/32, 27/512 and 3/32, ordered so
// that any prefix spans the range.
var roiEighths = [roisPerMember][3]int{{2, 2, 2}, {4, 4, 2}, {4, 4, 4}, {4, 2, 2}, {3, 3, 3}, {4, 3, 4}}

const (
	roisPerMember = 6
	// replayedGets caps the requests a traced run replays; the medians
	// they feed stop moving long before.
	replayedGets = 400
	// Cache budgets at scale 4, where the decoded working set is ~71 MB:
	// serve_hot's holds all of it, serve_churn's about a tenth.
	hotCacheBytes   = 256 << 20
	churnCacheBytes = 8 << 20
	// The remote segment cache is held to about an eighth of the stored
	// bytes for the same reason: the origin must keep being asked.
	churnSegmentCacheBytes = 1 << 20
)

// request is one GET the serving workloads issue, with the reference its
// response is held to.
type request struct {
	name string // served archive name
	kind archiveKind
	mi   int
	what string // "level", "roi" or "amr"
	li   int
	roi  grid.Region // level cells, for "roi"
	path string

	wantLen  int
	wantDims string // X-Tac-Dims, empty for "amr"
	wantCRC  uint32 // CRC32C of the body archive.Reader.Extract* implies
}

// serveWorkload is serve_hot (hot) and serve_churn (!hot): an in-process
// server.Server behind real loopback HTTP, driven by keep-alive clients
// in a closed loop.
type serveWorkload struct {
	hot bool

	a      *archiveSet
	psnr   float64
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	reqs   map[string][]request // by what
	deck   []*request           // one round of reader requests, in seeded order

	// serve_churn only.
	origin        *httptest.Server
	originFiles   []*os.File
	originCounter atomic.Pointer[ioCounter]
	livePath      string
	payloads      [][]byte // campaign steps as .amr bodies
	posted        int      // POSTs accepted since the live archive was created
	lastAck       ingestAck
	remoteStats   remote.Stats // of the replay's standalone remote reader

	// Cache and ingest counters around the traced window.
	cacheBefore, cacheAfter   server.CacheStats
	ingestBefore, ingestAfter server.IngestStats
}

type ingestAck struct {
	Snapshot   int    `json:"snapshot"`
	Generation uint64 `json:"generation"`
}

func (w *serveWorkload) served() []archiveKind {
	if w.hot {
		return []archiveKind{intraArchive}
	}
	return []archiveKind{intraArchive, deltaArchive}
}

func (w *serveWorkload) build(rc *runCtx, c *corpus) error {
	a, err := buildArchives(rc.tmp, c, w.served()...)
	if err != nil {
		return err
	}
	w.a = a
	check := newRecorder()
	w.psnr = verifyArchives(check, a)
	if check.failed > 0 {
		return fmt.Errorf("archives built in set-up do not verify: %v", check.failures)
	}
	w.client = &http.Client{Transport: &http.Transport{
		DisableCompression:  true, // the identity path, not gzip CPU
		MaxIdleConnsPerHost: rc.nproc + 1,
	}}
	cacheBytes := int64(hotCacheBytes)
	if !w.hot {
		// The working set shrinks with the cube of the scale; keep the
		// cache at about a tenth of it.
		cacheBytes = churnCacheBytes * 64 / int64(rc.scale*rc.scale*rc.scale)
	}
	w.srv = server.New(server.Config{CacheBytes: cacheBytes, Workers: rc.nproc, Logf: func(string, ...any) {}})
	if err := w.mount(rc, c); err != nil {
		return err
	}
	w.ts = httptest.NewServer(withCalibration(w.srv.Handler()))
	if err := w.references(rc.cfg.seed); err != nil {
		return err
	}
	w.buildDeck(rc.cfg.seed)
	return w.warmUp()
}

// mount registers the archives: serve_hot reads A_intra from its local
// file; serve_churn mounts both archives by URL from an in-process range
// origin and adds a writable live archive seeded with campaign step 0.
func (w *serveWorkload) mount(rc *runCtx, c *corpus) error {
	if w.hot {
		_, err := w.srv.Add("intra", server.ArchiveSpec{Primary: w.a.path[intraArchive]})
		return err
	}
	mux := http.NewServeMux()
	for _, kind := range w.served() {
		f, err := os.Open(w.a.path[kind])
		if err != nil {
			return err
		}
		w.originFiles = append(w.originFiles, f)
		size, etag := w.a.size[kind], fmt.Sprintf(`"bench-%s-%d"`, kind, w.a.size[kind])
		mux.HandleFunc("/"+kind.String()+".taca", func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("ETag", etag)
			http.ServeContent(rw, r, "", time.Time{}, io.NewSectionReader(f, 0, size))
		})
	}
	w.origin = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if c := w.originCounter.Load(); c != nil {
			countingHandler(mux, c).ServeHTTP(rw, r)
			return
		}
		mux.ServeHTTP(rw, r)
	}))
	for _, kind := range w.served() {
		spec := server.ArchiveSpec{
			Primary: w.origin.URL + "/" + kind.String() + ".taca",
			Remote:  w.remoteConfig(rc),
		}
		if _, err := w.srv.Add(kind.String(), spec); err != nil {
			return err
		}
	}
	w.livePath = filepath.Join(rc.tmp, "live.taca")
	if _, err := writeArchiveFile(w.livePath, deltaArchive, c.campaign[:1]); err != nil {
		return err
	}
	w.posted = 0
	_, err := w.srv.Add("live", server.ArchiveSpec{
		Primary: w.livePath, Append: true, Ingest: c.campaign[0].cfg,
		Keyframe: keyframe, Checksums: true, FooterSum: true,
	})
	if err != nil {
		return err
	}
	w.payloads = w.payloads[:0]
	for _, s := range c.campaign {
		var buf bytes.Buffer
		if err := s.ds.Write(&buf); err != nil {
			return err
		}
		w.payloads = append(w.payloads, buf.Bytes())
	}
	return nil
}

func (w *serveWorkload) remoteConfig(rc *runCtx) remote.Config {
	return remote.Config{CacheBytes: churnSegmentCacheBytes * 64 / int64(rc.scale*rc.scale*rc.scale)}
}

// references builds the request table and, through archive.Reader on the
// local files, the body every response must equal.
func (w *serveWorkload) references(seed int64) error {
	rng := rand.New(rand.NewSource(seed*32452843 + 11))
	w.reqs = map[string][]request{}
	for _, kind := range w.served() {
		fr, err := archive.OpenFile(w.a.path[kind])
		if err != nil {
			return err
		}
		for mi := range fr.Members() {
			if err := w.memberRequests(fr.Reader, kind, mi, rng); err != nil {
				fr.Close()
				return err
			}
		}
		fr.Close()
	}
	return nil
}

func (w *serveWorkload) memberRequests(r *archive.Reader, kind archiveKind, mi int, rng *rand.Rand) error {
	base := fmt.Sprintf("/v1/a/%s/snap/%d", kind, mi)
	add := func(q request, body []byte) {
		q.name, q.kind, q.mi = kind.String(), kind, mi
		q.wantLen, q.wantCRC = len(body), crc32.Checksum(body, castagnoli)
		w.reqs[q.what] = append(w.reqs[q.what], q)
	}
	ds, err := r.Extract(mi)
	if err != nil {
		return err
	}
	for li, l := range ds.Levels {
		d := l.Grid.Dim
		add(request{what: "level", li: li, path: fmt.Sprintf("%s/level/%d", base, li),
			wantDims: fmt.Sprintf("%d %d %d", d.X, d.Y, d.Z)}, floatBytes(l.Grid.Data))
	}
	// Windows of the finest level, 1/64 to 1/8 of its volume. The sizes are
	// fixed and only the offsets follow the seed, in whole unit blocks, so
	// every seed's deck moves the same number of bytes out of the same
	// number of blocks.
	fine, ub := ds.Levels[0].Grid, ds.Levels[0].UnitBlock
	for k := 0; k < roisPerMember; k++ {
		var lo, hi [3]int
		for ax, n := range []int{fine.Dim.X, fine.Dim.Y, fine.Dim.Z} {
			edge := n * roiEighths[k][ax] / 8
			lo[ax] = ub * rng.Intn((n-edge)/ub+1)
			hi[ax] = lo[ax] + edge
		}
		roi := grid.Region{X0: lo[0], Y0: lo[1], Z0: lo[2], X1: hi[0], Y1: hi[1], Z1: hi[2]}
		d := roi.Dims()
		add(request{what: "roi", roi: roi,
			path:     fmt.Sprintf("%s/level/0?roi=%d:%d,%d:%d,%d:%d", base, roi.X0, roi.X1, roi.Y0, roi.Y1, roi.Z0, roi.Z1),
			wantDims: fmt.Sprintf("%d %d %d", d.X, d.Y, d.Z)}, floatBytes(fine.Extract(roi).Data))
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		return err
	}
	add(request{what: "amr", path: base + "/amr"}, buf.Bytes())
	return nil
}

// floatBytes is the wire form of a level body: little-endian float32.
func floatBytes(vs []amr.Value) []byte {
	out := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// warmUp touches what the window will read. serve_hot requests
// everything once, so the cache holds every block and every response has
// been held to its reference before timing starts; serve_churn — whose
// cache cannot hold it anyway — requests one level per member and
// ingests one snapshot, so connections, pools and the live writer are up.
func (w *serveWorkload) warmUp() error {
	rec, c := newRecorder(), &caller{w: w}
	for _, what := range []string{"level", "roi", "amr"} {
		for i := range w.reqs[what] {
			q := &w.reqs[what][i]
			if !w.hot && (what != "level" || q.li != 0) {
				continue
			}
			c.get(rec, q, true)
		}
	}
	if !w.hot {
		c.ingestOne(rec)
	}
	if rec.failed > 0 {
		return fmt.Errorf("warm-up: %v", rec.failures)
	}
	return nil
}

func (w *serveWorkload) teardown() {
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.origin != nil {
		w.origin.Close()
		w.origin = nil
	}
	for _, f := range w.originFiles {
		f.Close()
	}
	w.originFiles = nil
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// caller is one closed-loop HTTP client: the shared keep-alive transport
// plus a body buffer it reuses, so that taking in an 8 MB response costs
// the client one copy and no allocation — it shares two cores with the
// server it measures.
type caller struct {
	w   *serveWorkload
	buf bytes.Buffer
	n   int // responses held to their reference so far
}

// do sends one request and returns the whole body, valid until the next
// call, and the response headers. Any status but want is an error.
func (c *caller) do(method, path string, payload []byte, want int) ([]byte, http.Header, error) {
	req, err := http.NewRequest(method, c.w.ts.URL+path, bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.w.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		return nil, nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, c.buf.Bytes())
	}
	return c.buf.Bytes(), resp.Header, nil
}

// get issues one request and holds the response to its reference: status,
// length and geometry always, the body's CRC32C on every eighth response
// (always when all is set).
func (c *caller) get(rec *recorder, q *request, all bool) {
	start := time.Now()
	body, header, err := c.do(http.MethodGet, q.path, nil, http.StatusOK)
	rec.op(sample{kind: q.what, bytes: int64(len(body))}, start, err)
	if err != nil {
		return
	}
	c.n++
	switch {
	case len(body) != q.wantLen:
		rec.reject("GET %s: %d bytes, reference %d", q.path, len(body), q.wantLen)
	case q.wantDims != "" && header.Get("X-Tac-Dims") != q.wantDims:
		rec.reject("GET %s: X-Tac-Dims %q, reference %q", q.path, header.Get("X-Tac-Dims"), q.wantDims)
	case (all || c.n%8 == 0) && crc32.Checksum(body, castagnoli) != q.wantCRC:
		rec.reject("GET %s: body differs from archive.Reader's extraction", q.path)
	}
}

// ingestOne POSTs the next campaign step (round-robin) to the live
// archive, then GETs the new member's finest level and holds every cell of
// it to the error bound against the step it was made from.
func (c *caller) ingestOne(rec *recorder) {
	w := c.w
	step := (w.posted + 1) % campaignSteps
	orig := w.a.snaps[deltaArchive][step]
	start := time.Now()
	body, _, err := c.do(http.MethodPost, "/v1/a/live/ingest", w.payloads[step], http.StatusCreated)
	var ack ingestAck
	if err == nil {
		err = json.Unmarshal(body, &ack)
	}
	rec.op(sample{kind: "post", bytes: orig.rawBytes(), background: true}, start, err)
	if err != nil {
		return
	}
	w.posted++
	w.lastAck = ack
	if want := w.posted; ack.Snapshot != want {
		rec.reject("ingest %d acknowledged as member %d", want, ack.Snapshot)
		return
	}

	start = time.Now()
	body, _, err = c.do(http.MethodGet, fmt.Sprintf("/v1/a/live/snap/%d/level/0", ack.Snapshot), nil, http.StatusOK)
	rec.op(sample{kind: "ingest_get", bytes: int64(len(body)), background: true}, start, err)
	if err != nil {
		return
	}
	fine := orig.ds.Levels[0]
	if len(body) != 4*len(fine.Grid.Data) {
		rec.reject("GET of ingested member %d: %d bytes, want %d", ack.Snapshot, len(body), 4*len(fine.Grid.Data))
		return
	}
	eb := orig.cfg.LevelEB(0, fine) * (1 + 1e-6)
	for i, v := range fine.Grid.Data {
		got := math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		if math.Abs(float64(got)-float64(v)) > eb {
			rec.reject("ingested member %d: cell %d is %g, original %g, bound %g", ack.Snapshot, i, got, v, eb)
			return
		}
	}
}

// The serving workloads spend their time where the codec kernel spends
// none: in net/http, the loopback and the wake-ups between client and
// server goroutines, which a virtual machine makes dear and uneven. Their
// calibration kernel is therefore a fixed exchange of GETs with a handler of
// the benchmark's own, mounted beside the product's on the same test
// server: a body straight from memory, so a GET of it costs what net/http,
// the loopback and the cores cost and nothing of the product.
const calibratePath = "/calibrate"

var calibrateBody = make([]byte, 4<<20)

// referenceHTTPProbe is httpKernel's time on the reference machine: what
// this sandbox needs for it between slices in an ordinary minute.
const referenceHTTPProbe = 10 * time.Millisecond

func withCalibration(product http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(calibratePath, func(rw http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n")) // the benchmark's own requests; 0 on nonsense
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.Write(calibrateBody[:min(max(n, 0), len(calibrateBody))]) //nolint:errcheck // the client sees a short body
	})
	mux.Handle("/", product)
	return mux
}

// httpKernel has every caller fetch thirty-two 64 KiB bodies and four 4 MiB
// ones — a quarter of the time in round trips, the rest in bulk, as in
// serve_hot's deck — and returns the machine speed that took.
func (w *serveWorkload) httpKernel(rec *recorder, callers []*caller) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 36; i++ {
				n := 64 << 10
				if i%9 == 8 {
					n = len(calibrateBody)
				}
				body, _, err := c.do(http.MethodGet, fmt.Sprintf("%s?n=%d", calibratePath, n), nil, http.StatusOK)
				if err == nil && len(body) != n {
					err = fmt.Errorf("%d bytes, want %d", len(body), n)
				}
				if err != nil {
					rec.check("calibration GET", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return float64(referenceHTTPProbe) / float64(time.Since(start))
}

func (w *serveWorkload) measure(rc *runCtx, rec *recorder, dur time.Duration, tc *traceCounters) {
	if tc != nil {
		w.originCounter.Store(&tc.origin)
		defer w.originCounter.Store(nil)
		w.cacheBefore, w.ingestBefore = w.srv.Cache().Stats(), w.srv.IngestStats()
	}
	callers := make([]*caller, rc.nproc)
	if !w.hot {
		callers = callers[:max(1, rc.nproc-1)]
	}
	for i := range callers {
		callers[i] = &caller{w: w}
	}
	// serve_hot never enters the codec; serve_churn's misses decode and its
	// ingests encode, so its machine speed is the mean of both kernels'.
	// The HTTP kernel runs one client per core, as the codec kernel does.
	probers := make([]*caller, rc.nproc)
	for i := range probers {
		probers[i] = &caller{w: w}
	}
	rec.kernel = func() float64 {
		if w.hot {
			return w.httpKernel(rec, probers)
		}
		return (w.httpKernel(rec, probers) + codecKernel()) / 2
	}
	// serve_churn's ingest client runs beside the readers and holds gate
	// for reading during each POST-and-GET. This goroutine holds it for
	// writing except while the readers work through a slice: a slice ends
	// when the readers are done and the ingest in flight has finished, so
	// every operation ends inside the slice it ran in and a calibration
	// probe never shares the cores with an ingest.
	var gate sync.RWMutex
	var stop atomic.Bool
	var ingest sync.WaitGroup
	gate.Lock()
	if !w.hot {
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			c := &caller{w: w}
			for {
				gate.RLock()
				if stop.Load() {
					gate.RUnlock()
					return
				}
				c.ingestOne(rec)
				gate.RUnlock()
			}
		}()
	}
	// A round is the deck once, in two slices.
	half := (len(w.deck) + 1) / 2
	for time.Since(rec.t0) < dur {
		for lo := 0; lo < len(w.deck); lo += half {
			hi := min(lo+half, len(w.deck))
			rec.slice(hi == len(w.deck), func() {
				gate.Unlock()
				w.runDeck(rec, callers, lo, hi)
				gate.Lock()
			})
		}
	}
	rec.close()
	stop.Store(true)
	gate.Unlock()
	ingest.Wait()
	if tc != nil {
		w.cacheAfter, w.ingestAfter = w.srv.Cache().Stats(), w.srv.IngestStats()
	}
}

// runDeck has the callers work through deck[lo:hi] in a closed loop. They
// share one position in the deck, so a slice is the same requests
// whatever the number of clients.
func (w *serveWorkload) runDeck(rec *recorder, callers []*caller, lo, hi int) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < hi; i = int(next.Add(1)) - 1 {
				c.get(rec, w.deck[i], false)
			}
		}()
	}
	wg.Wait()
}

// zipfShare is Zipf(1.1) over ten members, rounded to 40 draws: how often
// serve_hot's deck asks for each member, by position in the archive.
var zipfShare = [...]int{15, 7, 4, 3, 3, 2, 2, 2, 1, 1}

// buildDeck lays out one round of reader requests. The composition is
// fixed — only the order, and the ROI boxes drawn in references, follow the
// seed — so every round of every seed moves the same kinds of request in
// the same proportions, and the percentiles fall inside a kind, not on
// the edge between two.
//
// serve_hot: 240 ROI, 120 level and 40 whole-snapshot GETs (60/30/10 %),
// members by zipfShare. serve_churn: per member every level once and
// three ROIs, uniform over members.
func (w *serveWorkload) buildDeck(seed int64) {
	w.deck = w.deck[:0]
	take := func(what string, kind archiveKind, mi, n int) {
		var of []*request
		for i := range w.reqs[what] {
			if q := &w.reqs[what][i]; q.kind == kind && q.mi == mi {
				of = append(of, q)
			}
		}
		for i := 0; i < n; i++ {
			w.deck = append(w.deck, of[i%len(of)])
		}
	}
	for _, kind := range w.served() {
		for mi, s := range w.a.snaps[kind] {
			if w.hot {
				share := zipfShare[mi%len(zipfShare)]
				take("roi", kind, mi, 6*share)
				take("level", kind, mi, 3*share)
				take("amr", kind, mi, share)
			} else {
				take("roi", kind, mi, 3)
				take("level", kind, mi, len(s.ds.Levels))
			}
		}
	}
	rng := rand.New(rand.NewSource(seed*49979687 + 3))
	rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
}

// verify reopens the live archive: it must hold exactly the seed member
// plus every accepted POST, and its newest member must decode within
// the bound. The stored ratio is that of the archives served read-only;
// the live archive's size depends on how many POSTs the window fitted.
func (w *serveWorkload) verify(rc *runCtx, rec *recorder) (float64, float64) {
	storedRatio := w.a.storedRatio()
	if w.hot {
		return storedRatio, w.psnr
	}
	fr, err := archive.OpenFile(w.livePath)
	if err != nil {
		rec.check("reopening live archive", err)
		return storedRatio, w.psnr
	}
	defer fr.Close()
	members := len(fr.Members())
	if members != 1+w.posted {
		err = fmt.Errorf("live archive holds %d members, %d were accepted on top of the seed", members, w.posted)
	}
	rec.check("live member count", err)
	last := members - 1
	orig := w.a.snaps[deltaArchive][last%campaignSteps]
	ds, err := fr.Extract(last)
	if err == nil {
		var fid fidelity
		var bad int64
		if bad, err = fid.checkMember(orig, ds); err == nil && bad > 0 {
			err = fmt.Errorf("%d cells beyond the error bound", bad)
		}
	}
	rec.check("newest live member", err)
	return storedRatio, w.psnr
}

func (w *serveWorkload) layerMetrics(rc *runCtx, traced *recorder, out map[string]float64) {
	hits := w.cacheAfter.Hits - w.cacheBefore.Hits
	misses := w.cacheAfter.Misses - w.cacheBefore.Misses
	decodes := w.cacheAfter.Decodes - w.cacheBefore.Decodes
	out["server.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	out["server.cache_evictions"] = float64(w.cacheAfter.Evictions - w.cacheBefore.Evictions)
	out["server.decodes"] = float64(decodes)
	out["server.decodes_per_miss"] = ratio(float64(decodes), float64(misses))
	out["server.http_p99_ms"] = percentile(traced.latencies(""), 99)
	out["server.ingest_mb_s"] = mbPerS(w.ingestAfter.Bytes-w.ingestBefore.Bytes, traced.wall)
	out["server.ingest_post_ms"] = median(traced.latencies("post"))
	out["server.ingest_rejected"] = float64(w.ingestAfter.Rejected - w.ingestBefore.Rejected)
	if !w.hot {
		out["server.ingest_generation"] = float64(w.lastAck.Generation)
		out["remote.hit_ratio"] = w.remoteStats.HitRatio()
		out["remote.fills_per_miss"] = ratio(float64(w.remoteStats.Fills), float64(w.remoteStats.Misses))
	}
}

// inproc performs the request by calling the server's assembly functions
// directly — the same work as the GET minus HTTP — and returns the bytes
// of field data assembled.
func (w *serveWorkload) inproc(q *request) (int64, error) {
	ctx := context.Background()
	switch q.what {
	case "level":
		g, _, err := w.srv.LevelContext(ctx, q.name, q.mi, q.li)
		if err != nil {
			return 0, err
		}
		return 4 * int64(len(g.Data)), nil
	case "roi":
		g, _, err := w.srv.RegionContext(ctx, q.name, q.mi, 0, q.roi)
		if err != nil {
			return 0, err
		}
		return 4 * int64(len(g.Data)), nil
	default:
		ds, err := w.srv.DatasetContext(ctx, q.name, q.mi)
		if err != nil {
			return 0, err
		}
		var n int64
		for _, l := range ds.Levels {
			n += 4 * int64(len(l.Grid.Data))
		}
		return n, nil
	}
}

// replay replays a seeded sample of the window's requests: the GET again
// from a single client as the root, and under it the same request made by
// calling the server's assembly functions directly. serve_churn also
// replays the decode path of the archives it mounts, through their local
// files, and the frame reads through a second, standalone remote reader.
func (w *serveWorkload) replay(rc *runCtx, rp *replayer, budget time.Duration) error {
	rng := rand.New(rand.NewSource(rc.cfg.seed*86028121 + 5))
	share := budget
	if !w.hot {
		share = budget / 3
	}
	rp.allow(share)
	c := &caller{w: w}
	inprocName := map[string]string{"level": "server.level_inproc", "roi": "server.region_inproc", "amr": "server.snapshot_inproc"}
	for n := 0; n < replayedGets && !rp.expired(); n++ {
		what := []string{"roi", "roi", "level", "amr"}[rng.Intn(4)]
		if !w.hot && what == "amr" {
			what = "level"
		}
		q := &w.reqs[what][rng.Intn(len(w.reqs[what]))]
		op := rp.tr.newOp()
		var err error
		// serve_churn's requests miss; empty the block cache before each of
		// the two so the direct call does not hit on what the GET decoded.
		if !w.hot {
			w.srv.Cache().Purge()
		}
		root := rp.tr.do(op, 0, "op.get", int64(q.wantLen), func() { _, _, err = c.do(http.MethodGet, q.path, nil, http.StatusOK) })
		if err != nil {
			return err
		}
		if !w.hot {
			w.srv.Cache().Purge()
		}
		var n int64
		id := rp.tr.begin(op, root, inprocName[what])
		n, err = w.inproc(q)
		rp.tr.end(id, n)
		if err != nil {
			return err
		}
	}
	if w.hot {
		return nil
	}
	rp.allow(share)
	for _, kind := range w.served() {
		for mi, s := range w.a.snaps[kind] {
			if rp.expired() {
				break
			}
			op := &extractOp{kind: kind, mi: mi, what: "level_fine", wantBytes: int64(s.ds.Levels[0].StoredCells()) * amr.ValueBytes}
			if err := rp.replayExtract(w.a.path[kind], op, s); err != nil {
				return err
			}
		}
	}
	rp.allow(share)
	fr, err := archive.OpenFile(w.a.path[intraArchive])
	if err != nil {
		return err
	}
	defer fr.Close()
	members := rng.Perm(len(fr.Members()))
	w.remoteStats, err = rp.replayRemote(w.origin.URL+"/intra.taca", w.remoteConfig(rc), fr.Reader, members)
	return err
}
