package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/faultio"
	"repro/internal/grid"
)

// wireRef is one request of the wire tests with the response archive.Reader
// says it must have: the identity body and, for level and ROI, the X-Tac-*
// geometry headers.
type wireRef struct {
	path string
	body []byte
	tac  map[string]string
}

// wireRefs derives, through archive.Reader alone, every level, a spread of
// ROIs per level and the .amr stream of every member of blob.
func wireRefs(t testing.TB, blob []byte) []wireRef {
	t.Helper()
	r, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	var refs []wireRef
	for mi := range r.Members() {
		ds, err := r.Extract(mi)
		if err != nil {
			t.Fatal(err)
		}
		var stream bytes.Buffer
		if err := ds.Write(&stream); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, wireRef{path: fmt.Sprintf("/v1/a/test/snap/%d/amr", mi), body: stream.Bytes()})
		for li, l := range ds.Levels {
			d, ub := l.Grid.Dim, l.UnitBlock
			windows := []grid.Region{
				{}, // the whole level, no roi parameter
				{X0: ub, X1: 3 * ub, Y0: 0, Y1: d.Y, Z0: ub, Z1: 2 * ub},              // block-aligned
				{X0: 1, X1: d.X - 1, Y0: ub + 1, Y1: ub + 2, Z0: 3, Z1: d.Z - 2},      // cuts through blocks
				{X0: d.X - ub - 1, X1: d.X + 9, Y0: -4, Y1: 3, Z0: d.Z - 1, Z1: 1000}, // clipped at the edges
			}
			for _, roi := range windows {
				path := fmt.Sprintf("/v1/a/test/snap/%d/level/%d", mi, li)
				reg := grid.RegionOf(d)
				if roi != (grid.Region{}) {
					path += fmt.Sprintf("?roi=%d:%d,%d:%d,%d:%d", roi.X0, roi.X1, roi.Y0, roi.Y1, roi.Z0, roi.Z1)
					reg = roi.Intersect(d)
				}
				rd := reg.Dims()
				refs = append(refs, wireRef{path: path, body: leBytes(l.Grid.Extract(reg).Data), tac: map[string]string{
					"X-Tac-Elem":       "float32le",
					"X-Tac-Dims":       fmt.Sprintf("%d %d %d", rd.X, rd.Y, rd.Z),
					"X-Tac-Region":     fmt.Sprintf("%d:%d,%d:%d,%d:%d", reg.X0, reg.X1, reg.Y0, reg.Y1, reg.Z0, reg.Z1),
					"X-Tac-Unit-Block": strconv.Itoa(ub),
				}})
			}
		}
	}
	return refs
}

// rawClient never asks for gzip on its own and never undoes it, so a test
// sees the encoding it negotiated.
func rawClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableCompression: true}}
}

// fetch issues one request over real HTTP and returns the response with
// its body read (err is the body read's).
func fetch(t testing.TB, c *http.Client, method, url string, gz bool) (*http.Response, []byte, error) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func gunzip(t testing.TB, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWireIdentity holds the three binary routes, in both encodings, to
// bodies derived from archive.Reader on an intra and a Keyframe=4 campaign
// archive at 1, 2 and 8 workers, cold and warm: same bytes, same X-Tac-*
// headers, Content-Length exactly the body on identity and none on gzip,
// Vary on both; the .amr body is Dataset.Write(Reader.Extract(mi)) and
// reads back through amr.ReadFrom.
func TestWireIdentity(t *testing.T) {
	campaign, _ := campaignArchiveBytes(t, 6, 4, 4)
	for name, blob := range map[string][]byte{"intra": testArchiveBytes(t, 4), "campaign": campaign} {
		refs := wireRefs(t, blob)
		for _, workers := range []int{1, 2, 8} {
			s, _ := newTestServer(t, blob, Config{Workers: workers})
			ts := httptest.NewServer(s.Handler())
			c := rawClient()
			for pass := 0; pass < 2; pass++ { // cold, then from the cache
				for _, ref := range refs {
					for _, gz := range []bool{false, true} {
						tag := fmt.Sprintf("%s workers=%d pass=%d gzip=%v %s", name, workers, pass, gz, ref.path)
						resp, body, err := fetch(t, c, "GET", ts.URL+ref.path, gz)
						if err != nil || resp.StatusCode != http.StatusOK {
							t.Fatalf("%s: status %d, body error %v", tag, resp.StatusCode, err)
						}
						if v := resp.Header.Get("Vary"); v != "Accept-Encoding" {
							t.Fatalf("%s: Vary %q", tag, v)
						}
						if gz {
							// The handler sets no length on gzip; net/http adds the
							// compressed one itself when a body fits its 2 KiB buffer.
							if resp.Header.Get("Content-Encoding") != "gzip" || (resp.ContentLength != -1 && (len(body) > 2048 || resp.ContentLength != int64(len(body)))) {
								t.Fatalf("%s: Content-Encoding %q, Content-Length %d, %d compressed bytes", tag, resp.Header.Get("Content-Encoding"), resp.ContentLength, len(body))
							}
							body = gunzip(t, body)
						} else if resp.Header.Get("Content-Encoding") != "" || resp.ContentLength != int64(len(ref.body)) || len(resp.TransferEncoding) != 0 {
							t.Fatalf("%s: Content-Encoding %q, Content-Length %d (body %d), Transfer-Encoding %v", tag,
								resp.Header.Get("Content-Encoding"), resp.ContentLength, len(ref.body), resp.TransferEncoding)
						}
						if !bytes.Equal(body, ref.body) {
							t.Fatalf("%s: body differs from archive.Reader's (%d vs %d bytes)", tag, len(body), len(ref.body))
						}
						for k, want := range ref.tac {
							if got := resp.Header.Get(k); got != want {
								t.Fatalf("%s: %s %q, want %q", tag, k, got, want)
							}
						}
						if ref.tac == nil && pass == 0 && !gz {
							if _, err := amr.ReadFrom(bytes.NewReader(body)); err != nil {
								t.Fatalf("%s: served stream does not read back: %v", tag, err)
							}
						}
					}
				}
			}
			ts.Close()
			s.Close()
		}
	}
}

// TestWireSlabs holds level and ROI bodies that span several slabs — the
// whole level, a window that starts and ends mid-block on every face, one
// clipped at the edges, and a thin one that fits in a single slab — to the
// windows archive.Reader extracts, in both encodings.
func TestWireSlabs(t *testing.T) {
	blob := slabArchiveBytes(t)
	r, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := r.ExtractLevel(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := whole.Grid.Dim
	type shot struct {
		path  string
		want  []byte
		slabs bool // spans at least three slabs
	}
	shots := []shot{{"/v1/a/test/snap/0/level/0", leBytes(whole.Grid.Data), true}}
	for _, w := range []struct {
		roi   grid.Region
		slabs bool
	}{
		{grid.Region{X0: 13, X1: 61, Y0: 3, Y1: 125, Z0: 7, Z1: 121}, true},   // mid-block on every face
		{grid.Region{X0: -5, X1: 300, Y0: 60, Y1: 200, Z0: -3, Z1: 64}, true}, // clipped at the edges
		{grid.Region{X0: 70, X1: 127, Y0: 9, Y1: 10, Z0: 0, Z1: 128}, false},  // thin: one slab
	} {
		shots = append(shots, shot{
			fmt.Sprintf("/v1/a/test/snap/0/level/0?roi=%d:%d,%d:%d,%d:%d", w.roi.X0, w.roi.X1, w.roi.Y0, w.roi.Y1, w.roi.Z0, w.roi.Z1),
			leBytes(whole.Grid.Extract(w.roi.Intersect(d)).Data), w.slabs,
		})
	}
	s, _ := newTestServer(t, blob, Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := rawClient()
	for _, sh := range shots {
		// No plane of this level exceeds half a slab, so a body over two
		// slabs' worth of bytes leaves in three slabs or more.
		if sh.slabs != (len(sh.want) > 2*slabBytes) {
			t.Fatalf("%s: %d bytes, but the shot says slabs=%v", sh.path, len(sh.want), sh.slabs)
		}
		for _, gz := range []bool{false, true} {
			resp, body, err := fetch(t, c, "GET", ts.URL+sh.path, gz)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s (gzip=%v): status %d, body error %v", sh.path, gz, resp.StatusCode, err)
			}
			if gz {
				body = gunzip(t, body)
			} else if resp.ContentLength != int64(len(sh.want)) {
				t.Fatalf("%s: Content-Length %d, want %d", sh.path, resp.ContentLength, len(sh.want))
			}
			if !bytes.Equal(body, sh.want) {
				t.Fatalf("%s (gzip=%v): body differs from archive.Reader's window (%d vs %d bytes)", sh.path, gz, len(body), len(sh.want))
			}
		}
	}
}

// sinkWriter is an http.ResponseWriter that keeps a response's status and
// body length and drops its bytes, so that what a handler allocates can be
// counted without the body's own copy.
type sinkWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *sinkWriter) Header() http.Header { return w.h }

func (w *sinkWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *sinkWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	return len(p), nil
}

// TestSparseLevelAllocatesOneSlab: a cold GET of a 256³ level that stores
// six unit blocks — a 64 MiB dense body — allocates at most one slab
// beyond the blocks it decodes, plus slack for the rest of a cold request
// (the frames read, the decoder's tables). A unit-block x-plane here is
// 2 MiB, more than slabBytes, so the slab is one plane. The count holds
// under the race detector too.
func TestSparseLevelAllocatesOneSlab(t *testing.T) {
	stored := map[[3]int]bool{{0, 0, 0}: true, {31, 31, 31}: true, {5, 17, 9}: true, {12, 0, 30}: true, {20, 20, 0}: true, {31, 0, 15}: true}
	l := blockLevel(rand.New(rand.NewSource(9)), 256, 8, func(bx, by, bz int) bool { return stored[[3]int{bx, by, bz}] })
	blob := archiveOf(t, 4, 1e8, &amr.Dataset{Name: "sparse", Field: "f", Ratio: 2, Levels: []*amr.Level{l}})
	s, _ := newTestServer(t, blob, Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	const (
		body  = amr.ValueBytes * 256 * 256 * 256
		slab  = amr.ValueBytes * 8 * 256 * 256
		cells = amr.ValueBytes * 8 * 8 * 8
		slack = 1 << 20
	)
	req := httptest.NewRequest("GET", "/v1/a/test/snap/0/level/0", nil)
	w := &sinkWriter{h: http.Header{}}
	// Two collections empty the sync.Pools, so a buffer an earlier request
	// left behind cannot hide this one's.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	if w.code != http.StatusOK || w.n != body {
		t.Fatalf("status %d, %d body bytes, want 200 and %d", w.code, w.n, body)
	}
	limit := uint64(slab + len(stored)*cells + slack)
	n := after.TotalAlloc - before.TotalAlloc
	if n > limit {
		t.Fatalf("the GET allocated %d bytes, want at most %d: one %d-byte slab, %d stored blocks of %d bytes and %d of slack", n, limit, slab, len(stored), cells, slack)
	}
	t.Logf("the GET of a %d-byte body allocated %d bytes", body, n)
}

// TestWireFrontsOwnTheirGrids: the in-process fronts hand out fresh grids,
// not pooled ones — two results stay intact and distinct while more
// requests run through the pool.
func TestWireFrontsOwnTheirGrids(t *testing.T) {
	blob := testArchiveBytes(t, 4)
	s, r := newTestServer(t, blob, Config{})
	ctx := context.Background()
	want, err := r.ExtractLevel(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := s.LevelContext(ctx, "test", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.LevelContext(ctx, "test", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("two LevelContext results share storage")
	}
	for i := 0; i < 8; i++ {
		get(t, s.Handler(), "/v1/a/test/snap/1/level/0")
	}
	if !bytes.Equal(leBytes(a.Data), leBytes(want.Grid.Data)) || !bytes.Equal(leBytes(b.Data), leBytes(want.Grid.Data)) {
		t.Fatal("a grid returned by LevelContext changed under later requests")
	}
}

// blockLevel is a level of n³ cells at unit block ub: random values in the
// blocks occupied names, zero everywhere else.
func blockLevel(rng *rand.Rand, n, ub int, occupied func(bx, by, bz int) bool) *amr.Level {
	l := amr.NewLevel(grid.Dims{X: n, Y: n, Z: n}, ub)
	for i := range l.Grid.Data {
		l.Grid.Data[i] = 1e10 * (1 + rng.Float32())
	}
	md := l.Mask.Dim
	for bx := 0; bx < md.X; bx++ {
		for by := 0; by < md.Y; by++ {
			for bz := 0; bz < md.Z; bz++ {
				if occupied(bx, by, bz) {
					l.Mask.Set(bx, by, bz, true)
				} else {
					l.Grid.FillRegion(l.BlockRegion(bx, by, bz), 0)
				}
			}
		}
	}
	return l
}

// archiveOf writes dss into an in-memory archive of batchBlocks blocks per
// frame, at error bound eb.
func archiveOf(t testing.TB, batchBlocks int, eb float64, dss ...*amr.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = batchBlocks
	for _, ds := range dss {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: eb}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sparseArchiveBytes is one member of three levels built to hold every
// shape of coverage: a finest level stored only in one corner octant, a
// middle level with an empty mask (everything it could own is refined),
// and a coarse level that stores all but that octant — plus a second,
// single-level member stored everywhere, whose responses leave buffers of
// the same sizes dirty in every cell.
func sparseArchiveBytes(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	sparse := &amr.Dataset{Name: "sparse", Field: "f", Ratio: 2, Levels: []*amr.Level{
		blockLevel(rng, 32, 4, func(bx, by, bz int) bool { return bx < 4 && by < 4 && bz < 4 }),
		blockLevel(rng, 16, 4, func(bx, by, bz int) bool { return false }),
		blockLevel(rng, 8, 4, func(bx, by, bz int) bool { return bx+by+bz > 0 }),
	}}
	dense := &amr.Dataset{Name: "dense", Field: "f", Ratio: 2, Levels: []*amr.Level{
		blockLevel(rng, 32, 4, func(bx, by, bz int) bool { return true }),
	}}
	for _, ds := range []*amr.Dataset{sparse, dense} {
		if err := ds.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return archiveOf(t, 4, 1e6, sparse, dense)
}

// slabArchiveBytes is one member of one 128³ level at unit block 8, whose
// responses span several slabs: a whole-level body is 8 MiB, a unit-block
// x-plane of it 512 KiB. Its low half in x is stored throughout, so those
// slabs are not cleared; its high half stores two blocks in three, so every
// slab there is.
func slabArchiveBytes(t testing.TB) []byte {
	t.Helper()
	l := blockLevel(rand.New(rand.NewSource(5)), 128, 8, func(bx, by, bz int) bool { return bx < 8 || (bx+by+bz)%3 != 0 })
	// A bound of 1 % of the value range: at 1e6, as sparseArchiveBytes
	// codes, most random values here are unpredictable, and the encoder
	// takes seconds over this level under the race detector.
	return archiveOf(t, 64, 1e8, &amr.Dataset{Name: "slabs", Field: "f", Ratio: 2, Levels: []*amr.Level{l}})
}

// poisonWire leaves a buffer full of NaNs in the pool for every size class
// up to that of n values, so the next responses start from dirty memory
// whether or not an earlier response happened to leave one behind.
func poisonWire(n int) {
	nan := math.Float32frombits(0x7fc0dead)
	for c := 0; c <= wireClass(n); c++ {
		p := getWire(1 << c)
		for i := range *p {
			(*p)[i] = nan
		}
		putWire(p)
	}
}

// TestWireDirtyPool serves, a hundred times over and always out of dirty
// buffers, every shape of coverage a reused buffer has to survive — a
// sparse level, a level with an empty mask, an ROI over space no block
// covers, one that straddles stored and empty blocks, one clipped at the
// level's edge, one stored throughout (which is not cleared at all), the
// sparse member's .amr — after a dense level of the same size: every body
// equals archive.Reader's, so every uncovered cell is 0 and every covered
// one is its own.
func TestWireDirtyPool(t *testing.T) {
	blob := sparseArchiveBytes(t)
	s, r := newTestServer(t, blob, Config{Workers: 2})
	h := s.Handler()
	type shot struct {
		path string
		want []byte
	}
	var shots []shot
	sparse, err := r.Extract(0)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := sparse.Write(&stream); err != nil {
		t.Fatal(err)
	}
	shots = append(shots, shot{"/v1/a/test/snap/0/amr", stream.Bytes()})
	for li, l := range sparse.Levels {
		shots = append(shots, shot{fmt.Sprintf("/v1/a/test/snap/0/level/%d", li), leBytes(l.Grid.Data)})
	}
	fine := sparse.Levels[0].Grid
	for _, roi := range []grid.Region{
		{X0: 16, X1: 32, Y0: 16, Y1: 32, Z0: 16, Z1: 32}, // no stored block at all
		{X0: 9, X1: 23, Y0: 2, Y1: 30, Z0: 15, Z1: 17},   // straddles stored and empty
		{X0: 10, X1: 99, Y0: -5, Y1: 7, Z0: 30, Z1: 40},  // clipped at the edge
		{X0: 0, X1: 16, Y0: 0, Y1: 16, Z0: 0, Z1: 16},    // fully covered: nothing cleared
	} {
		shots = append(shots, shot{
			fmt.Sprintf("/v1/a/test/snap/0/level/0?roi=%d:%d,%d:%d,%d:%d", roi.X0, roi.X1, roi.Y0, roi.Y1, roi.Z0, roi.Z1),
			leBytes(fine.Extract(roi.Intersect(fine.Dim)).Data),
		})
	}
	zeros := 0
	for _, v := range floatsOf(t, shots[1].want) {
		if v == 0 {
			zeros++
		}
	}
	if zeros < len(fine.Data)/2 {
		t.Fatalf("sparse level has only %d uncovered cells; the test would prove little", zeros)
	}
	for round := 0; round < 100; round++ {
		if rec := get(t, h, "/v1/a/test/snap/1/level/0"); rec.Code != http.StatusOK {
			t.Fatalf("dense level: status %d", rec.Code)
		}
		poisonWire(len(fine.Data))
		for _, sh := range shots {
			rec := get(t, h, sh.path)
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d %s: status %d: %s", round, sh.path, rec.Code, rec.Body.String())
			}
			if !bytes.Equal(rec.Body.Bytes(), sh.want) {
				t.Fatalf("round %d %s: body differs from archive.Reader's — a pooled buffer leaked into it", round, sh.path)
			}
		}
	}
}

// TestWireConcurrentBuffers runs eight clients of mixed GETs over real
// HTTP, every body held to its CRC, while a ninth keeps dropping its
// connection in the middle of a body: if a buffer went back to the pool
// while a response still read from it — or went back twice — two
// responses would share it and a CRC would break.
func TestWireConcurrentBuffers(t *testing.T) {
	campaign, _ := campaignArchiveBytes(t, 6, 4, 4)
	refs := wireRefs(t, campaign)
	crcs := make([]uint32, len(refs))
	table := crc32.MakeTable(crc32.Castagnoli)
	for i, ref := range refs {
		crcs[i] = crc32.Checksum(ref.body, table)
	}
	s, _ := newTestServer(t, campaign, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var dropper sync.WaitGroup
	dropper.Add(1)
	go func() {
		defer dropper.Done()
		c := rawClient()
		buf := make([]byte, 512)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := c.Get(ts.URL + refs[i%len(refs)].path)
			if err != nil {
				t.Errorf("dropper: %v", err)
				return
			}
			io.ReadFull(resp.Body, buf) //nolint:errcheck // a taste of the body, then hang up
			resp.Body.Close()
			c.CloseIdleConnections()
		}
	}()

	var clients sync.WaitGroup
	for g := 0; g < 8; g++ {
		clients.Add(1)
		go func(g int) {
			defer clients.Done()
			c := rawClient()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 150; i++ {
				k := rng.Intn(len(refs))
				gz := rng.Intn(4) == 0
				resp, body, err := fetch(t, c, "GET", ts.URL+refs[k].path, gz)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: GET %s: status %d, body error %v", g, refs[k].path, resp.StatusCode, err)
					return
				}
				if gz {
					body = gunzip(t, body)
				}
				if len(body) != len(refs[k].body) || crc32.Checksum(body, table) != crcs[k] {
					t.Errorf("client %d: GET %s (gzip=%v): body is not the reference's", g, refs[k].path, gz)
					return
				}
			}
		}(g)
	}
	clients.Wait()
	close(stop)
	dropper.Wait()
}

// TestWireCorruptFrameAMR damages the last frame of the last level of a
// member: /amr — which by then has every earlier level in its buffer —
// must answer the JSON envelope, not a 200 with a short body, and so must
// the level route; the healthy member's stream is untouched.
func TestWireCorruptFrameAMR(t *testing.T) {
	blob := chaosArchiveBytes(t)
	s, fr, _ := flakyServer(t, blob, Config{Workers: 2, QuarantineAfter: -1})
	h := s.Handler()
	sa, err := s.lookup("test")
	if err != nil {
		t.Fatal(err)
	}
	m := &sa.reader().Members()[0]
	li := len(m.Levels) - 1
	fr.SetPlan(faultio.FlipByte(frameMidpoint(t, sa.reader(), 0, li, len(m.Levels[li].Batches)-1), 0x20))
	wantCorrupt := func(h http.Handler, path string) {
		t.Helper()
		for _, enc := range []string{"identity", "gzip"} {
			rec := get(t, h, path, "Accept-Encoding", enc)
			var env errorBody
			if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" ||
				json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Code != "corrupt" || env.Member == nil || *env.Member != 0 {
				t.Fatalf("%s (%s): status %d, Content-Type %q, body %q — want the corrupt envelope for member 0",
					path, enc, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
			}
			for _, k := range []string{"Content-Length", "Content-Encoding", "X-Tac-Dims"} {
				if v := rec.Header().Get(k); v != "" {
					t.Fatalf("%s (%s): error response carries %s %q", path, enc, k, v)
				}
			}
		}
	}
	for _, path := range []string{"/v1/a/test/snap/0/amr", fmt.Sprintf("/v1/a/test/snap/0/level/%d", li)} {
		wantCorrupt(h, path)
	}

	// A level that leaves in eight slabs of two x-planes each, damaged in
	// its last frame, which holds blocks of the last slab's planes only:
	// the frame is read before the status line all the same.
	slabs := slabArchiveBytes(t)
	ss, sfr, _ := flakyServer(t, slabs, Config{Workers: 2, QuarantineAfter: -1})
	ssa, err := ss.lookup("test")
	if err != nil {
		t.Fatal(err)
	}
	idx := &ssa.reader().Members()[0].Levels[0]
	last := len(idx.Batches) - 1
	lo, _ := idx.BatchSpan(last)
	if bx, _, _ := idx.Mask.Dim.Coords(idx.Mask.OccupiedIndices()[lo]); bx < 14 {
		t.Fatalf("the last frame starts in x-plane %d, before the last slab (planes 14 and 15)", bx)
	}
	sfr.SetPlan(faultio.FlipByte(frameMidpoint(t, ssa.reader(), 0, 0, last), 0x20))
	wantCorrupt(ss.Handler(), "/v1/a/test/snap/0/level/0")

	clean, err := archive.Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := clean.Extract(1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ds.Write(&want); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, h, "/v1/a/test/snap/1/amr"); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("healthy member: status %d, stream differs from a clean extraction", rec.Code)
	}
}

// TestWireHead: a HEAD answers from the index alone — the GET's status,
// X-Tac-* headers and Content-Length, no frame read and no cache traffic
// on a cold server — and a quarantined member still answers its 502.
func TestWireHead(t *testing.T) {
	blob := chaosArchiveBytes(t)
	s, fr, _ := flakyServer(t, blob, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := rawClient()
	paths := []string{"/v1/a/test/snap/0/level/0", "/v1/a/test/snap/0/level/1?roi=1:9,0:40,3:5", "/v1/a/test/snap/0/amr"}
	before, reads := s.Cache().Stats(), fr.Calls()
	heads := make([]*http.Response, len(paths))
	for i, p := range paths {
		for _, gz := range []bool{false, true} {
			resp, body, err := fetch(t, c, "HEAD", ts.URL+p, gz)
			if err != nil || resp.StatusCode != http.StatusOK || len(body) != 0 {
				t.Fatalf("HEAD %s: status %d, %d body bytes, err %v", p, resp.StatusCode, len(body), err)
			}
			if gz {
				if resp.Header.Get("Content-Encoding") != "gzip" || resp.Header.Get("Content-Length") != "" {
					t.Fatalf("HEAD %s (gzip): Content-Encoding %q, Content-Length %q", p, resp.Header.Get("Content-Encoding"), resp.Header.Get("Content-Length"))
				}
			} else {
				heads[i] = resp
			}
		}
	}
	if after := s.Cache().Stats(); after != before {
		t.Fatalf("HEAD moved the cache: %+v -> %+v", before, after)
	}
	if n := fr.Calls() - reads; n != 0 {
		t.Fatalf("HEAD read the archive %d times", n)
	}
	for i, p := range paths {
		resp, body, err := fetch(t, c, "GET", ts.URL+p, false)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", p, resp.StatusCode, err)
		}
		if heads[i].ContentLength != int64(len(body)) {
			t.Fatalf("HEAD %s: Content-Length %d, GET body is %d bytes", p, heads[i].ContentLength, len(body))
		}
		for _, k := range []string{"Content-Type", "Vary", "X-Tac-Elem", "X-Tac-Dims", "X-Tac-Region", "X-Tac-Unit-Block"} {
			if heads[i].Header.Get(k) != resp.Header.Get(k) {
				t.Fatalf("HEAD %s: %s %q, GET says %q", p, k, heads[i].Header.Get(k), resp.Header.Get(k))
			}
		}
	}
	for _, bad := range []string{"/v1/a/test/snap/0/level/7", "/v1/a/test/snap/9/amr", "/v1/a/test/snap/0/level/0?roi=90:99,0:1,0:1"} {
		head, _, _ := fetch(t, c, "HEAD", ts.URL+bad, false)
		got, _, _ := fetch(t, c, "GET", ts.URL+bad, false)
		if head.StatusCode != got.StatusCode || head.StatusCode < 400 {
			t.Fatalf("HEAD %s: status %d, GET %d", bad, head.StatusCode, got.StatusCode)
		}
	}
	sa, err := s.lookup("test")
	if err != nil {
		t.Fatal(err)
	}
	sa.quarantine(0, "test")
	for _, p := range paths {
		if resp, _, _ := fetch(t, c, "HEAD", ts.URL+p, false); resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("HEAD %s of a quarantined member: status %d, want 502", p, resp.StatusCode)
		}
	}
	if resp, _, _ := fetch(t, c, "HEAD", ts.URL+"/v1/a/test/snap/1/amr", false); resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD of the healthy member: status %d", resp.StatusCode)
	}
}
