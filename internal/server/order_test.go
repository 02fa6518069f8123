package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/grid"
)

// orderEB is the absolute bound the order test codes at: every stored cell
// holds its block's id, an integer, so a served cell names its block.
const orderEB = 0.25

// orderDataset is a two-level dataset over random masks: level 0 of
// (2a, 2b, 2c) unit blocks of ub³ cells at density d0, level 1 of
// (a, b, c) at density d1, refinement ratio 2. Every cell of an occupied
// block holds blockID of the block, every other cell 0. (The archive
// package's TestOneBlockOrder builds its datasets the same way.)
func orderDataset(rng *rand.Rand, ub int, d0, d1 float64) *amr.Dataset {
	a, b, c := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
	ds := &amr.Dataset{Name: "order", Field: "id", Ratio: 2}
	for li, d := range []float64{d0, d1} {
		s := 2 >> li
		l := amr.NewLevel(grid.Dims{X: s * a * ub, Y: s * b * ub, Z: s * c * ub}, ub)
		md := l.Mask.Dim
		for i := range md.Count() {
			if rng.Float64() < d {
				l.Mask.SetIndex(i, true)
				l.Grid.FillRegion(l.BlockRegion(md.Coords(i)), blockID(i))
			}
		}
		ds.Levels = append(ds.Levels, l)
	}
	return ds
}

// blockID is the value every cell of the block at ordinal ord holds.
func blockID(ord int) amr.Value { return amr.Value(ord + 1) }

// checkWindow fails unless vals, dense over roi of a level of unit block
// ub and occupancy mask, hold blockID (to within orderEB) in every cell of
// an occupied block and 0 everywhere else.
func checkWindow(t *testing.T, what string, vals []amr.Value, roi grid.Region, mask *grid.Mask, ub int) {
	t.Helper()
	d := roi.Dims()
	if len(vals) != d.Count() {
		t.Fatalf("%s: %d values for a %v window", what, len(vals), d)
	}
	for i, v := range vals {
		x, y, z := d.Coords(i)
		x, y, z = x+roi.X0, y+roi.Y0, z+roi.Z0
		ord := mask.Dim.Index(x/ub, y/ub, z/ub)
		if !mask.AtIndex(ord) {
			if v != 0 {
				t.Fatalf("%s: cell (%d,%d,%d) of an unstored block holds %g", what, x, y, z, v)
			}
		} else if math.Abs(float64(v-blockID(ord))) > orderEB {
			t.Fatalf("%s: cell (%d,%d,%d) holds %g, its block is %g", what, x, y, z, v, blockID(ord))
		}
	}
}

// TestServedBlockOrder is the serving layer's half of the archive
// package's TestOneBlockOrder: over random masks, empty and full levels
// included, at several unit blocks and batch sizes, the .amr route lays
// each level's blocks out in row-major mask order, x slowest and z
// fastest, and the level and ROI windows put every block where the mask
// says it is.
func TestServedBlockOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, d := range []float64{0, 0.15, 0.5, 0.85, 1} {
		for _, ub := range []int{1, 2, 4} {
			for _, bb := range []int{1, 5, 64} {
				t.Run(fmt.Sprintf("d%.2f/ub%d/bb%d", d, ub, bb), func(t *testing.T) {
					checkServedOrder(t, rng, orderDataset(rng, ub, d, 1-d), bb)
				})
			}
		}
	}
}

// checkServedOrder serves ds, archived at batchBlocks, and holds the .amr
// route, every level and one ROI of each, drawn by rng, to row-major order.
func checkServedOrder(t *testing.T, rng *rand.Rand, ds *amr.Dataset, batchBlocks int) {
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = batchBlocks
	if err := w.AddDataset(ds, codec.Config{ErrorBound: orderEB}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, buf.Bytes(), Config{Workers: 2})
	h := s.Handler()

	rec := get(t, h, "/v1/a/test/snap/0/amr")
	if rec.Code != http.StatusOK {
		t.Fatalf(".amr: status %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.Bytes()[amr.StreamHeaderLen(ds.Name, ds.Field):]
	for li, l := range ds.Levels {
		body = body[amr.LevelPrologueLen(l.Mask):]
		n := amr.LevelPayloadLen(l.Mask, l.UnitBlock)
		vals := floatsOf(t, body[:n])
		body = body[n:]
		per := l.UnitBlock * l.UnitBlock * l.UnitBlock
		k := 0
		md := l.Mask.Dim
		for x := range md.X {
			for y := range md.Y {
				for z := range md.Z {
					if ord := md.Index(x, y, z); l.Mask.AtIndex(ord) {
						for i, v := range vals[k*per : (k+1)*per] {
							if math.Abs(float64(v-blockID(ord))) > orderEB {
								t.Fatalf(".amr level %d block %d cell %d holds %g, its block is %g", li, k, i, v, blockID(ord))
							}
						}
						k++
					}
				}
			}
		}
	}

	for li, l := range ds.Levels {
		d := l.Grid.Dim
		rec := get(t, h, fmt.Sprintf("/v1/a/test/snap/0/level/%d", li))
		if rec.Code != http.StatusOK {
			t.Fatalf("level %d: status %d: %s", li, rec.Code, rec.Body.String())
		}
		checkWindow(t, fmt.Sprintf("level %d", li), floatsOf(t, rec.Body.Bytes()), grid.RegionOf(d), l.Mask, l.UnitBlock)

		x0, y0, z0 := rng.Intn(d.X), rng.Intn(d.Y), rng.Intn(d.Z)
		roi := grid.Region{X0: x0, Y0: y0, Z0: z0, X1: x0 + 1 + rng.Intn(d.X-x0), Y1: y0 + 1 + rng.Intn(d.Y-y0), Z1: z0 + 1 + rng.Intn(d.Z-z0)}
		url := fmt.Sprintf("/v1/a/test/snap/0/level/%d?roi=%d:%d,%d:%d,%d:%d", li, roi.X0, roi.X1, roi.Y0, roi.Y1, roi.Z0, roi.Z1)
		if rec = get(t, h, url); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		checkWindow(t, url, floatsOf(t, rec.Body.Bytes()), roi, l.Mask, l.UnitBlock)
	}
}

// TestIngestSharesBlockOrder: a member both generations of an ingesting
// archive hold keeps one block order — the new generation's index hands
// out the very slice the old one computed — so a commit computes no order
// again for the members it did not add.
func TestIngestSharesBlockOrder(t *testing.T) {
	s, _ := newAppendServer(t, Config{})
	defer s.Close()
	sa, err := s.lookup("live")
	if err != nil {
		t.Fatal(err)
	}
	before := sa.view()
	old := before.r.Members()[0].Levels[0].Ords()
	if len(old) == 0 {
		t.Fatal("member 0 level 0 has no occupied block; test is vacuous")
	}
	_, body := ingestSnap(t, "grown", 5)
	if rec := post(t, s.Handler(), "/v1/a/live/ingest", body); rec.Code != http.StatusCreated {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	after := sa.view()
	if after == before {
		t.Fatal("the ingest commit published no new generation")
	}
	if got := after.r.Members()[0].Levels[0].Ords(); unsafe.SliceData(got) != unsafe.SliceData(old) || len(got) != len(old) {
		t.Fatal("the new generation's index computed member 0's block order again")
	}
}

// TestAddComputesNoBlockOrder: registering an archive computes no level's
// block order, which costs 8 bytes per occupied block and is paid only
// when a request reads the level. The archive's one level holds 2^18
// occupied blocks, so its order alone is 2 MiB, more than Add allocates
// in all.
func TestAddComputesNoBlockOrder(t *testing.T) {
	const n = 64 // 64³ unit blocks of one cell
	l := amr.NewLevel(grid.Dims{X: n, Y: n, Z: n}, 1)
	l.Mask.Fill(true)
	path := filepath.Join(t.TempDir(), "dense.taca")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := archive.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 1 << 12
	if err := w.AddDataset(&amr.Dataset{Name: "dense", Field: "f", Ratio: 2, Levels: []*amr.Level{l}}, codec.Config{ErrorBound: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	order := int64(unsafe.Sizeof(int(0))) * n * n * n
	s := New(Config{})
	defer s.Close()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := s.Add("dense", ArchiveSpec{Primary: path}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got := int64(m1.TotalAlloc - m0.TotalAlloc); got >= order {
		t.Fatalf("Add allocated %d bytes; the level's block order alone is %d", got, order)
	}
}
