package archive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/grid"
)

// orderEB is the absolute bound the order tests code at: every stored cell
// holds its block's id, an integer, so a decoded cell names its block.
const orderEB = 0.25

// orderDataset is a two-level dataset over random masks: level 0 of
// (2a, 2b, 2c) unit blocks of ub³ cells at density d0, level 1 of
// (a, b, c) at density d1, refinement ratio 2. Every cell of an occupied
// block holds blockID of the block, every other cell 0.
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

// rowMajor is the block order written out: the set bits of m, x slowest
// and z fastest.
func rowMajor(m *grid.Mask) []int {
	var ords []int
	for x := range m.Dim.X {
		for y := range m.Dim.Y {
			for z := range m.Dim.Z {
				if m.At(x, y, z) {
					ords = append(ords, m.Dim.Index(x, y, z))
				}
			}
		}
	}
	return ords
}

// checkBlock fails unless every one of cells holds id to within tol.
func checkBlock(t *testing.T, what string, cells []amr.Value, id amr.Value, tol float64) {
	t.Helper()
	for i, v := range cells {
		if math.Abs(float64(v-id)) > tol {
			t.Fatalf("%s: cell %d holds %g, its block is %g", what, i, v, id)
		}
	}
}

// checkPlaced fails unless g, a level grid of unit block ub, holds
// blockID (to within tol) in every cell of a block want marks and 0
// everywhere else.
func checkPlaced(t *testing.T, what string, g *grid.Grid3[amr.Value], want *grid.Mask, ub int, tol float64) {
	t.Helper()
	for i, v := range g.Data {
		x, y, z := g.Dim.Coords(i)
		ord := want.Dim.Index(x/ub, y/ub, z/ub)
		if !want.AtIndex(ord) {
			if v != 0 {
				t.Fatalf("%s: cell (%d,%d,%d) of an unextracted block holds %g", what, x, y, z, v)
			}
		} else if math.Abs(float64(v-blockID(ord))) > tol {
			t.Fatalf("%s: cell (%d,%d,%d) holds %g, its block is %g", what, x, y, z, v, blockID(ord))
		}
	}
}

// TestOneBlockOrder holds every archive-side site that lays a level's
// occupied blocks out to one order, row-major over the mask, written out
// here as rowMajor: the index's Ords, the writer's frames (DecodeBatch
// against the source blocks), the Reader's placement in Extract,
// ExtractLevel and ExtractRegion, and the .amr stream's payload
// (Dataset.Write) and its reader (ReadFrom). Masks are random, empty and
// full levels included, over several unit blocks and batch sizes. The
// serving layer's half is TestServedBlockOrder.
func TestOneBlockOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, d := range []float64{0, 0.15, 0.5, 0.85, 1} {
		for _, ub := range []int{1, 2, 4} {
			for _, bb := range []int{1, 5, 64} {
				t.Run(fmt.Sprintf("d%.2f/ub%d/bb%d", d, ub, bb), func(t *testing.T) {
					checkOneOrder(t, rng, orderDataset(rng, ub, d, 1-d), bb)
				})
			}
		}
	}
}

// checkOneOrder archives ds at batchBlocks and holds every site to
// rowMajor, extracting a region rng draws.
func checkOneOrder(t *testing.T, rng *rand.Rand, ds *amr.Dataset, batchBlocks int) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = batchBlocks
	if err := w.AddDataset(ds, codec.Config{ErrorBound: orderEB, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	r.Workers = 2
	m := &r.Members()[0]
	whole, err := r.Extract(0)
	if err != nil {
		t.Fatal(err)
	}
	f := ds.FinestDims()
	x0, y0, z0 := rng.Intn(f.X), rng.Intn(f.Y), rng.Intn(f.Z)
	roi := grid.Region{X0: x0, Y0: y0, Z0: z0, X1: x0 + 1 + rng.Intn(f.X-x0), Y1: y0 + 1 + rng.Intn(f.Y-y0), Z1: z0 + 1 + rng.Intn(f.Z-z0)}
	part, err := r.ExtractRegion(0, roi)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range ds.Levels {
		idx := &m.Levels[li]
		order := rowMajor(l.Mask)
		if !slices.Equal(idx.Ords(), order) {
			t.Fatalf("level %d: Ords %v, row-major order %v", li, idx.Ords(), order)
		}
		for b := range idx.Batches {
			blocks, err := r.DecodeBatch(0, li, b)
			if err != nil {
				t.Fatal(err)
			}
			lo, _ := idx.BatchSpan(b)
			for k, blk := range blocks {
				checkBlock(t, fmt.Sprintf("level %d frame %d block %d", li, b, k), blk.Data, blockID(order[lo+k]), orderEB)
			}
		}
		one, err := r.ExtractLevel(0, li)
		if err != nil {
			t.Fatal(err)
		}
		for what, got := range map[string]*amr.Level{"Extract": whole.Levels[li], "ExtractLevel": one} {
			if !got.Mask.Equal(l.Mask) {
				t.Fatalf("%s level %d: mask differs from the source's", what, li)
			}
			checkPlaced(t, fmt.Sprintf("%s level %d", what, li), got.Grid, l.Mask, l.UnitBlock, orderEB)
		}
		want := grid.NewMask(l.Mask.Dim)
		want.FillRegion(roi.Blocks(ds.LevelScale(li)*l.UnitBlock).Intersect(want.Dim), true)
		want.And(l.Mask)
		if !part.Levels[li].Mask.Equal(want) {
			t.Fatalf("ExtractRegion %v level %d: mask differs from the blocks the region touches", roi, li)
		}
		checkPlaced(t, fmt.Sprintf("ExtractRegion %v level %d", roi, li), part.Levels[li].Grid, want, l.UnitBlock, orderEB)
	}

	// The .amr stream: each level's payload is its blocks in row-major
	// order, and ReadFrom puts every block back where it was.
	var stream bytes.Buffer
	if err := ds.Write(&stream); err != nil {
		t.Fatal(err)
	}
	b := stream.Bytes()[amr.StreamHeaderLen(ds.Name, ds.Field):]
	for li, l := range ds.Levels {
		b = b[amr.LevelPrologueLen(l.Mask):]
		per := l.UnitBlock * l.UnitBlock * l.UnitBlock
		for k, ord := range rowMajor(l.Mask) {
			cells := make([]amr.Value, per)
			for i := range cells {
				cells[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[amr.ValueBytes*(k*per+i):]))
			}
			checkBlock(t, fmt.Sprintf("Write level %d block %d", li, k), cells, blockID(ord), 0)
		}
		b = b[amr.LevelPayloadLen(l.Mask, l.UnitBlock):]
	}
	back, err := amr.ReadFrom(&stream)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range ds.Levels {
		if !back.Levels[li].Mask.Equal(l.Mask) {
			t.Fatalf("ReadFrom level %d: mask differs", li)
		}
		checkPlaced(t, fmt.Sprintf("ReadFrom level %d", li), back.Levels[li].Grid, l.Mask, l.UnitBlock, 0)
	}
}
