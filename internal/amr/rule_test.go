package amr

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/grid"
)

// TestCheckLevel walks the level rule's every limit from both sides. The
// 2^31 limits are math.MaxInt on a 32-bit int.
func TestCheckLevel(t *testing.T) {
	for _, c := range []struct {
		d  grid.Dims
		ub int
		ok bool
	}{
		{grid.Dims{X: 1, Y: 1, Z: 1}, 1, true},
		{grid.Dims{X: 8, Y: 8, Z: 8}, 8, true},
		{grid.Dims{X: 0, Y: 8, Z: 8}, 1, false},
		{grid.Dims{X: -8, Y: -8, Z: 8}, 1, false},
		{grid.Dims{X: 1710501719, Y: 1321312202, Z: 238597711}, 1, false}, // wraps a 64-bit int to 771,130 cells
		{grid.Dims{X: 1 << 20, Y: 1 << 9, Z: 4}, 4, bits.UintSize == 64},  // 2^31 cells, 2^25 unit blocks
		{grid.Dims{X: 1 << 20, Y: 1 << 8, Z: 4}, 4, true},                 // 2^30 cells
		{grid.Dims{X: 1 << 20, Y: 1 << 9, Z: 8}, 4, false},                // 2^32 cells
		{grid.Dims{X: 1 << 20, Y: 1, Z: 1}, 1, true},
		{grid.Dims{X: 1 << 21, Y: 1, Z: 1}, 1, false}, // an extent past 2^20
		{grid.Dims{X: 8, Y: 8, Z: 8}, 0, false},
		{grid.Dims{X: 8, Y: 8, Z: 8}, -1, false},
		{grid.Dims{X: 8, Y: 8, Z: 8}, 3, false},
		{grid.Dims{X: 8, Y: 8, Z: 8}, 16, false},
		{grid.Dims{X: 1024, Y: 1024, Z: 64}, 1, true},  // 2^26 unit blocks
		{grid.Dims{X: 1024, Y: 1024, Z: 65}, 1, false}, // 68,157,440 unit blocks
	} {
		if err := CheckLevel(c.d, c.ub); (err == nil) != c.ok {
			t.Errorf("CheckLevel(%v, %d) = %v, want ok %v", c.d, c.ub, err, c.ok)
		}
	}
}

// TestCheckHierarchy walks the hierarchy rule's limits from both sides.
func TestCheckHierarchy(t *testing.T) {
	for _, c := range []struct {
		ratio, levels int
		ok            bool
	}{
		{2, 1, true},
		{2, 0, false},
		{1, 1, false},
		{0, 3, false},
		{2, 31, true},                // 2^30
		{2, 32, bits.UintSize == 64}, // 2^31, past a 32-bit int
		{2, 33, false},
		{65536, 2, true},
		{65536, 3, false}, // 2^32
		{1 << (bits.UintSize / 2), 3, false},
		{math.MaxInt, 1, true},
	} {
		if err := CheckHierarchy(c.ratio, c.levels); (err == nil) != c.ok {
			t.Errorf("CheckHierarchy(%d, %d) = %v, want ok %v", c.ratio, c.levels, err, c.ok)
		}
	}
}

// TestWriteRefusesUnreadableLevel: a level of 2^21×1×1 cells, which
// ReadFrom refuses by its extent, fails Write before a byte is written.
func TestWriteRefusesUnreadableLevel(t *testing.T) {
	d := grid.Dims{X: 1 << 21, Y: 1, Z: 1}
	ds := &Dataset{Name: "wide", Field: "f", Ratio: 2, Levels: []*Level{
		{Grid: &grid.Grid3[Value]{Dim: d}, UnitBlock: 1, Mask: grid.NewMask(d)}}}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err == nil || buf.Len() != 0 {
		t.Fatalf("Write = %v after %d bytes, want a refusal before any", err, buf.Len())
	}
}

// fuzzCellCap bounds the level grids a FuzzReadFrom input may make
// ReadFrom allocate. It allocates a level's dense grid once the level's
// mask and values have arrived, and an empty mask is a few bytes for up to
// 2^31 cells, so an input past the cap is skipped rather than read.
const fuzzCellCap = 1 << 22

// gridCells walks the layout ReadFrom reads and returns, at most, the
// cells of the levels whose mask and values are all in b: the dense grids
// ReadFrom would allocate.
func gridCells(b []byte) int {
	u32 := func() uint64 {
		if len(b) < 4 {
			b = nil
			return 0
		}
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		return uint64(v)
	}
	skip := func(n uint64) bool {
		if n > uint64(len(b)) {
			return false
		}
		b = b[n:]
		return true
	}
	skip(8)     // magic and version
	skip(u32()) // name
	skip(u32()) // field
	skip(4)     // ratio
	total := 0
	for range min(u32(), 16) {
		d := grid.Dims{X: int(u32()), Y: int(u32()), Z: int(u32())}
		ub := int(u32())
		if CheckLevel(d, ub) != nil || !skip(uint64((&grid.Mask{Dim: d.Div(ub)}).PackedLen())) || !skip(4*u32()) {
			break
		}
		total += d.Count()
	}
	return total
}

// FuzzReadFrom throws bytes at the .amr stream reader, tacd's ingest body
// parser, seeded with a valid snapshot, the 42-byte body of
// TestReadFromAllocatesAsBytesArrive with and without its mask, the
// wrapping dims of TestReadFromRefusesWrappingDims, and the snapshot with
// each header and first-level word set to the values the corruption tests
// write there. Whatever it accepts passes the level rule at every level,
// and writes back as the same stream.
func FuzzReadFrom(f *testing.F) {
	valid := validSnapshot(f)
	f.Add(valid)
	head := AppendStreamHeader(nil, "a", "b", 2, 1)
	for _, v := range []uint32{512, 512, 256, 256} {
		head = binary.LittleEndian.AppendUint32(head, v)
	}
	f.Add(head)
	f.Add(binary.LittleEndian.AppendUint32(append(slices.Clone(head), 0x0f), 512*512*256))
	wrap := AppendStreamHeader(nil, "wrap", "f", 2, 1)
	for _, v := range []uint32{1710501719, 1321312202, 238597711, 1} {
		wrap = binary.LittleEndian.AppendUint32(wrap, v)
	}
	f.Add(wrap)
	levelOff := StreamHeaderLen("corrupt-test", "baryon_density")
	for _, off := range []int{4, 8, levelOff - 8, levelOff - 4, levelOff, levelOff + 12, levelOff + 16 + 64} {
		for _, v := range []uint32{0, 1, 3, 17, 1 << 20, 1 << 24, 1 << 28, 1 << 31} {
			bad := slices.Clone(valid)
			binary.LittleEndian.PutUint32(bad[off:], v)
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if gridCells(data) > fuzzCellCap {
			t.Skip("claims a level grid past the fuzzing cap")
		}
		ds, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		for li, l := range ds.Levels {
			if err := CheckLevel(l.Grid.Dim, l.UnitBlock); err != nil {
				t.Fatalf("level %d accepted: %v", li, err)
			}
			if l.Mask.Dim != l.Grid.Dim.Div(l.UnitBlock) {
				t.Fatalf("level %d mask dims %v for level dims %v / %d", li, l.Mask.Dim, l.Grid.Dim, l.UnitBlock)
			}
		}
		var once, twice bytes.Buffer
		if err := ds.Write(&once); err != nil {
			t.Fatalf("Write of an accepted dataset: %v", err)
		}
		back, err := ReadFrom(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("ReadFrom of what Write wrote: %v", err)
		}
		if err := back.Write(&twice); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("written stream does not read back equal (%v)", err)
		}
	})
}
