package amr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/grid"
)

// File format for .amr snapshots written by `tacc gen` and consumed by
// cmd/tacc: a small header followed, per level, by the packed occupancy
// mask and the masked cell values (only occupied unit blocks are stored,
// which is exactly what an AMR plotfile stores).

const (
	fileMagic   = "AMRD"
	fileVersion = uint32(1)
)

// The stream has one writer: AppendStreamHeader, then per level
// AppendLevelPrologue followed by the level's payload — the cells of its
// occupied unit blocks in mask order (row-major over blocks, each block
// row-major over its cells), as PutValues or WireBytes lay them out.
// Dataset.Write gathers that payload out of dense level grids; a producer
// that already holds the blocks (tacd's block cache) puts them in place
// directly, at offsets the Len functions give before a block is touched.

// StreamHeaderLen is the encoded length of the stream header.
func StreamHeaderLen(name, field string) int {
	return len(fileMagic) + 4 + 4 + len(name) + 4 + len(field) + 4 + 4
}

// AppendStreamHeader appends the stream header: magic, version, the two
// names, the refinement ratio and the number of levels that follow.
func AppendStreamHeader(dst []byte, name, field string, ratio, levels int) []byte {
	dst = append(dst, fileMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, fileVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(field)))
	dst = append(dst, field...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ratio))
	return binary.LittleEndian.AppendUint32(dst, uint32(levels))
}

// LevelPrologueLen is the encoded length of what precedes a level's
// payload: dims, unit block, packed mask, value count.
func LevelPrologueLen(mask *grid.Mask) int { return 16 + mask.PackedLen() + 4 }

// LevelPayloadLen is the encoded length of a level's payload.
func LevelPayloadLen(mask *grid.Mask, unitBlock int) int {
	return ValueBytes * mask.Count() * unitBlock * unitBlock * unitBlock
}

// AppendLevelPrologue appends a level's dims, unit block, packed occupancy
// mask and the number of values its payload holds.
func AppendLevelPrologue(dst []byte, d grid.Dims, unitBlock int, mask *grid.Mask) []byte {
	for _, v := range [...]int{d.X, d.Y, d.Z, unitBlock} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	dst = mask.AppendPacked(dst)
	return binary.LittleEndian.AppendUint32(dst, uint32(LevelPayloadLen(mask, unitBlock)/ValueBytes))
}

// writeChunkCells is how many cells of payload Write gathers between two
// calls to the underlying writer (rounded to whole unit blocks).
const writeChunkCells = 1 << 18

// Write serializes the dataset.
func (ds *Dataset) Write(w io.Writer) error {
	buf := AppendStreamHeader(nil, ds.Name, ds.Field, ds.Ratio, len(ds.Levels))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	var cells []Value
	for _, l := range ds.Levels {
		buf = AppendLevelPrologue(buf[:0], l.Grid.Dim, l.UnitBlock, l.Mask)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		per := l.UnitBlock * l.UnitBlock * l.UnitBlock
		ords := l.Mask.OccupiedIndices()
		step := max(1, writeChunkCells/per)
		if need := per * min(step, len(ords)); cap(cells) < need {
			cells = make([]Value, need)
		}
		for len(ords) > 0 {
			n := min(step, len(ords))
			chunk := cells[:n*per]
			for k, ord := range ords[:n] {
				l.Grid.CopyRegionTo(l.BlockRegion(l.Mask.Dim.Coords(ord)), chunk[k*per:(k+1)*per])
			}
			if _, err := w.Write(WireBytes(chunk)); err != nil {
				return err
			}
			ords = ords[n:]
		}
	}
	return nil
}

// ReadFrom deserializes a dataset written by Write.
func ReadFrom(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("amr: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("amr: bad magic %q", magic)
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("amr: implausible string length %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	ver, err := readU32()
	if err != nil {
		return nil, err
	}
	if ver != fileVersion {
		return nil, fmt.Errorf("amr: unsupported file version %d", ver)
	}
	ds := &Dataset{}
	if ds.Name, err = readStr(); err != nil {
		return nil, err
	}
	if ds.Field, err = readStr(); err != nil {
		return nil, err
	}
	ratio, err := readU32()
	if err != nil {
		return nil, err
	}
	ds.Ratio = int(ratio)
	nlev, err := readU32()
	if err != nil {
		return nil, err
	}
	if nlev == 0 || nlev > 16 {
		return nil, fmt.Errorf("amr: implausible level count %d", nlev)
	}
	for li := uint32(0); li < nlev; li++ {
		var d grid.Dims
		var ub uint32
		for _, p := range []*int{&d.X, &d.Y, &d.Z} {
			v, err := readU32()
			if err != nil {
				return nil, err
			}
			*p = int(v)
		}
		if ub, err = readU32(); err != nil {
			return nil, err
		}
		if n, ok := d.CheckedCount(min(1<<31, math.MaxInt)); !ok || n == 0 {
			return nil, fmt.Errorf("amr: implausible level dims %v", d)
		}
		// Validate before the block arithmetic below, which needs ub to
		// divide the dims.
		if ub == 0 || d.X%int(ub) != 0 || d.Y%int(ub) != 0 || d.Z%int(ub) != 0 {
			return nil, fmt.Errorf("amr: level %d unit block %d does not divide dims %v", li, ub, d)
		}
		// Nothing is sized from the dims until the bytes they imply have
		// arrived: the mask grows as its bytes do, the values come in
		// bounded chunks, and the dense grid is allocated last.
		md := d.Div(int(ub))
		var packed bytes.Buffer
		if _, err := io.CopyN(&packed, br, int64((&grid.Mask{Dim: md}).PackedLen())); err != nil {
			return nil, fmt.Errorf("amr: reading level %d mask: %w", li, err)
		}
		l := &Level{UnitBlock: int(ub), Mask: grid.NewMask(md)}
		if err := l.Mask.SetPacked(packed.Bytes()); err != nil {
			return nil, fmt.Errorf("amr: level %d mask: %w", li, err)
		}
		nv, err := readU32()
		if err != nil {
			return nil, err
		}
		want := l.StoredCells()
		if int(nv) != want {
			return nil, fmt.Errorf("amr: level %d holds %d values, mask implies %d", li, nv, want)
		}
		chunks, err := readRows(br, want, l.UnitBlock)
		if err != nil {
			return nil, fmt.Errorf("amr: reading level %d values: %w", li, err)
		}
		l.Grid = grid.New[Value](d)
		l.setRows(chunks)
		ds.Levels = append(ds.Levels, l)
	}
	return ds, nil
}

// readChunkCells bounds each value buffer ReadFrom allocates ahead of the
// bytes that fill it, so a stream that claims a large level and then ends
// costs at most one chunk past what it sent.
const readChunkCells = 1 << 16

// readRows reads n values off r into chunks of whole rows of row cells,
// each at most readChunkCells values unless a single row is longer.
func readRows(r io.Reader, n, row int) ([][]Value, error) {
	step := max(1, readChunkCells/row) * row
	var chunks [][]Value
	for n > 0 {
		c := make([]Value, min(step, n))
		if err := readValues(r, c); err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
		n -= len(c)
	}
	return chunks, nil
}

// setRows is SetMaskedValues over a payload that readRows cut into whole
// rows of UnitBlock cells: it scatters the rows into the occupied unit
// blocks in mask order, each block row-major with z fastest.
func (l *Level) setRows(chunks [][]Value) {
	ub := l.UnitBlock
	var src []Value
	for _, ord := range l.Mask.OccupiedIndices() {
		r := l.BlockRegion(l.Mask.Dim.Coords(ord))
		for x := r.X0; x < r.X1; x++ {
			for y := r.Y0; y < r.Y1; y++ {
				if len(src) == 0 {
					src, chunks = chunks[0], chunks[1:]
				}
				i := l.Grid.Dim.Index(x, y, r.Z0)
				src = src[copy(l.Grid.Data[i:i+ub], src):]
			}
		}
	}
}

// Save writes the dataset to path.
func (ds *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ds.Write(f); err != nil {
		return fmt.Errorf("amr: writing %s: %w", path, err)
	}
	return f.Close()
}

// Load reads a dataset from path.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := ReadFrom(f)
	if err != nil {
		return nil, fmt.Errorf("amr: reading %s: %w", path, err)
	}
	return ds, nil
}
