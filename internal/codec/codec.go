// Package codec defines the common interface all AMR compressors in this
// repository implement — TAC and the paper's three baselines — plus the
// shared container format that carries the dataset skeleton (level
// geometry and occupancy masks) alongside codec-specific payloads.
//
// Because every strategy's extraction is a pure function of the occupancy
// mask, storing the (deflated, bit-packed) masks in the container is all
// the metadata any codec needs; coordinates of sub-blocks are never
// serialized. The mask costs one bit per unit block, the "negligible
// (e.g., 0.1%) metadata overhead" of Sec. 3.1. A skeleton's level record
// (AppendLevel / MaskDecoder.ReadLevel) is the TACA footer's, held to
// amr.CheckLevel.
package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/amr"
	"repro/internal/grid"
	"repro/internal/inflate"
	"repro/internal/preprocess"
	"repro/internal/sz"

	"repro/internal/bitio"
)

// Strategy selects a per-level pre-process strategy for TAC.
type Strategy uint8

// The strategies of Sec. 3, plus Auto (density-based hybrid selection) and
// the diagnostic ZF/NaST/Classic variants used in ablations.
const (
	Auto Strategy = iota
	ZF
	NaST
	OpST
	AKD
	GSP
	ClassicKD // fixed-cycle k-d tree; ablation for AKD's adaptive split
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case ZF:
		return "ZF"
	case NaST:
		return "NaST"
	case OpST:
		return "OpST"
	case AKD:
		return "AKDTree"
	case GSP:
		return "GSP"
	case ClassicKD:
		return "ClassicKD"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Config carries the compression parameters shared by all codecs.
type Config struct {
	// ErrorBound with Mode selects the base error bound.
	ErrorBound float64
	// Mode is absolute or value-range-relative. Config is where a relative
	// bound becomes the absolute one sz codes to: per level (LevelEB,
	// RangeEB) or over one stream (ValuesEB).
	Mode sz.Mode
	// QuantBits forwards to sz.Options: in [2,16], 0 = default 16.
	QuantBits int
	// LevelScales optionally multiplies the error bound per level, fine to
	// coarse — the adaptive error bound of Sec. 4.5 (e.g. {3,1} for the
	// 3:1 power-spectrum tuning). nil or missing entries mean 1.
	LevelScales []float64
	// Strategy forces a pre-process strategy for every level; Auto applies
	// the density filter with thresholds T1/T2.
	Strategy Strategy
	// T1 and T2 are the density thresholds of Sec. 3.4 (0 = defaults 0.50
	// and 0.60).
	T1, T2 float64
	// AdaptiveBaseline enables the Sec. 4.4 outer switch: when the finest
	// level's density is at least T2, hand the whole dataset to the 3D
	// baseline instead of level-wise TAC.
	AdaptiveBaseline bool
	// GSP tunes ghost-shell padding.
	GSP preprocess.GSPOptions
	// Workers > 1 codes that many payload units at once — a dense level is
	// one unit, a sparse level one per shape group of its sub-blocks — or
	// that many of an archive member's frames; -1 uses all CPUs, ≤ 1 one at
	// a time (ResolveWorkers). Payloads are byte-identical at every value.
	Workers int
}

// ResolveWorkers maps the Workers convention (-1 all CPUs, ≤ 1 one) to
// a concrete goroutine count. core.TAC.Workers follows it too.
func ResolveWorkers(w int) int {
	switch {
	case w == -1:
		return runtime.GOMAXPROCS(0)
	case w > 1:
		return w
	default:
		return 1
	}
}

// WithDefaults fills in zero-valued thresholds.
func (c Config) WithDefaults() Config {
	if c.T1 == 0 {
		c.T1 = 0.50
	}
	if c.T2 == 0 {
		c.T2 = 0.60
	}
	return c
}

// LevelScale returns the error-bound multiplier for level li.
func (c Config) LevelScale(li int) float64 {
	if li < len(c.LevelScales) && c.LevelScales[li] > 0 {
		return c.LevelScales[li]
	}
	return 1
}

// LevelEB resolves the absolute error bound for one level, converting
// relative bounds against the range of the level's stored values.
func (c Config) LevelEB(li int, l *amr.Level) float64 {
	var r ValueRange
	if c.Mode == sz.Rel {
		r = BlockRange(l, l.Mask.OccupiedIndices())
	}
	return c.RangeEB(li, r)
}

// RangeEB is LevelEB for a level whose stored values span r; r is not
// read unless Mode is Rel.
func (c Config) RangeEB(li int, r ValueRange) float64 {
	eb := c.ErrorBound * c.LevelScale(li)
	if c.Mode == sz.Rel {
		lo, hi := r.bounds()
		if d := hi - lo; d > 0 {
			eb *= d
		}
	}
	return eb
}

// ValuesEB resolves the absolute error bound for one stream of values
// outside the level structure, such as a baseline's whole dataset: under
// Rel it is RangeEB over the stream's own range, and LevelScales do not
// apply.
func (c Config) ValuesEB(vals []amr.Value) float64 {
	var r ValueRange
	if c.Mode == sz.Rel {
		r.scan(vals)
	}
	c.LevelScales = nil
	return c.RangeEB(0, r)
}

// ValueRange is the value range of a run of stored cells as one scan in
// block order takes it: the first cell seeds lo and hi, and every later
// cell lowers lo or raises hi by plain comparison, so a NaN after the
// first cell is never taken and a NaN first cell leaves both NaN. A run
// scanned in pieces and merged in order gives that scan's bits exactly.
// The zero value is the empty run.
type ValueRange struct {
	first  float64 // the run's first cell
	lo, hi float64 // over the run's non-NaN cells, the first of equals kept
	cells  bool    // the run has a cell
	some   bool    // the run has a non-NaN cell
}

// BlockRange scans the cells of the occupied unit blocks of l whose
// ordinals are ords, in order, each block row by row.
func BlockRange(l *amr.Level, ords []int) ValueRange {
	var r ValueRange
	for _, ord := range ords {
		b := l.BlockRegion(l.Mask.Dim.Coords(ord))
		for x := b.X0; x < b.X1; x++ {
			for y := b.Y0; y < b.Y1; y++ {
				base := l.Grid.Dim.Index(x, y, b.Z0)
				r.scan(l.Grid.Data[base : base+b.Z1-b.Z0])
			}
		}
	}
	return r
}

// scan extends r by one row of cells.
func (r *ValueRange) scan(row []amr.Value) {
	if len(row) == 0 {
		return
	}
	if !r.cells {
		r.first, r.cells = float64(row[0]), true
	}
	if !r.some {
		// Seed on the first non-NaN cell: the loop below then never takes
		// a NaN, and meets the seed again without moving.
		i := 0
		for i < len(row) && row[i] != row[i] {
			i++
		}
		if i == len(row) {
			return
		}
		r.lo, r.hi, r.some = float64(row[i]), float64(row[i]), true
		row = row[i:]
	}
	lo, hi := r.lo, r.hi
	for _, v := range row {
		f := float64(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	r.lo, r.hi = lo, hi
}

// Merge returns the range of r's run followed by next's.
func (r ValueRange) Merge(next ValueRange) ValueRange {
	switch {
	case !r.cells:
		return next
	case !next.some:
		return r
	case !r.some:
		r.lo, r.hi, r.some = next.lo, next.hi, true
		return r
	}
	if next.lo < r.lo {
		r.lo = next.lo
	}
	if next.hi > r.hi {
		r.hi = next.hi
	}
	return r
}

// bounds returns the run's lo and hi: NaN and NaN when its first cell is
// NaN, 0 and 0 when it is empty.
func (r ValueRange) bounds() (lo, hi float64) {
	if r.first != r.first {
		return r.first, r.first
	}
	return r.lo, r.hi
}

// Codec compresses and decompresses whole AMR datasets.
type Codec interface {
	// Name identifies the codec in experiment output ("TAC", "1D",
	// "zMesh", "3D").
	Name() string
	// Compress produces a self-contained payload.
	Compress(ds *amr.Dataset, cfg Config) ([]byte, error)
	// Decompress reconstructs the dataset (values within error bound,
	// identical structure).
	Decompress(blob []byte) (*amr.Dataset, error)
}

const containerMagic = 0x54414343 // "TACC"

// maskDeflaters holds idle BestCompression writers: flate.NewWriter zeroes
// ≈650 KB of match tables, and an archive footer codes one mask per level
// of every member it indexes. Reset makes a pooled writer code exactly as
// a new one does.
var maskDeflaters sync.Pool

// EncodeMask serializes an occupancy mask as bit-packed bytes passed
// through DEFLATE — the representation both the in-memory container and
// the on-disk archive footer store (one bit per unit block before the
// lossless stage, the "negligible metadata overhead" of Sec. 3.1).
func EncodeMask(m *grid.Mask) ([]byte, error) {
	packed := m.AppendPacked(make([]byte, 0, m.PackedLen()))
	var buf bytes.Buffer
	fw, _ := maskDeflaters.Get().(*flate.Writer)
	if fw == nil {
		var err error
		if fw, err = flate.NewWriter(&buf, flate.BestCompression); err != nil {
			return nil, err
		}
	} else {
		fw.Reset(&buf)
	}
	if _, err := fw.Write(packed); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	maskDeflaters.Put(fw)
	return buf.Bytes(), nil
}

// maxInflate is the most DEFLATE can expand: a stored byte yields at most
// 1032 (a 258-byte match costs two bits at the least).
const maxInflate = 1032

// DecodeMask inverts EncodeMask, allocating a mask of the given dims. The
// dims are checked against what comp can inflate to before the mask is
// allocated, and the inflate is capped at the mask's own packed size, so a
// corrupt stream can neither size an allocation nor balloon past it.
func DecodeMask(d grid.Dims, comp []byte) (*grid.Mask, error) {
	var md MaskDecoder
	return md.Decode(d, comp)
}

// MaskDecoder decodes the masks of one skeleton or footer. One inflate
// decoder and one buffer serve them all, and a mask whose compressed
// bytes and dims repeat one already decoded is cloned, not inflated
// again: the two fields of a catalog snapshot share their masks, and the
// members of a campaign all share one set. The zero value is ready to
// use. The masks it returns must stay unchanged while it is in use.
type MaskDecoder struct {
	inf    inflate.Decoder
	packed []byte
	seen   map[string]*grid.Mask // by compressed bytes
}

// Decode is DecodeMask through md: each call returns a mask of its own.
func (md *MaskDecoder) Decode(d grid.Dims, comp []byte) (*grid.Mask, error) {
	if m := md.seen[string(comp)]; m != nil && m.Dim == d {
		return m.Clone(), nil
	}
	if packed := (d.Count() + 7) / 8; packed > maxInflate*len(comp) {
		return nil, fmt.Errorf("codec: %d mask bytes cannot inflate to the %d a %v mask packs into", len(comp), packed, d)
	}
	m := grid.NewMask(d)
	packed, err := md.inf.Append(slices.Grow(md.packed[:0], m.PackedLen()), comp, m.PackedLen())
	if err != nil {
		return nil, fmt.Errorf("codec: inflating mask: %w", err)
	}
	md.packed = packed
	if err := m.SetPacked(packed); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	if md.seen == nil {
		md.seen = make(map[string]*grid.Mask)
	}
	md.seen[string(comp)] = m
	return m, nil
}

// Skeleton is the structural part of a dataset: everything except values.
type Skeleton struct {
	Name   string
	Field  string
	Ratio  int
	Levels []LevelInfo
}

// LevelInfo is one level's geometry plus occupancy.
type LevelInfo struct {
	Dims      grid.Dims
	UnitBlock int
	Mask      *grid.Mask
}

// SkeletonOf extracts the skeleton from a dataset (masks are shared, not
// copied).
func SkeletonOf(ds *amr.Dataset) Skeleton {
	sk := Skeleton{Name: ds.Name, Field: ds.Field, Ratio: ds.Ratio}
	for _, l := range ds.Levels {
		sk.Levels = append(sk.Levels, LevelInfo{Dims: l.Grid.Dim, UnitBlock: l.UnitBlock, Mask: l.Mask})
	}
	return sk
}

// NewDataset materializes an empty dataset (zero grids, masks cloned) from
// the skeleton.
func (sk Skeleton) NewDataset() *amr.Dataset {
	ds := &amr.Dataset{Name: sk.Name, Field: sk.Field, Ratio: sk.Ratio}
	for _, li := range sk.Levels {
		l := amr.NewLevel(li.Dims, li.UnitBlock)
		l.Mask.CopyFrom(li.Mask)
		ds.Levels = append(ds.Levels, l)
	}
	return ds
}

// AppendLevel appends a level record — uvarint X, Y, Z and unit block,
// then the EncodeMask stream as a length-prefixed block — the record both
// the container's skeleton and the TACA footer carry per level. It checks
// nothing: writers run amr.CheckLevel first.
func AppendLevel(dst []byte, d grid.Dims, unitBlock int, m *grid.Mask) ([]byte, error) {
	for _, v := range [...]int{d.X, d.Y, d.Z, unitBlock} {
		dst = bitio.AppendUvarint(dst, uint64(v))
	}
	comp, err := EncodeMask(m)
	if err != nil {
		return nil, err
	}
	return bitio.AppendBytes(dst, comp), nil
}

// ReadLevel reads a level record off r, its mask through md. Its geometry
// passes amr.CheckLevel before the mask is inflated, so a corrupt record
// errors instead of sizing an allocation or reaching amr.NewLevel's panic
// (NewDataset).
func (md *MaskDecoder) ReadLevel(r *bitio.Reader) (li LevelInfo, err error) {
	li.Dims = grid.Dims{X: int(r.Uvarint(math.MaxInt)), Y: int(r.Uvarint(math.MaxInt)), Z: int(r.Uvarint(math.MaxInt))}
	li.UnitBlock = int(r.Uvarint(math.MaxInt))
	comp := r.Bytes()
	if err = r.Err(); err != nil {
		return li, err
	}
	if err = amr.CheckLevel(li.Dims, li.UnitBlock); err != nil {
		return li, err
	}
	li.Mask, err = md.Decode(li.Dims.Div(li.UnitBlock), comp)
	return li, err
}

// EncodeContainer assembles a payload: codec id, skeleton, then the
// codec-specific body. A level that breaks amr.CheckLevel, which
// DecodeContainer would refuse, fails it.
func EncodeContainer(codecID byte, sk Skeleton, body []byte) ([]byte, error) {
	var out []byte
	out = bitio.AppendUvarint(out, containerMagic)
	out = append(out, codecID)
	out = bitio.AppendBytes(out, []byte(sk.Name))
	out = bitio.AppendBytes(out, []byte(sk.Field))
	out = bitio.AppendUvarint(out, uint64(sk.Ratio))
	out = bitio.AppendUvarint(out, uint64(len(sk.Levels)))
	for i, li := range sk.Levels {
		err := amr.CheckLevel(li.Dims, li.UnitBlock)
		if err == nil {
			out, err = AppendLevel(out, li.Dims, li.UnitBlock, li.Mask)
		}
		if err != nil {
			return nil, fmt.Errorf("codec: level %d: %w", i, err)
		}
	}
	return append(out, body...), nil
}

// ContainerCodecID reads a payload's container magic and the id of the
// codec that wrote it, and returns the id and the bytes after it.
func ContainerCodecID(blob []byte) (byte, []byte, error) {
	r := bitio.NewReader(blob)
	if r.Uvarint(math.MaxUint64) != containerMagic || r.Err() != nil {
		return 0, nil, fmt.Errorf("codec: bad container magic")
	}
	rest := r.Rest()
	if len(rest) == 0 {
		return 0, nil, fmt.Errorf("codec: truncated container")
	}
	return rest[0], rest[1:], nil
}

// DecodeContainer parses a payload, verifying the codec id, and returns
// the skeleton and the codec-specific body.
func DecodeContainer(blob []byte, wantCodecID byte) (Skeleton, []byte, error) {
	var sk Skeleton
	id, blob, err := ContainerCodecID(blob)
	if err != nil {
		return sk, nil, err
	}
	if id != wantCodecID {
		return sk, nil, fmt.Errorf("codec: payload written by codec %d, not %d", id, wantCodecID)
	}
	r := bitio.NewReader(blob)
	sk.Name = string(r.Bytes())
	sk.Field = string(r.Bytes())
	sk.Ratio = int(r.Uvarint(math.MaxInt))
	nlev := r.Uvarint(64)
	if err := r.Err(); err != nil {
		return sk, nil, fmt.Errorf("codec: skeleton: %w", err)
	}
	if nlev == 0 {
		return sk, nil, fmt.Errorf("codec: implausible level count %d", nlev)
	}
	var md MaskDecoder
	for i := range int(nlev) {
		li, err := md.ReadLevel(r)
		if err != nil {
			return sk, nil, fmt.Errorf("codec: level %d: %w", i, err)
		}
		sk.Levels = append(sk.Levels, li)
	}
	blob = r.Rest()
	// Every codec spends at least one bit on each cell it stores before
	// DEFLATE (huffman.parseCodebook leans on the same fact), so a body
	// that cannot hold a level's stored cells is corrupt, and is refused
	// here, before any caller sizes a grid by the skeleton. Cells of
	// unoccupied blocks cost a sparse level nothing and are not counted:
	// Run2_T4 holds 500 cells of level grid for each one it stores.
	canCode := 8 * maxInflate * uint64(len(blob))
	for i, li := range sk.Levels {
		ub := uint64(li.UnitBlock)
		if stored := uint64(li.Mask.Count()) * ub * ub * ub; stored > canCode {
			return sk, nil, fmt.Errorf("codec: level %d stores %d cells, more than its %d-byte body can code", i, stored, len(blob))
		}
	}
	return sk, blob, nil
}
