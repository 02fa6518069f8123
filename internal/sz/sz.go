// Package sz implements a prediction-based error-bounded lossy compressor
// for floating-point scientific data, modeled on SZ (Di & Cappello 2016;
// Tao et al. 2017), the compressor the TAC paper builds on.
//
// The pipeline follows the three steps the paper describes in Sec. 2.1:
//
//  1. predict each value from its already-reconstructed neighbors using a
//     Lorenzo predictor (order-1 in 1D, the 7-neighbor cube corner stencil
//     in 3D);
//  2. quantize the prediction residual into 2^QuantBits linear bins scaled
//     by the error bound, reconstructing on the fly so the decompressor
//     sees exactly the same neighborhood; values whose quantized
//     reconstruction would violate the bound are stored as exact literals;
//  3. entropy-code the quantization bins with canonical Huffman and pass
//     the result (and the literal pool) through DEFLATE.
//
// The absolute reconstruction error of every value is guaranteed to be at
// most the (effective) error bound; literals are exact.
package sz

import (
	"fmt"
	"math"

	"repro/internal/bitio"
	"repro/internal/grid"
	"repro/internal/huffman"
)

// Mode selects how codec.Config.ErrorBound is interpreted; sz itself
// codes to an absolute bound.
type Mode uint8

const (
	// Abs interprets ErrorBound as a point-wise absolute error bound.
	Abs Mode = iota
	// Rel interprets ErrorBound as a point-wise value-range-relative error
	// bound: the absolute bound is ErrorBound × (max−min).
	Rel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Abs:
		return "abs"
	case Rel:
		return "rel"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Options configures a compression run.
type Options struct {
	// ErrorBound is the point-wise absolute error bound; must be > 0. A
	// value-range-relative bound is resolved to one by codec.Config.
	ErrorBound float64
	// QuantBits sets the quantization code width, in [2,16]; the bin
	// radius is 2^(QuantBits-1). Default 16, matching SZ's default 65536
	// bins, and the most the Huffman encoder's alphabet holds. Payloads
	// coded at up to 30 bits still decode.
	QuantBits int
	// DisableLossless skips the DEFLATE stage (useful for isolating the
	// prediction/quantization behaviour in tests and ablations).
	DisableLossless bool
}

func (o Options) withDefaults() Options {
	if o.QuantBits == 0 {
		o.QuantBits = 16
	}
	return o
}

func (o Options) validate() error {
	if !(o.ErrorBound > 0) {
		return fmt.Errorf("sz: error bound must be positive, got %v", o.ErrorBound)
	}
	if o.QuantBits < 2 || o.QuantBits > huffman.AlphabetBits {
		return fmt.Errorf("sz: QuantBits must be in [2,%d], got %d", huffman.AlphabetBits, o.QuantBits)
	}
	return nil
}

// Stats reports per-stream compression details.
type Stats struct {
	N             int // number of values
	Literals      int // values stored exactly (unpredictable)
	CompressedLen int // total payload bytes
	ElemBytes     int // uncompressed width of one element (4 or 8)
}

// Payload kinds. All four are block batches coded by the same Lorenzo
// kernels; they differ in the dim records their header carries
// (headerDims) and in the decoders that accept them.
const (
	magic      = 0x535a4752 // "SZGR"
	version    = 1
	kindRaw1D  = 1
	kindGrid3D = 2
	kindBatch  = 3
	// kindBatchDelta is a block batch whose residuals are taken against
	// the reconstructed values of a reference batch of identical shape
	// (temporal prediction). The payload layout is exactly kindBatch's;
	// only the predictor differs, so a delta stream is undecodable
	// without its reference — DecompressBlocksDelta demands it.
	kindBatchDelta = 4
)

// Compress1D compresses values as a 1D stream with an order-1 predictor
// (each value predicted by its reconstructed predecessor): the 3D Lorenzo
// predictor on one 1×1×n block. This is the compressor the 1D baseline and
// zMesh use.
func Compress1D[T grid.Float](values []T, opts Options) ([]byte, Stats, error) {
	var e Encoder[T]
	return e.Compress1D(values, opts)
}

// Decompress1D inverts Compress1D.
func Decompress1D[T grid.Float](blob []byte) ([]T, error) {
	var d Decoder[T]
	return d.Decompress1D(blob)
}

// Compress3D compresses a dense 3D grid with the 3D Lorenzo predictor, as
// a batch of one block.
func Compress3D[T grid.Float](g *grid.Grid3[T], opts Options) ([]byte, Stats, error) {
	var e Encoder[T]
	return e.Compress3D(g, opts)
}

// Decompress3D inverts Compress3D.
func Decompress3D[T grid.Float](blob []byte) (*grid.Grid3[T], error) {
	var d Decoder[T]
	return d.Decompress3D(blob)
}

// CompressBlocks compresses a batch of equally-shaped 3D blocks as one
// stream: each block is Lorenzo-predicted independently (no cross-block
// leakage), but all blocks share a single quantization-code stream and
// Huffman codebook. This is how TAC compresses the "4D arrays" that OpST
// and AKDTree produce (Sec. 3.1: sub-blocks of the same size are merged
// into the same array for easy compression).
func CompressBlocks[T grid.Float](blocks []*grid.Grid3[T], opts Options) ([]byte, Stats, error) {
	var e Encoder[T]
	return e.CompressBlocks(blocks, opts)
}

// header is the decoded payload header.
type header struct {
	kind      int
	n         int
	eb        float64
	quantBits int
	lossless  bool
	dims      []grid.Dims
}

// parseHeader decodes the payload header and returns it plus the remaining
// bytes (the code and literal sections).
func parseHeader(blob []byte) (header, []byte, error) {
	var h header
	r := bitio.NewReader(blob)
	if r.Uvarint(math.MaxUint64) != magic || r.Err() != nil {
		return h, nil, fmt.Errorf("sz: bad magic")
	}
	if r.Uvarint(math.MaxUint64) != version || r.Err() != nil {
		return h, nil, fmt.Errorf("sz: unsupported version")
	}
	h.kind = int(r.Uvarint(math.MaxInt))
	h.n = int(r.Uvarint(1 << 40))
	h.eb = math.Float64frombits(r.Uvarint(math.MaxUint64))
	h.quantBits = int(r.Uvarint(30))
	h.lossless = r.Uvarint(math.MaxUint64) == 1
	for range r.Uvarint(8) {
		// Dim records also carry the batch block count, so an extent's
		// bound is the value count's; geometry's CheckedCount guards the
		// products.
		h.dims = append(h.dims, grid.Dims{X: int(r.Uvarint(1 << 40)), Y: int(r.Uvarint(1 << 40)), Z: int(r.Uvarint(1 << 40))})
	}
	if err := r.Err(); err != nil {
		return h, nil, fmt.Errorf("sz: header: %w", err)
	}
	if h.quantBits < 2 {
		return h, nil, fmt.Errorf("sz: corrupt quantBits %d", h.quantBits)
	}
	return h, r.Rest(), nil
}

// headerDims returns the dim records a payload of kind writes for count
// blocks of shape d: none for a 1D stream (one 1×1×n block), the grid's
// dims for a 3D grid (one block), and for a batch the block shape and a
// record whose X is the block count.
func headerDims(kind int, d grid.Dims, count int) []grid.Dims {
	switch kind {
	case kindRaw1D:
		return nil
	case kindGrid3D:
		return []grid.Dims{d}
	}
	return []grid.Dims{d, {X: count}}
}

// geometry validates the header's dim records against its kind and value
// count — headerDims' rule, read back — and returns the block shape and
// block count.
func (h header) geometry() (grid.Dims, int, error) {
	switch {
	case h.kind == kindRaw1D && len(h.dims) == 0:
		return grid.Dims{X: 1, Y: 1, Z: h.n}, 1, nil
	case h.kind == kindGrid3D && len(h.dims) == 1:
		if n, ok := h.dims[0].CheckedCount(min(1<<40, math.MaxInt)); ok && n == h.n {
			return h.dims[0], 1, nil
		}
	case (h.kind == kindBatch || h.kind == kindBatchDelta) && len(h.dims) == 2:
		d, count := h.dims[0], h.dims[1].X
		per, ok := d.CheckedCount(min(1<<40, math.MaxInt))
		// Divide instead of multiplying so corrupt counts cannot overflow.
		if ok && count > 0 && per > 0 && h.n%per == 0 && h.n/per == count {
			return d, count, nil
		}
	default:
		return grid.Dims{}, 0, fmt.Errorf("sz: payload kind %d with %d dim records", h.kind, len(h.dims))
	}
	return grid.Dims{}, 0, fmt.Errorf("sz: dim records %v do not cover %d values", h.dims, h.n)
}

// BatchInfo describes a block-batch payload without decoding its streams.
type BatchInfo struct {
	BlockDims   grid.Dims // shape of every block in the batch
	Blocks      int       // number of blocks
	EffectiveEB float64   // absolute error bound baked into the stream
	QuantBits   int
	// Delta reports a temporally-predicted batch (kindBatchDelta): the
	// stream only decodes against the reconstructed reference batch it
	// was encoded from.
	Delta bool
	// CodeStored reports that the code section opens with a DEFLATE stored
	// block: the writer found nothing in the Huffman output for DEFLATE to
	// remove and copied it in as it was.
	CodeStored bool
}

// DecodedBytes returns the in-memory footprint of the batch once decoded
// at elemBytes per cell. Cache admission and byte budgeting (the serving
// layer's block-batch LRU) use it to cost a frame before or without
// decoding it.
func (bi BatchInfo) DecodedBytes(elemBytes int) int64 {
	return int64(bi.Blocks) * int64(bi.BlockDims.Count()) * int64(elemBytes)
}

// PeekBatch parses only the header of a CompressBlocks or
// CompressBlocksDelta payload, letting callers (the archive's scrub,
// listings) validate geometry, learn the coding mode, or report the
// applied bound without paying for entropy decoding.
func PeekBatch(blob []byte) (BatchInfo, error) {
	h, rest, err := parseHeader(blob)
	if err != nil {
		return BatchInfo{}, err
	}
	if h.kind != kindBatch && h.kind != kindBatchDelta {
		return BatchInfo{}, fmt.Errorf("sz: payload kind %d, want %d or %d", h.kind, kindBatch, kindBatchDelta)
	}
	d, count, err := h.geometry()
	if err != nil {
		return BatchInfo{}, err
	}
	// One byte past the code section's length prefix: BTYPE is bits 1–2 of a
	// DEFLATE stream's first byte.
	n, k, err := bitio.Uvarint(rest)
	stored := h.lossless && err == nil && n > 0 && k < len(rest) && rest[k]&6 == 0
	return BatchInfo{BlockDims: d, Blocks: count, EffectiveEB: h.eb, QuantBits: h.quantBits, Delta: h.kind == kindBatchDelta, CodeStored: stored}, nil
}
