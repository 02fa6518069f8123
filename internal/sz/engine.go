package sz

import (
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/bitio"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/inflate"
)

// The pooled engine. Every one-shot Compress*/Decompress* call allocates
// fresh code streams, reconstruction grids, Huffman tables and DEFLATE
// tables; on repeated-snapshot campaigns (the archive writer, the paper exhibits,
// services compressing a stream of members) that allocation dominates the
// small-block hot path. Encoder and Decoder keep all of that scratch alive
// across calls — a Decoder its own inflate tables — and the process-wide
// pool of DEFLATE writers is shared even by the one-shot entry points.
// Payloads are byte-identical to the one-shot functions in both directions.

// flateWriters pools DEFLATE writers (each ~600 KiB of window state, the
// single most expensive allocation of a Compress call).
var flateWriters = sync.Pool{
	New: func() any {
		fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // only fails for invalid levels
		}
		return fw
	},
}

// sliceWriter adapts an append-grown []byte to io.Writer for the pooled
// flate writers. A positive limit caps len(b): the write that would pass
// it fails with errOverLimit instead.
type sliceWriter struct {
	b     []byte
	limit int
}

var errOverLimit = errors.New("sz: section outgrew its limit")

func (w *sliceWriter) Write(p []byte) (int, error) {
	if w.limit > 0 && len(w.b)+len(p) > w.limit {
		return 0, errOverLimit
	}
	w.b = append(w.b, p...)
	return len(p), nil
}

// deflateAppend appends data to dst as a DEFLATE stream: the output of
// compress/flate at BestSpeed where that could come to less than the bytes
// themselves, and stored blocks written here (storeAppend) where
// worthDeflating says it could not — the same stream flate would have
// ended up writing, less its empty final block, without the match search,
// histogram and code construction it runs to find that out. Either way any
// inflater reads the section back. A positive limit makes it give up with
// errOverLimit once dst would pass limit bytes: a stored section has then
// cost nothing, and flate has matched and built the codes of the input
// block (64 KiB) it is in, but writes out no more of it, and never looks at
// the blocks after it.
func deflateAppend(dst, data []byte, limit int) ([]byte, error) {
	if !worthDeflating(data) {
		return storeAppend(dst, data, limit)
	}
	fw := flateWriters.Get().(*flate.Writer)
	defer func() {
		// Detach the destination before pooling, so an idle writer does not
		// pin the caller's staging buffer for the process lifetime.
		fw.Reset(io.Discard)
		flateWriters.Put(fw)
	}()
	sw := sliceWriter{b: dst, limit: limit}
	fw.Reset(&sw)
	if _, err := fw.Write(data); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return sw.b, nil
}

// DEFLATE's own numbers, as compress/flate holds them: a stored block
// carries at most maxStored bytes, which is also the unit in which its
// BestSpeed level takes input; a match reaches back at most flateWindow
// bytes; and a coded block has to undercut the stored one by a sixteenth of
// itself to be written (writeBlockHuff), as matching has to remove a
// sixteenth of a block's bytes for its tokens to be used (encSpeed).
const (
	maxStored   = 65535
	flateWindow = 32768
	flateMargin = 4 // the sixteenth, as a shift

	probeBits = 12 // the repeat probe's hash table: 4 Ki entries of 2 bytes
)

// worthDeflating reports whether flate could write any block of data other
// than stored: whether, in some maxStored-byte block, a byte-wise Huffman
// code or back-references have something to work with.
func worthDeflating(data []byte) bool {
	for len(data) > 16 { // flate stores a block of up to 16 bytes unseen
		blk := data[:min(len(data), maxStored)]
		data = data[len(blk):]
		if huffmanPays(blk) || repeatsCover(blk) {
			return true
		}
	}
	return false
}

// huffmanPays reports whether the order-0 entropy of blk's bytes leaves a
// Huffman code room to pay for itself. No prefix code is shorter than the
// entropy, so the size tested here is a floor under the one flate tests in
// writeBlockHuff, with the same margin: a block this refuses, that stores.
func huffmanPays(blk []byte) bool {
	var hist [4][256]uint32 // four tables: a run of one value does not queue on one counter
	i := 0
	for ; i+8 <= len(blk); i += 8 {
		v := binary.LittleEndian.Uint64(blk[i:])
		hist[0][byte(v)]++
		hist[1][byte(v>>8)]++
		hist[2][byte(v>>16)]++
		hist[3][byte(v>>24)]++
		hist[0][byte(v>>32)]++
		hist[1][byte(v>>40)]++
		hist[2][byte(v>>48)]++
		hist[3][byte(v>>56)]++
	}
	for ; i < len(blk); i++ {
		hist[0][blk[i]]++
	}
	// Σ c·log2(n/c) = n·log2 n − Σ c·log2 c. The conversions keep the
	// products from fusing into the sums, so every platform rounds alike.
	n := float64(len(blk))
	bits := float64(n * math.Log2(n))
	for b := range hist[0] {
		if c := float64(hist[0][b] + hist[1][b] + hist[2][b] + hist[3][b]); c > 0 {
			bits -= float64(c * math.Log2(c))
		}
	}
	size, stored := int(bits), (len(blk)+5)*8
	return stored >= size+size>>flateMargin
}

// repeatsCover reports whether back-references cover at least a sixteenth
// of blk, searched for the way flate's BestSpeed level (and snappy before
// it) searches: one candidate per 4-byte hash, a step that lengthens for as
// long as nothing matches. flate's own search has a table four times this
// one and the block before still in it, and uses a block's match tokens
// only if they remove a sixteenth of its bytes: a block refused here is one
// it would go on to code by Huffman alone, which huffmanPays answers for.
func repeatsCover(blk []byte) bool {
	var table [1 << probeBits]uint16
	need := len(blk) >> flateMargin
	covered := 0
	for s, skip := 0, 32; s+4 <= len(blk); {
		v := binary.LittleEndian.Uint32(blk[s:])
		h := v * 0x1e35a7bd >> (32 - probeBits)
		c := int(table[h])
		table[h] = uint16(s)
		// An entry never written reads as position 0, which is then compared
		// like any other: a match there is a match.
		if c >= s || s-c > flateWindow || binary.LittleEndian.Uint32(blk[c:]) != v {
			s += skip >> 5
			skip++
			continue
		}
		n := 4
		for s+n < len(blk) && blk[c+n] == blk[s+n] {
			n++
		}
		if covered += n; covered >= need {
			return true
		}
		s += n
		skip = 32
	}
	return false
}

// storeAppend appends data to dst as DEFLATE stored blocks (BTYPE 00): a
// 5-byte header — BFINAL, LEN, ^LEN — before every maxStored bytes, the last
// block final; no data is one empty final block, the stream flate writes
// for it. limit is deflateAppend's.
func storeAppend(dst, data []byte, limit int) ([]byte, error) {
	size := len(data) + 5*max(1, (len(data)+maxStored-1)/maxStored)
	if limit > 0 && len(dst)+size > limit {
		return nil, errOverLimit
	}
	dst = slices.Grow(dst, size)
	for {
		n := min(len(data), maxStored)
		final := byte(0)
		if n == len(data) {
			final = 1
		}
		dst = append(dst, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		dst = append(dst, data[:n]...)
		if data = data[n:]; final == 1 {
			return dst, nil
		}
	}
}

// Encoder is a reusable compression engine. It owns the quantization-code
// buffer, literal pool, reconstruction grid, Huffman scratch and payload
// staging buffers, reusing them across calls so that steady-state
// compression allocates only the returned payload.
//
// Its kernels write codes (0 for a literal) and reconstructions only. The
// literal pool is built by the seal, in one pass over the codes and the
// source values, after the Huffman encoder has counted the stream and only
// if the count found a literal marker: on most batches there is none, and
// a candidate CompressBlocksEither abandons at its code section never gets
// that far.
//
// The zero value is ready to use. An Encoder is not safe for concurrent
// use; use one per goroutine (they are cheap once warm) or guard with a
// sync.Pool.
type Encoder[T grid.Float] struct {
	codes []uint32
	lits  []byte
	recon []T
	huff  huffman.Encoder

	// The temporal candidate CompressBlocksEither codes beside the spatial
	// one: a code stream of its own.
	alt []uint32

	lanes  lanes // the vector kernels' scratch (simd.go)
	scalar bool  // tests: hold the vector kernels off

	huffBuf []byte // raw huffman blob staging
	deflBuf []byte // deflated section staging
}

// NewEncoder returns an empty Encoder; scratch grows on first use.
func NewEncoder[T grid.Float]() *Encoder[T] { return &Encoder[T]{} }

// reconSlab returns the pooled reconstruction scratch, length n, holding
// stale values.
func (e *Encoder[T]) reconSlab(n int) []T {
	if cap(e.recon) < n {
		e.recon = make([]T, n)
	}
	return e.recon[:n]
}

// codesBuf returns the pooled code buffer presized to exactly n entries,
// so the kernels write codes by index with no append growth.
func (e *Encoder[T]) codesBuf(n int) []uint32 {
	e.codes = sized(e.codes, n)
	return e.codes
}

// sized returns buf resliced to n entries, reallocated if it cannot hold
// them; the contents are stale.
func sized(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// Compress1D is Compress1D reusing the encoder's scratch.
func (e *Encoder[T]) Compress1D(values []T, opts Options) ([]byte, Stats, error) {
	g := &grid.Grid3[T]{Dim: grid.Dims{X: 1, Y: 1, Z: len(values)}, Data: values}
	out, _, st, err := e.compressBlocks(kindRaw1D, []*grid.Grid3[T]{g}, nil, opts, nil, codeSpatial)
	return out, st, err
}

// Compress3D is Compress3D reusing the encoder's scratch.
func (e *Encoder[T]) Compress3D(g *grid.Grid3[T], opts Options) ([]byte, Stats, error) {
	out, _, st, err := e.compressBlocks(kindGrid3D, []*grid.Grid3[T]{g}, nil, opts, nil, codeSpatial)
	return out, st, err
}

// CompressBlocks is CompressBlocks reusing the encoder's scratch.
func (e *Encoder[T]) CompressBlocks(blocks []*grid.Grid3[T], opts Options) ([]byte, Stats, error) {
	out, _, st, err := e.compressBlocks(kindBatch, blocks, nil, opts, nil, codeSpatial)
	return out, st, err
}

// CompressBlocksCapture is CompressBlocks that additionally writes each
// block's reconstruction — the values a decoder of the payload will
// produce — into recons, which must hold one grid per block at the same
// dims. The payload is byte-identical to CompressBlocks (the kernels are
// the same; only the reconstruction destination changes). The archive's
// delta mode uses it to retain a member's reconstruction as the
// reference for the next snapshot without a decode round trip.
func (e *Encoder[T]) CompressBlocksCapture(blocks []*grid.Grid3[T], opts Options, recons []*grid.Grid3[T]) ([]byte, Stats, error) {
	if len(recons) != len(blocks) {
		return nil, Stats{}, fmt.Errorf("sz: %d recon grids for %d blocks", len(recons), len(blocks))
	}
	out, _, st, err := e.compressBlocks(kindBatch, blocks, nil, opts, recons, codeSpatial)
	return out, st, err
}

// CompressBlocksDelta compresses a batch temporally: each block's values
// are predicted from the reconstructed values of the same-shaped block in
// refs (the previous snapshot as a decoder sees it), and only the
// residual is quantized and entropy-coded. The residual check runs
// against the CURRENT values with the CURRENT bound, so |v − recon| ≤ eb
// holds for this snapshot regardless of chain depth — error does not
// accumulate. recons, if non-nil, captures each block's reconstruction
// (one grid per block, same dims) for use as the next snapshot's
// reference. The payload kind is kindBatchDelta; it only decodes through
// DecompressBlocksDelta with the same refs.
func (e *Encoder[T]) CompressBlocksDelta(blocks, refs []*grid.Grid3[T], opts Options, recons []*grid.Grid3[T]) ([]byte, Stats, error) {
	out, _, st, err := e.compressBlocks(kindBatch, blocks, refs, opts, recons, codeTemporal)
	return out, st, err
}

// CompressBlocksEither codes a batch whichever way is smaller, spatially
// as CompressBlocksCapture does or temporally against refs as
// CompressBlocksDelta does, and reports which: delta is true for a
// kindBatchDelta payload. Ties go to the spatial coding, which decodes
// without a reference. recons, if non-nil, receives the reconstruction of
// the coding that won.
//
// The payload is exactly the one sealing the batch both ways and keeping
// the strictly smaller temporal payload gives: no size is estimated. Both
// predictors run and the temporal candidate is sealed in full; the spatial
// one is then sealed into a sink capped at the temporal payload's size and
// abandoned once it overflows — on a campaign whose snapshots follow one
// another, before a byte of its code section is copied where that is one
// deflateAppend stores, and a fifth to a half of the way through flate's
// writing it out where it is not, with its literal pool not yet built.
func (e *Encoder[T]) CompressBlocksEither(blocks, refs []*grid.Grid3[T], opts Options, recons []*grid.Grid3[T]) (payload []byte, delta bool, st Stats, err error) {
	payload, kind, st, err := e.compressBlocks(kindBatch, blocks, refs, opts, recons, codeEither)
	return payload, kind == kindBatchDelta, st, err
}

// coding is how a batch is to be predicted.
type coding int

const (
	codeSpatial  coding = iota // Lorenzo, within each block
	codeTemporal               // against the reference blocks
	codeEither                 // whichever seals smaller
)

// compressBlocks is the batch encoder behind every Compress* method. A
// spatial coding seals as kind, the payload kind of its caller; a temporal
// one as kindBatchDelta. It returns the payload and its kind; recons, if
// non-nil, captures the reconstruction of that payload.
func (e *Encoder[T]) compressBlocks(kind int, blocks, refs []*grid.Grid3[T], opts Options, recons []*grid.Grid3[T], how coding) ([]byte, int, Stats, error) {
	fail := func(err error) ([]byte, int, Stats, error) { return nil, 0, Stats{}, err }
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return fail(err)
	}
	d, total, err := batchGeometry(blocks)
	if err != nil {
		return fail(err)
	}
	eb := opts.ErrorBound
	if how != codeSpatial {
		if len(refs) != len(blocks) {
			return fail(fmt.Errorf("sz: %d reference blocks for %d blocks", len(refs), len(blocks)))
		}
		for i, r := range refs {
			if r.Dim != d {
				return fail(fmt.Errorf("sz: reference block %d dims %v differ from %v", i, r.Dim, d))
			}
		}
	}
	if recons != nil {
		if len(recons) != len(blocks) {
			return fail(fmt.Errorf("sz: %d recon grids for %d blocks", len(recons), len(blocks)))
		}
		for i, r := range recons {
			if r.Dim != d {
				return fail(fmt.Errorf("sz: recon grid %d dims %v differ from %v", i, r.Dim, d))
			}
		}
	}
	per := d.Count()
	radius := quantRadius(opts.QuantBits)
	dims := headerDims(kind, d, len(blocks))

	// rec is where block i reconstructs: the caller's capture grid, or —
	// reconstructions nobody keeps being working memory only — scratch of
	// the encoder's, set up per coding below.
	rec := func(i int) []T { return recons[i].Data }
	switch how {
	case codeSpatial:
		if recons == nil {
			quad := e.reconSlab(min(len(blocks), 4) * per)
			rec = func(i int) []T { return quad[i%4*per:][:per] }
		}
		codes := e.codesBuf(total)
		e.encodeSpatial(blocks, d, codes, eb, radius, rec, recons != nil)
		out, st, err := e.sealWithin(0, kind, dims, total, eb, opts, codes, blocks)
		return out, kind, st, err
	case codeTemporal:
		if recons == nil {
			// The temporal kernel never reads its reconstruction.
			one := e.reconSlab(per)
			rec = func(int) []T { return one }
		}
		codes := e.codesBuf(total)
		e.encodeTemporal(blocks, refs, codes, eb, radius, rec)
		out, st, err := e.sealWithin(0, kindBatchDelta, dims, total, eb, opts, codes, blocks)
		return out, kindBatchDelta, st, err
	}

	// Both ways. The temporal candidate reconstructs into the capture, the
	// spatial one into a slab of the encoder's: the winner of a campaign's
	// batch is nearly always temporal and is then already in place, and a
	// spatial winner costs one copy of the batch.
	slab := e.reconSlab((len(blocks) + 1) * per)
	if recons == nil {
		rec = func(int) []T { return slab[len(blocks)*per:] }
	}
	e.alt = sized(e.alt, total)
	e.encodeTemporal(blocks, refs, e.alt, eb, radius, rec)
	codes := e.codesBuf(total)
	e.encodeSpatial(blocks, d, codes, eb, radius, func(i int) []T { return slab[i*per:][:per] }, recons != nil)

	temporal, tst, err := e.sealWithin(0, kindBatchDelta, dims, total, eb, opts, e.alt, blocks)
	if err != nil {
		return fail(err)
	}
	// The spatial payload ships unless it is the larger one, which its seal
	// finds out for itself.
	spatial, sst, err := e.sealWithin(len(temporal), kindBatch, dims, total, eb, opts, codes, blocks)
	if err != nil {
		return fail(err)
	}
	if spatial == nil {
		return temporal, kindBatchDelta, tst, nil
	}
	for i, r := range recons {
		copy(r.Data, slab[i*per:][:per])
	}
	return spatial, kindBatch, sst, nil
}

// encodeSpatial Lorenzo-codes blocks into codes, one block after another.
// rec(i) is where block i reconstructs; unless keep is set it is working
// memory that nobody reads afterwards, and the vector kernels, which have
// their own, leave it alone.
func (e *Encoder[T]) encodeSpatial(blocks []*grid.Grid3[T], d grid.Dims, codes []uint32, eb float64, radius int64, rec func(i int) []T, keep bool) {
	per := d.Count()
	// Blocks are mutually independent, so they encode in lock step: full
	// groups of simdLanes through the vector kernel where there is one
	// (simd.go), then groups of four through the quad kernel — four
	// overlapping dependency chains instead of one (see kernel_quad.go).
	i := e.encodeGroups(blocks, d, codes, eb, radius, rec, keep)
	for ; i+4 <= len(blocks); i += 4 {
		encodeBlockQuad(
			blocks[i].Data, blocks[i+1].Data, blocks[i+2].Data, blocks[i+3].Data,
			rec(i), rec(i+1), rec(i+2), rec(i+3), d,
			codes[i*per:(i+1)*per], codes[(i+1)*per:(i+2)*per], codes[(i+2)*per:(i+3)*per], codes[(i+3)*per:(i+4)*per],
			eb, radius)
	}
	for ; i < len(blocks); i++ {
		encodeBlock3(blocks[i].Data, rec(i), d, codes[i*per:(i+1)*per], eb, radius)
	}
}

// encodeTemporal codes blocks against refs into codes. rec(i) is where
// block i reconstructs.
func (e *Encoder[T]) encodeTemporal(blocks, refs []*grid.Grid3[T], codes []uint32, eb float64, radius int64, rec func(i int) []T) {
	per := len(codes) / len(blocks)
	for i := range blocks {
		e.temporalEncode(blocks[i].Data, refs[i].Data, rec(i), codes[i*per:(i+1)*per], eb, radius)
	}
}

// maxBatchValues is the most values one batch may hold: as many as the
// Huffman stage counts, and an int indexes (2^31−1 on 32-bit platforms).
const maxBatchValues = min(huffman.MaxSymbols, math.MaxInt)

// batchGeometry validates a block batch and resolves its shared shape
// and total cell count, summed where no platform's int can wrap.
func batchGeometry[T grid.Float](blocks []*grid.Grid3[T]) (grid.Dims, int, error) {
	if len(blocks) == 0 {
		return grid.Dims{}, 0, fmt.Errorf("sz: empty block batch")
	}
	d := blocks[0].Dim
	var total uint64
	for i, b := range blocks {
		if b.Dim != d {
			return grid.Dims{}, 0, fmt.Errorf("sz: block %d dims %v differ from %v", i, b.Dim, d)
		}
		if total += uint64(len(b.Data)); total > maxBatchValues {
			return grid.Dims{}, 0, fmt.Errorf("sz: over %d values in one batch, past the Huffman stage's limit", uint64(maxBatchValues))
		}
	}
	return d, int(total), nil
}

// sealWithin assembles the payload of the code stream codes, which code
// the values of src (block after block, as appendLiterals takes them), if
// it comes to at most limit bytes (0: whatever it comes to). For a larger
// one it returns a nil payload and no error, having stopped working on it
// as soon as its size was certain to pass the limit.
func (e *Encoder[T]) sealWithin(limit int, kind int, dims []grid.Dims, n int, eb float64, opts Options, codes []uint32, src []*grid.Grid3[T]) ([]byte, Stats, error) {
	var hdr [64]byte
	h := hdr[:0]
	h = bitio.AppendUvarint(h, magic)
	h = bitio.AppendUvarint(h, version)
	h = bitio.AppendUvarint(h, uint64(kind))
	h = bitio.AppendUvarint(h, uint64(n))
	h = bitio.AppendUvarint(h, math.Float64bits(eb))
	h = bitio.AppendUvarint(h, uint64(opts.QuantBits))
	lossless := uint64(1)
	if opts.DisableLossless {
		lossless = 0
	}
	h = bitio.AppendUvarint(h, lossless)
	h = bitio.AppendUvarint(h, uint64(len(dims)))
	for _, d := range dims {
		h = bitio.AppendUvarint(h, uint64(d.X))
		h = bitio.AppendUvarint(h, uint64(d.Y))
		h = bitio.AppendUvarint(h, uint64(d.Z))
	}

	huff := e.huff.AppendEncode(e.huffBuf[:0], codes)
	e.huffBuf = huff[:0]
	var lits []byte
	if opts.DisableLossless {
		lits = e.literals(codes, src)
	} else {
		// The sections alone passing the limit settles it: the sink's cap
		// leaves the header and the length prefixes out, so it never gives
		// up on a payload that would have fitted. A payload given up on at
		// its code section never builds its literal pool.
		defl, err := deflateAppend(e.deflBuf[:0], huff, limit)
		huffLen := len(defl)
		if err == nil {
			defl, err = deflateAppend(defl, e.literals(codes, src), limit)
		}
		if errors.Is(err, errOverLimit) {
			return nil, Stats{}, nil
		}
		if err != nil {
			return nil, Stats{}, err
		}
		e.deflBuf = defl[:0]
		huff, lits = defl[:huffLen], defl[huffLen:]
	}
	out := make([]byte, 0, len(h)+len(huff)+len(lits)+16)
	out = append(out, h...)
	out = bitio.AppendBytes(out, huff)
	out = bitio.AppendBytes(out, lits)
	if limit > 0 && len(out) > limit {
		return nil, Stats{}, nil
	}
	// The pool holds one literal per marker: the Huffman count of symbol 0.
	nlit := len(e.lits) / literalSize[T]()
	st := Stats{N: n, Literals: nlit, CompressedLen: len(out), ElemBytes: literalSize[T]()}
	return out, st, nil
}

// literals builds the literal pool of codes, which code the values of src,
// in the encoder's scratch: one appendLiterals pass if the stream the
// Huffman encoder has just counted holds a marker, none if it does not.
func (e *Encoder[T]) literals(codes []uint32, src []*grid.Grid3[T]) []byte {
	e.lits = e.lits[:0]
	if e.huff.CodesZero() {
		e.lits = appendLiterals(e.lits, codes, src)
	}
	return e.lits
}

// EncoderPool is a typed sync.Pool of Encoders for callers whose hot path
// spans goroutines (archive workers, level fan-outs). The zero value is
// ready to use.
type EncoderPool[T grid.Float] struct{ p sync.Pool }

// Get returns a pooled (or fresh) Encoder.
func (p *EncoderPool[T]) Get() *Encoder[T] {
	if e, _ := p.p.Get().(*Encoder[T]); e != nil {
		return e
	}
	return &Encoder[T]{}
}

// Put returns an Encoder to the pool.
func (p *EncoderPool[T]) Put(e *Encoder[T]) { p.p.Put(e) }

// DecoderPool is a typed sync.Pool of Decoders; the zero value is ready to
// use.
type DecoderPool[T grid.Float] struct{ p sync.Pool }

// Get returns a pooled (or fresh) Decoder.
func (p *DecoderPool[T]) Get() *Decoder[T] {
	if d, _ := p.p.Get().(*Decoder[T]); d != nil {
		return d
	}
	return &Decoder[T]{}
}

// Put returns a Decoder to the pool.
func (p *DecoderPool[T]) Put(d *Decoder[T]) { p.p.Put(d) }

// Decoder is the reusable decompression engine: it keeps the inflate
// tables, inflated section buffers, decoded symbol stream, the Huffman
// decode tables and literal-offset scratch alive across calls. The zero
// value is ready to use; a Decoder is not safe for concurrent use.
type Decoder[T grid.Float] struct {
	inflater inflate.Decoder
	codes    []uint32
	huff     huffman.Decoder
	huffBuf  []byte
	litBuf   []byte
	litOff   []int
	want     []int // the blocks a reconstruct was asked for

	// noLits is unseal's word to the litOffsets that follows it, which
	// takes it back: the codebook of the stream just decoded has no code
	// for 0, the literal marker, so no block of it owns a literal.
	noLits bool

	lanes  lanes // the vector kernels' scratch (simd.go)
	scalar bool  // tests: hold the vector kernels off
}

// NewDecoder returns an empty Decoder; scratch grows on first use.
func NewDecoder[T grid.Float]() *Decoder[T] { return &Decoder[T]{} }

// unseal parses a payload into the decoder's scratch and returns the
// header, code stream and literal pool. The returned slices alias the
// decoder and are valid until the next call. A negative wantKind accepts
// any payload kind.
func (d *Decoder[T]) unseal(blob []byte, wantKind int) (header, []uint32, []byte, error) {
	d.noLits = false
	h, blob, err := parseHeader(blob)
	if err != nil {
		return h, nil, nil, err
	}
	if wantKind >= 0 && h.kind != wantKind {
		return h, nil, nil, fmt.Errorf("sz: payload kind %d, want %d", h.kind, wantKind)
	}

	r := bitio.NewReader(blob)
	huff, lits := r.Bytes(), r.Bytes()
	if err := r.Err(); err != nil {
		return h, nil, nil, fmt.Errorf("sz: reading sections: %w", err)
	}
	if h.lossless {
		// A section may inflate to no more than the header's value count
		// can use — the code section to the Huffman blob of n codes (for
		// each a codebook entry of at most six bytes and a code of at most
		// 57 bits, and a few bytes of counts), the literal section to a
		// float64 for every value — so that a hostile one cannot make the
		// decoder allocate a thousand times its size.
		if huff, err = d.inflater.Append(d.huffBuf[:0], huff, 14*h.n+32); err != nil {
			return h, nil, nil, fmt.Errorf("sz: inflating code section: %w", err)
		}
		d.huffBuf = huff[:0]
		if lits, err = d.inflater.Append(d.litBuf[:0], lits, 8*h.n); err != nil {
			return h, nil, nil, fmt.Errorf("sz: inflating literal section: %w", err)
		}
		d.litBuf = lits[:0]
	}
	codes, err := d.huff.AppendDecode(d.codes[:0], huff)
	if err != nil {
		return h, nil, nil, err
	}
	d.codes = codes[:0]
	if len(codes) != h.n {
		return h, nil, nil, fmt.Errorf("sz: %d codes for %d values", len(codes), h.n)
	}
	d.noLits = !d.huff.CodesZero()
	return h, codes, lits, nil
}

// ExtractCodes runs only the entropy stage of any payload kind: section
// split, inflate, and Huffman decode of the quantization-code stream,
// skipping Lorenzo reconstruction entirely. Analysis tooling uses it to
// inspect code distributions, and the entropy benchmarks use it to obtain
// the exact symbol stream a payload carries. The returned slice is freshly
// allocated and owned by the caller.
func ExtractCodes(blob []byte) ([]uint32, error) {
	var d Decoder[float32] // element type is irrelevant to the code stream
	_, codes, _, err := d.unseal(blob, -1)
	if err != nil {
		return nil, err
	}
	return codes, nil
}

// Decompress1D is Decompress1D reusing the decoder's scratch.
func (d *Decoder[T]) Decompress1D(blob []byte) ([]T, error) {
	b, err := d.openBatch(blob, kindRaw1D)
	if err != nil {
		return nil, err
	}
	out := make([]T, b.dims.Z)
	return out, d.reconstruct(b, []*grid.Grid3[T]{{Dim: b.dims, Data: out}}, nil)
}

// Decompress3D is Decompress3D reusing the decoder's scratch.
func (d *Decoder[T]) Decompress3D(blob []byte) (*grid.Grid3[T], error) {
	b, err := d.openBatch(blob, kindGrid3D)
	if err != nil {
		return nil, err
	}
	out := grid.New[T](b.dims)
	return out, d.reconstruct(b, []*grid.Grid3[T]{out}, nil)
}

// Decompress3DInto is Decompress3D decoding straight into out, whose dims
// must match the payload — no output allocation, no copy. Every cell of
// out is overwritten. Callers that already hold the destination grid (a
// dataset skeleton's level, a pooled buffer) use it to skip a full
// allocate-zero-copy cycle per grid.
func (d *Decoder[T]) Decompress3DInto(out *grid.Grid3[T], blob []byte) error {
	b, err := d.openBatch(blob, kindGrid3D)
	if err != nil {
		return err
	}
	return d.reconstruct(b, []*grid.Grid3[T]{out}, nil)
}

// DecompressBlocks inverts CompressBlocks, reusing the decoder's scratch;
// the returned blocks are freshly allocated (one slab) and owned by the
// caller.
func (d *Decoder[T]) DecompressBlocks(blob []byte) ([]*grid.Grid3[T], error) {
	b, err := d.openBatch(blob, kindBatch)
	if err != nil {
		return nil, err
	}
	out := grid.NewBlocks[T](b.dims, b.count)
	return out, d.reconstruct(b, out, nil)
}

// DecompressBlocksInto is DecompressBlocks into caller-owned blocks: dst
// must hold one entry per block of the payload, each either a grid of the
// payload's block dims — every cell of which is overwritten — or nil,
// meaning "skip this block". The entropy stage always decodes the whole
// payload (the code stream is one Huffman blob, and where the codebook has
// a literal marker every block's literal offset is the count of markers in
// the blocks before it), but reconstruction runs only
// for the non-nil entries, so a region extraction that keeps a quarter of
// a frame's blocks pays a quarter of its Lorenzo cost.
//
// Scratch lifetime: the decoder keeps no reference to dst or its grids
// past the call, and writes nothing but the non-nil grids' Data; the
// caller may reuse or drop them the moment it returns. On error, grids
// may hold partial output.
func (d *Decoder[T]) DecompressBlocksInto(dst []*grid.Grid3[T], blob []byte) error {
	b, err := d.openBatch(blob, kindBatch)
	if err != nil {
		return err
	}
	return d.reconstruct(b, dst, nil)
}

// batch is an unsealed payload ready for reconstruction: of any kind, a
// 1D stream or a 3D grid being a batch of one block. Its slices alias the
// decoder's scratch: valid until the decoder's next call.
type batch[T grid.Float] struct {
	delta  bool
	dims   grid.Dims
	count  int
	codes  []uint32
	lits   []byte
	litOff []int // block i's literals are lits[litOff[i]:litOff[i+1]]
	twoEB  float64
	radius int64
}

// openBatch runs a payload's entropy stage and validates everything the
// kernels rely on — geometry, code count, literal pool size — so that
// reconstruct has no per-element error paths.
func (d *Decoder[T]) openBatch(blob []byte, kind int) (batch[T], error) {
	hdr, codes, lits, err := d.unseal(blob, kind)
	if err != nil {
		return batch[T]{}, err
	}
	bd, count, err := hdr.geometry()
	if err != nil {
		return batch[T]{}, err
	}
	litOff, err := d.litOffsets(codes, bd.Count(), count, lits)
	if err != nil {
		return batch[T]{}, err
	}
	return batch[T]{
		delta: kind == kindBatchDelta, dims: bd, count: count,
		codes: codes, lits: lits, litOff: litOff,
		twoEB: 2 * hdr.eb, radius: quantRadius(hdr.quantBits),
	}, nil
}

// reconstruct decodes the blocks of b into the non-nil entries of dst (see
// DecompressBlocksInto), against refs for a temporal batch.
func (d *Decoder[T]) reconstruct(b batch[T], dst, refs []*grid.Grid3[T]) error {
	if len(dst) != b.count {
		return fmt.Errorf("sz: %d destination blocks for %d blocks", len(dst), b.count)
	}
	if b.delta && len(refs) != b.count {
		return fmt.Errorf("sz: %d reference blocks for %d blocks", len(refs), b.count)
	}
	for i, g := range dst {
		if g == nil {
			continue
		}
		if g.Dim != b.dims {
			return fmt.Errorf("sz: destination block %d dims %v differ from %v", i, g.Dim, b.dims)
		}
		if !b.delta {
			continue
		}
		if refs[i] == nil {
			return fmt.Errorf("sz: reference block %d missing", i)
		}
		if refs[i].Dim != b.dims {
			return fmt.Errorf("sz: reference block %d dims %v differ from %v", i, refs[i].Dim, b.dims)
		}
	}
	per := b.dims.Count()
	codes := func(i int) []uint32 { return b.codes[i*per : (i+1)*per] }
	if b.delta {
		for i, g := range dst {
			if g != nil {
				d.temporalDecode(g.Data, refs[i].Data, codes(i), b.lits[b.litOff[i]:b.litOff[i+1]], b.twoEB, b.radius)
			}
		}
		return nil
	}
	// Blocks are mutually independent, so wanted blocks — adjacent or not —
	// regroup: into groups of simdLanes for the vector kernel where there
	// is one (simd.go), then into fours for the lock-step quad kernel
	// (kernel_quad.go); up to three left over decode singly.
	want := d.want[:0]
	for i, g := range dst {
		if g != nil {
			want = append(want, i)
		}
	}
	d.want = want[:0]
	want = d.decodeGroups(b, want, dst)
	for ; len(want) >= 4; want = want[4:] {
		q := want[:4]
		decodeBlockQuad(
			dst[q[0]].Data, dst[q[1]].Data, dst[q[2]].Data, dst[q[3]].Data, b.dims,
			codes(q[0]), codes(q[1]), codes(q[2]), codes(q[3]),
			b.lits, b.litOff[q[0]], b.litOff[q[1]], b.litOff[q[2]], b.litOff[q[3]], b.twoEB, b.radius)
	}
	for _, i := range want {
		decodeBlock3(dst[i].Data, b.dims, codes(i), b.lits[b.litOff[i]:b.litOff[i+1]], b.twoEB, b.radius)
	}
	return nil
}

// litOffsets computes every block's literal-pool offset AND validates the
// pool size, so the kernels run with no per-element checks (and, for intra
// batches, groups of four blocks can decode in lock step — see
// kernel_quad.go). An offset is the count of zero codes in the blocks
// before: one scan over the code stream, unless unseal has just found that
// the stream's codebook cannot produce a zero (most frames), which makes
// every offset zero without reading a code.
func (d *Decoder[T]) litOffsets(codes []uint32, per, count int, lits []byte) ([]int, error) {
	noLits := d.noLits
	d.noLits = false
	litSize := literalSize[T]()
	if cap(d.litOff) < count+1 {
		d.litOff = make([]int, count+1)
	}
	litOff := d.litOff[:count+1]
	if noLits {
		clear(litOff)
		return litOff, nil
	}
	litOff[0] = 0
	for i := 0; i < count; i++ {
		zeros := 0
		for _, c := range codes[i*per : (i+1)*per] {
			if c == 0 {
				zeros++
			}
		}
		litOff[i+1] = litOff[i] + zeros*litSize
	}
	if litOff[count] > len(lits) {
		return nil, fmt.Errorf("sz: literal pool holds %d bytes, need %d", len(lits), litOff[count])
	}
	return litOff, nil
}

// DecompressBlocksDelta decodes a temporal (kindBatchDelta) batch given
// the reconstructed reference blocks it was encoded against — one grid
// per block, same dims, read only. It is the inverse of
// CompressBlocksDelta; passing different references than the encoder used
// yields wrong values (but never a panic or out-of-bounds access). The
// returned blocks are freshly allocated and owned by the caller.
func (d *Decoder[T]) DecompressBlocksDelta(blob []byte, refs []*grid.Grid3[T]) ([]*grid.Grid3[T], error) {
	b, err := d.openBatch(blob, kindBatchDelta)
	if err != nil {
		return nil, err
	}
	out := grid.NewBlocks[T](b.dims, b.count)
	return out, d.reconstruct(b, out, refs)
}

// DecompressBlocksDeltaInto is DecompressBlocksDelta into caller-owned
// blocks, with DecompressBlocksInto's contract for dst (nil entries skip
// their block; refs entries are only read where dst is non-nil). dst may
// be refs itself: the temporal kernel computes each cell from the same
// cell of the reference alone, so a chain of delta frames applies in
// place, residual after residual, on one set of blocks.
func (d *Decoder[T]) DecompressBlocksDeltaInto(dst []*grid.Grid3[T], blob []byte, refs []*grid.Grid3[T]) error {
	b, err := d.openBatch(blob, kindBatchDelta)
	if err != nil {
		return err
	}
	return d.reconstruct(b, dst, refs)
}
