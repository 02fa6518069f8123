// Package huffman implements a canonical Huffman coder over uint32 symbol
// streams. It is the entropy stage of the SZ-style compressor (Sec. 2.1 of
// the TAC paper: "apply a customized Huffman coding and lossless compression
// to achieve a higher ratio").
//
// Codes are canonical: only the code length of each present symbol is
// serialized, and both sides reconstruct identical codebooks, so the header
// overhead stays small even for large quantization-bin alphabets.
//
// Both directions are table-driven. The encoder counts frequencies and
// emits codes through dense arrays whenever the alphabet is small (the
// common case: quantization codes are bounded by 2^QuantBits), falling back
// to maps for sparse 32-bit alphabets. The decoder resolves symbols through
// one lookup table indexed by the next TableBits bits of the stream: each
// 8-byte entry carries up to two complete symbols and the bits they
// consume, so a probe is a single load — the whole table is 32 KiB, an L1
// cache's worth — and the inner loop refills its bit accumulator once per
// four probes. Codes longer than TableBits take a canonical
// first-code/offset path and the loop carries on; only the last few
// symbols of a stream run through a bounds-checking per-probe loop.
package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitio"
)

const (
	// maxCodeLen bounds serialized code lengths so any code fits in a
	// single bitio read. Lengths beyond it are redistributed (not clamped)
	// by limitLengths, preserving prefix-freeness.
	maxCodeLen = 57

	// TableBits is the index width of the decode table: one
	// 2^TableBits-entry lookup resolves every code of up to TableBits
	// bits — and a second one behind it, when both fit — in a single
	// probe. It is the decoder's footprint knob: each pooled Decoder keeps
	// exactly one 2^TableBits × 8-byte table (32 KiB at 12) warm across
	// calls. Codes longer than TableBits (rare by construction: a code
	// that long had a tiny frequency) take the canonical first-code
	// overflow path instead. Four probes of TableBits bits must fit the
	// 57 bits a refill guarantees, so TableBits may not exceed 14.
	TableBits = 12

	// denseAlphabet bounds the symbol range for the dense encode-side
	// arrays (frequency counts and per-symbol code tables). 2^16 covers
	// the default QuantBits=16 code space exactly; streams with larger
	// symbols use the map fallback.
	denseAlphabet = 1 << 16
)

// symFreq is one (symbol, frequency) input pair for the tree build.
type symFreq struct {
	sym  uint32
	freq uint64
}

// node is an arena-allocated tree node used during code-length
// construction. Leaves have left == -1; children always precede their
// parent in the arena.
type node struct {
	freq        uint64
	sym         uint32 // min symbol in subtree: deterministic tie-break
	depth       uint32
	left, right int32
}

// treeBuilder owns the node arena and heap scratch for Huffman tree
// construction, so repeated builds stop allocating.
type treeBuilder struct {
	nodes []node
	heap  []int32
}

func (tb *treeBuilder) less(a, b int32) bool {
	na, nb := &tb.nodes[a], &tb.nodes[b]
	if na.freq != nb.freq {
		return na.freq < nb.freq
	}
	// Deterministic tie-break keeps encodings reproducible across runs:
	// subtrees alive in the heap are disjoint, so (freq, sym) is a strict
	// total order and the pop sequence — hence every code length — is
	// independent of input order.
	return na.sym < nb.sym
}

func (tb *treeBuilder) siftDown(i int) {
	h := tb.heap
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && tb.less(h[l], h[m]) {
			m = l
		}
		if r < len(h) && tb.less(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (tb *treeBuilder) siftUp(i int) {
	h := tb.heap
	for i > 0 {
		p := (i - 1) / 2
		if !tb.less(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (tb *treeBuilder) pop() int32 {
	h := tb.heap
	top := h[0]
	h[0] = h[len(h)-1]
	tb.heap = h[:len(h)-1]
	tb.siftDown(0)
	return top
}

func (tb *treeBuilder) push(i int32) {
	tb.heap = append(tb.heap, i)
	tb.siftUp(len(tb.heap) - 1)
}

// codeLengths appends per-symbol (symbol, length) pairs computed with the
// classic Huffman construction. Lengths are raw tree depths (capped at 255
// for storage); callers must run limitLengths before canonicalize.
func (tb *treeBuilder) codeLengths(dst []symCode, sf []symFreq) []symCode {
	switch len(sf) {
	case 0:
		return dst
	case 1:
		return append(dst, symCode{sym: sf[0].sym, len: 1})
	}
	nodes := tb.nodes[:0]
	for _, p := range sf {
		nodes = append(nodes, node{freq: p.freq, sym: p.sym, left: -1, right: -1})
	}
	tb.nodes = nodes
	tb.heap = tb.heap[:0]
	for i := range nodes {
		tb.heap = append(tb.heap, int32(i))
	}
	for i := len(tb.heap)/2 - 1; i >= 0; i-- {
		tb.siftDown(i)
	}
	for len(tb.heap) > 1 {
		a := tb.pop()
		b := tb.pop()
		na, nb := &tb.nodes[a], &tb.nodes[b]
		sym := na.sym
		if nb.sym < sym {
			sym = nb.sym
		}
		tb.nodes = append(tb.nodes, node{freq: na.freq + nb.freq, sym: sym, left: a, right: b})
		tb.push(int32(len(tb.nodes) - 1))
	}
	// Children precede parents in the arena, so one reverse sweep from the
	// root (always the last merge) assigns every depth without recursion —
	// no stack growth even for pathologically deep trees.
	nodes = tb.nodes
	nodes[len(nodes)-1].depth = 0
	for i := len(nodes) - 1; i >= len(sf); i-- {
		d := nodes[i].depth + 1
		nodes[nodes[i].left].depth = d
		nodes[nodes[i].right].depth = d
	}
	for i, p := range sf {
		d := nodes[i].depth
		if d > 255 {
			d = 255 // storage cap only; limitLengths redistributes next
		}
		dst = append(dst, symCode{sym: p.sym, len: uint8(d)})
	}
	return dst
}

// limitLengths enforces maxCodeLen while keeping the code set prefix-free.
// Over-long codes are clamped to maxCodeLen, which over-subscribes the
// Kraft sum; the deficit is repaid by deepening the deepest still-
// shortenable codes (smallest symbol first for determinism) until
// Σ 2^-len ≤ 1 again. This replaces the old bare clamp, which could
// produce a non-prefix-free codebook for pathologically skewed alphabets.
// Unreachable for counted streams (depth > 57 needs ~Fib(58) ≈ 6·10^11
// symbols), so real payloads are byte-identical with or without it.
func limitLengths(codes []symCode) {
	over := false
	for i := range codes {
		if codes[i].len > maxCodeLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	const full = uint64(1) << maxCodeLen
	var kraft uint64
	for i := range codes {
		if codes[i].len > maxCodeLen {
			codes[i].len = maxCodeLen
		}
		kraft += full >> codes[i].len
	}
	for kraft > full {
		best := -1
		for i := range codes {
			if codes[i].len >= maxCodeLen {
				continue
			}
			if best < 0 || codes[i].len > codes[best].len ||
				(codes[i].len == codes[best].len && codes[i].sym < codes[best].sym) {
				best = i
			}
		}
		if best < 0 {
			// Would need > 2^maxCodeLen codes; impossible for a uint32
			// alphabet, but never loop forever on a logic error.
			break
		}
		kraft -= full >> (codes[best].len + 1)
		codes[best].len++
	}
}

// symCode is one entry of a canonical codebook.
type symCode struct {
	sym  uint32
	len  uint8
	code uint64
}

// canonicalize assigns canonical codes in place: symbols sorted by
// (length, symbol) receive consecutive codes. The (length, symbol) keys
// are unique, so any comparison sort yields the same order —
// slices.SortFunc avoids the reflect-based swapping of sort.Slice.
func canonicalize(codes []symCode) []symCode {
	slices.SortFunc(codes, func(a, b symCode) int {
		if a.len != b.len {
			return int(a.len) - int(b.len)
		}
		return cmp.Compare(a.sym, b.sym)
	})
	assignCodes(codes)
	return codes
}

// assignCodes gives a codebook already in (length, symbol) order its
// consecutive canonical codes.
func assignCodes(codes []symCode) {
	var code uint64
	var prevLen uint8
	for i := range codes {
		code <<= codes[i].len - prevLen
		codes[i].code = code
		code++
		prevLen = codes[i].len
	}
}

// Encoder holds reusable encoding scratch (frequency tables, the tree-
// build arena, codebooks, header buffer and the bit writer) so repeated
// Encode calls on a hot path stop allocating. The zero value is ready to
// use; an Encoder is not safe for concurrent use. Output is byte-identical
// to the package-level Encode.
type Encoder struct {
	freq    map[uint32]uint64 // sparse-alphabet frequency fallback
	dense   []uint64          // dense frequencies, indexed by symbol (all-zero between calls)
	touched []uint32          // symbols seen this call, for the sparse reset
	sf      []symFreq         // (symbol, frequency) worklist
	tb      treeBuilder
	codes   []symCode // canonical codebook scratch
	bySym   []symCode // codebook in symbol order for the header
	encLen  []uint8   // dense emit tables, indexed by symbol
	encCode []uint64
	table   map[uint32]symCode // sparse emit fallback
	hdr     []byte
	w       bitio.Writer
}

// AppendEncode Huffman-codes syms and appends the self-contained blob
// (codebook header + bit stream) to dst, returning the extended slice.
func (e *Encoder) AppendEncode(dst []byte, syms []uint32) []byte {
	var maxSym uint32
	for _, s := range syms {
		if s > maxSym {
			maxSym = s
		}
	}
	dense := len(syms) > 0 && maxSym < denseAlphabet
	sf := e.sf[:0]
	if dense {
		n := int(maxSym) + 1
		if cap(e.dense) < n {
			e.dense = make([]uint64, n)
		}
		// The dense array holds the all-zero invariant between calls
		// (restored sparsely below), so counting never pays a clear of
		// the full symbol range — with QuantBits=16 that clear used to
		// move 512 KiB per payload. Touched symbols are recorded on first
		// increment and sorted, reproducing the increasing-symbol order
		// the frequency-scan collection produced.
		fr := e.dense[:n]
		touched := e.touched[:0]
		for _, s := range syms {
			if fr[s] == 0 {
				touched = append(touched, s)
			}
			fr[s]++
		}
		slices.Sort(touched)
		for _, s := range touched {
			sf = append(sf, symFreq{sym: s, freq: fr[s]})
			fr[s] = 0
		}
		e.touched = touched[:0]
	} else if len(syms) > 0 {
		if e.freq == nil {
			e.freq = make(map[uint32]uint64)
		} else {
			clear(e.freq)
		}
		for _, s := range syms {
			e.freq[s]++
		}
		for s, f := range e.freq {
			sf = append(sf, symFreq{sym: s, freq: f})
		}
	}
	e.sf = sf

	codes := e.tb.codeLengths(e.codes[:0], sf)
	limitLengths(codes)
	codes = canonicalize(codes)
	e.codes = codes

	// Header: nsyms, count of distinct symbols, then (symbol, length) pairs
	// with delta-coded symbols (quantization codes cluster near the middle
	// bin, so deltas varint-pack tightly).
	hdr := e.hdr[:0]
	hdr = bitio.AppendUvarint(hdr, uint64(len(syms)))
	hdr = bitio.AppendUvarint(hdr, uint64(len(codes)))
	bySym := append(e.bySym[:0], codes...)
	slices.SortFunc(bySym, func(a, b symCode) int { return cmp.Compare(a.sym, b.sym) })
	e.bySym = bySym
	prev := uint32(0)
	for _, c := range bySym {
		hdr = bitio.AppendUvarint(hdr, uint64(c.sym-prev))
		hdr = bitio.AppendUvarint(hdr, uint64(c.len))
		prev = c.sym
	}
	e.hdr = hdr

	// The bit stream is written straight onto dst after the header — no
	// staging copy.
	dst = bitio.AppendBytes(dst, hdr)
	e.w.Reset(dst)
	if dense {
		n := int(maxSym) + 1
		if cap(e.encLen) < n {
			e.encLen = make([]uint8, n)
			e.encCode = make([]uint64, n)
		}
		encLen := e.encLen[:n]
		encCode := e.encCode[:n]
		for _, c := range codes {
			encLen[c.sym] = c.len
			encCode[c.sym] = c.code
		}
		// Pack whole runs of symbols into a local accumulator and hand
		// bitio one wide write per ~57 bits: typical quantization streams
		// average a few bits per symbol, so this trades ~10 WriteBits
		// calls for one. The emitted bit sequence is identical.
		var acc uint64
		var na uint
		for _, s := range syms {
			l := uint(encLen[s])
			if na+l > 57 {
				e.w.WriteBits(acc, na)
				acc, na = 0, 0
			}
			acc = acc<<l | encCode[s]
			na += l
		}
		e.w.WriteBits(acc, na)
	} else {
		if e.table == nil {
			e.table = make(map[uint32]symCode, len(codes))
		} else {
			clear(e.table)
		}
		for _, c := range codes {
			e.table[c.sym] = c
		}
		for _, s := range syms {
			c := e.table[s]
			e.w.WriteBits(c.code, uint(c.len))
		}
	}
	return e.w.Bytes()
}

// Encode Huffman-codes syms and returns a self-contained byte blob
// (codebook header + bit stream). Decode inverts it.
func Encode(syms []uint32) []byte {
	var e Encoder
	return e.AppendEncode(nil, syms)
}

// Decode inverts Encode. It returns an error for truncated or corrupt input.
func Decode(blob []byte) ([]uint32, error) { return AppendDecode(nil, blob) }

// AppendDecode is Decode appending into dst's spare capacity. One-shot
// callers pay a fresh decode table per call; hot paths should pool a
// Decoder instead.
func AppendDecode(dst []uint32, blob []byte) ([]uint32, error) {
	var d Decoder
	return d.AppendDecode(dst, blob)
}

// Primary-table entries pack everything one probe needs into 8 bytes:
//
//	bits  0–7   total bits the probe consumes (len1, or len1+len2 for a pair)
//	bits  8–11  symbols the probe emits (1 or 2)
//	bits 12–15  len1, the first code's own length
//	bits 16–47  sym1
//	bits 48–63  sym2 (pairs only, so only symbols below 2^16 pair)
//
// A zero entry is an unassigned (invalid) code. Two low-byte values above
// any real length send the fast loop to its slow branch: lutLong marks the
// prefix of one or more codes longer than the table index, which resolve
// through the canonical first-code path, and lutWide marks a pair whose
// second symbol does not fit sym2 — it is fetched from its own entry
// instead, so probes consume the same codes whatever the alphabet. A
// single keeps its full 32-bit symbol, and pairing never disturbs an
// entry's len1/sym1 fields.
const (
	lutLong       = 0xff
	lutWide       = 0xfe
	lutCountShift = 8
	lutCountOne   = uint64(1) << lutCountShift
	lutCountTwo   = uint64(2) << lutCountShift
	lutLen1Shift  = 12
	lutSym1Shift  = 16
	lutSym2Shift  = 48
)

// len1 extracts an entry's first-code length: 0 for an invalid or long
// entry, which is how the pairing pass and the careful loop tell.
func len1(e uint64) uint { return uint(e>>lutLen1Shift) & 0xf }

// Decoder holds the reusable decode-side scratch: the parsed codebook, the
// primary lookup table and the canonical overflow tables, kept warm across
// calls so steady-state decoding allocates only the output. The zero value
// is ready to use; a Decoder is not safe for concurrent use — pool one per
// goroutine (internal/sz's Decoder engines do exactly that).
type Decoder struct {
	codes []symCode // parsed codebook, in header (symbol) order
	canon []symCode // the same codebook in canonical order, codes assigned
	lut   []uint64  // 2^TableBits packed entries, allocated on first use
	syms  []uint32  // symbols in canonical order, for the overflow path

	// Canonical decode state for code lengths in (TableBits, maxCodeLen]:
	// at length l, codes occupy [first[l], first[l]+count[l]) and map to
	// syms[base[l]+...].
	first [maxCodeLen + 1]uint64
	base  [maxCodeLen + 1]int32
	count [maxCodeLen + 1]uint32
}

// AppendDecode decodes blob appending into dst's spare capacity. It
// returns an error for truncated or corrupt input without over-allocating:
// claimed symbol counts are validated against the bit stream's actual size
// and the codebook against the Kraft inequality before any table is built.
func (d *Decoder) AppendDecode(dst []uint32, blob []byte) ([]uint32, error) {
	nsyms, body, err := d.parseCodebook(blob)
	if err != nil {
		return nil, err
	}
	if nsyms == 0 {
		return dst[:0], nil
	}
	tableBits, maxLen := d.build(d.canonical())

	out := dst[:0]
	if cap(out) < nsyms {
		out = make([]uint32, 0, nsyms)
	}
	out = out[:nsyms]
	if err := d.decode(out, body, tableBits, maxLen); err != nil {
		return nil, err
	}
	return out, nil
}

// parseCodebook validates blob's header into d.codes (symbol and length
// only; canonicalize assigns the codes) and returns the claimed symbol
// count and the bit stream.
func (d *Decoder) parseCodebook(blob []byte) (int, []byte, error) {
	hdr, n, err := bitio.Bytes(blob)
	if err != nil {
		return 0, nil, fmt.Errorf("huffman: reading header: %w", err)
	}
	body := blob[n:]

	nsyms, k, err := bitio.Uvarint(hdr)
	if err != nil {
		return 0, nil, fmt.Errorf("huffman: symbol count: %w", err)
	}
	hdr = hdr[k:]
	ncodes, k, err := bitio.Uvarint(hdr)
	if err != nil {
		return 0, nil, fmt.Errorf("huffman: code count: %w", err)
	}
	hdr = hdr[k:]
	if nsyms > 0 && ncodes == 0 {
		return 0, nil, errors.New("huffman: nonempty stream with empty codebook")
	}
	// Every symbol costs at least one bit and every codebook entry at least
	// two header bytes, so corrupt counts cannot drive the allocations below.
	if nsyms > 8*uint64(len(body)) {
		return 0, nil, fmt.Errorf("huffman: %d symbols claimed but bit stream holds %d bits", nsyms, 8*len(body))
	}
	if ncodes > uint64(len(hdr)) {
		return 0, nil, fmt.Errorf("huffman: %d codebook entries claimed in a %d-byte header", ncodes, len(hdr))
	}

	const full = uint64(1) << maxCodeLen
	var kraft uint64
	codes := d.codes[:0]
	prev := uint64(0)
	for i := uint64(0); i < ncodes; i++ {
		ds, k, err := bitio.Uvarint(hdr)
		if err != nil {
			return 0, nil, fmt.Errorf("huffman: codebook symbol %d: %w", i, err)
		}
		hdr = hdr[k:]
		l, k, err := bitio.Uvarint(hdr)
		if err != nil {
			return 0, nil, fmt.Errorf("huffman: codebook length %d: %w", i, err)
		}
		hdr = hdr[k:]
		if l == 0 || l > maxCodeLen {
			return 0, nil, fmt.Errorf("huffman: invalid code length %d", l)
		}
		if i > 0 && ds == 0 {
			return 0, nil, fmt.Errorf("huffman: duplicate codebook symbol %d", prev)
		}
		sym := prev + ds
		if ds > math.MaxUint32 || sym > math.MaxUint32 {
			return 0, nil, errors.New("huffman: codebook symbol overflows uint32")
		}
		// A valid codebook satisfies the Kraft inequality; rejecting
		// over-subscribed length sets here keeps the table build safe.
		kraft += full >> l
		if kraft > full {
			return 0, nil, errors.New("huffman: over-subscribed codebook")
		}
		codes = append(codes, symCode{sym: uint32(sym), len: uint8(l)})
		prev = sym
	}
	d.codes = codes
	return int(nsyms), body, nil
}

// canonical is canonicalize for a parsed codebook: the header lists
// symbols in increasing order, so a stable counting sort on length yields
// the (length, symbol) order without a comparison sort — which otherwise
// costs a tenth of decoding a typical 30k-symbol frame.
func (d *Decoder) canonical() []symCode {
	var start [maxCodeLen + 2]int
	for _, c := range d.codes {
		start[c.len+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	if cap(d.canon) < len(d.codes) {
		d.canon = make([]symCode, len(d.codes))
	}
	canon := d.canon[:len(d.codes)]
	for _, c := range d.codes {
		canon[start[c.len]] = c
		start[c.len]++
	}
	assignCodes(canon)
	return canon
}

// decode fills out from the bit stream in body through the tables build
// left behind.
//
// Both loops run on a local bit-reader state — accumulator, valid-bit
// count and byte cursor — instead of a bitio.Reader, so the per-symbol cost
// is a table load and two shifts with no method-call or pointer traffic.
// The refill mirrors bitio.Reader.refill exactly (whole-word loads with the
// byte tail near the end; bits of acc beyond nbit mirror the bytes still at
// pos), and a code claiming more bits than the stream holds reports the
// same truncation error Consume used to.
func (d *Decoder) decode(out []uint32, body []byte, tableBits, maxLen uint) error {
	// The table is always indexed by TableBits bits, whatever the deepest
	// code: a constant shift into a fixed-size array needs no mask and no
	// bounds check on the probe's critical path.
	lut := (*[1 << TableBits]uint64)(d.lut)
	const (
		shift = 64 - TableBits
		mask  = 1<<TableBits - 1
	)
	var (
		acc  uint64
		nbit uint
		pos  int
		n    int
	)

	// Fast loop: one whole-word refill leaves at least 57 valid bits, which
	// covers four probes of at most TableBits each with no further checks.
	// Every probe stores both symbol slots and advances by the entry's
	// count, so singles and pairs share one branch-free path. It runs while
	// at least 8 symbols are owed (four pairs, so the unconditional second
	// store stays inside out) and a whole word is left to load (so every
	// bit consumed is a stream bit and truncation cannot occur here). A
	// code longer than the table is resolved in place and the loop resumes:
	// real quantization streams carry one every few hundred symbols, so a
	// loop that bailed on the first would never run.
fast:
	for n+8 <= len(out) && pos+8 <= len(body) {
		acc, nbit, pos = refillWord(acc, nbit, pos, body)
		for probe := 0; probe < 4; probe++ {
			idx := acc >> shift
			e := lut[idx]
			l := uint(e & 0xff)
			if l-1 < tableBits {
				out[n] = uint32(e >> lutSym1Shift)
				out[n+1] = uint32(e >> lutSym2Shift)
				n += int(e>>lutCountShift) & 3
				acc <<= l & 63
				nbit -= l
				continue
			}
			switch l {
			case 0:
				return fmt.Errorf("huffman: invalid code at symbol %d", n)
			case lutWide:
				l = len1(e)
				e2 := lut[(idx<<l)&mask]
				l += len1(e2)
				out[n] = uint32(e >> lutSym1Shift)
				out[n+1] = uint32(e2 >> lutSym1Shift)
				n += 2
				acc <<= l
				nbit -= l
			case lutLong:
				if nbit < maxLen {
					if pos+8 > len(body) {
						break fast // the careful loop finishes near the end
					}
					acc, nbit, pos = refillWord(acc, nbit, pos, body)
				}
				sym, cl := d.resolveLong(acc, tableBits, maxLen)
				if cl == 0 {
					return fmt.Errorf("huffman: invalid code at symbol %d", n)
				}
				acc <<= cl
				nbit -= cl
				out[n] = sym
				n++
				continue fast // the budget of four probes per refill is spent
			}
		}
	}

	// Careful loop: the last <8 symbols or last 8 bytes, one probe at a
	// time with every length checked against the bits actually left.
	for n < len(out) {
		// Refill only when the primary probe could run short: the bits of
		// acc beyond nbit mirror the bytes still at pos, so the probe
		// value is the same either way. The overflow path refills again
		// for its maxLen-bit view.
		if nbit < tableBits {
			acc, nbit, pos = refillTail(acc, nbit, pos, body)
		}
		idx := acc >> shift
		e := lut[idx]
		l := len1(e)
		sym := uint32(e >> lutSym1Shift)
		step := 1
		switch {
		case e == 0:
			return fmt.Errorf("huffman: invalid code at symbol %d", n)
		case e&0xff == lutLong:
			// Overflow path: resolve codes longer than the primary table
			// by canonical (first code, offset) comparison per length.
			if nbit < maxLen {
				acc, nbit, pos = refillTail(acc, nbit, pos, body)
			}
			if sym, l = d.resolveLong(acc, tableBits, maxLen); l == 0 {
				return fmt.Errorf("huffman: invalid code at symbol %d", n)
			}
		case n+1 < len(out):
			// Two complete codes within the index decode as one step — all
			// or nothing against the bits left — unless the claimed symbol
			// count ends between them. The second code is read from its
			// own entry rather than the packed sym2 field, so symbols too
			// wide to pair in the fast loop behave the same here.
			e2 := lut[(idx<<l)&mask]
			if l2 := len1(e2); l2 != 0 && l+l2 <= tableBits {
				l += l2
				out[n+1] = uint32(e2 >> lutSym1Shift)
				step = 2
			}
		}
		if l > nbit {
			return fmt.Errorf("huffman: bit stream truncated at symbol %d: %w", n, bitio.ErrUnexpectedEOF)
		}
		acc <<= l
		nbit -= l
		out[n] = sym
		n += step
	}
	return nil
}

// refillWord tops the accumulator up from a whole big-endian word, which
// the caller guarantees is left (pos+8 <= len(body)), consuming as many
// whole bytes as fit: at least 57 bits are valid afterwards.
func refillWord(acc uint64, nbit uint, pos int, body []byte) (uint64, uint, int) {
	acc |= binary.BigEndian.Uint64(body[pos:]) >> nbit
	adv := (64 - nbit) >> 3
	return acc, nbit + adv*8, pos + int(adv)
}

// refillTail tops the accumulator up near the end of the stream: a whole
// word while one is left, then byte by byte.
func refillTail(acc uint64, nbit uint, pos int, body []byte) (uint64, uint, int) {
	if pos+8 <= len(body) {
		return refillWord(acc, nbit, pos, body)
	}
	for nbit <= 56 && pos < len(body) {
		acc |= uint64(body[pos]) << (56 - nbit)
		pos++
		nbit += 8
	}
	return acc, nbit, pos
}

// resolveLong matches the code at the top of acc against the canonical
// (first code, count) ranges of every length above tableBits, returning
// its symbol and length, or length 0 if no code matches.
func (d *Decoder) resolveLong(acc uint64, tableBits, maxLen uint) (uint32, uint) {
	v := acc >> (64 - maxLen)
	for cl := tableBits + 1; cl <= maxLen; cl++ {
		cnt := d.count[cl]
		if cnt == 0 {
			continue
		}
		c := v >> (maxLen - cl)
		if c < d.first[cl] {
			continue
		}
		off := c - d.first[cl]
		if off >= uint64(cnt) {
			continue
		}
		return d.syms[int(d.base[cl])+int(off)], cl
	}
	return 0, 0
}

// build (re)fills the decoder's tables from a canonicalized codebook and
// returns the probe window — min(maxLen, TableBits), the longest code the
// table resolves and the most bits a pair may span — and the maximum code
// length. The codebook must be non-empty and satisfy Kraft (validated by
// the caller), which guarantees every fill range below stays in bounds.
//
// The table is built at the window's width and then, for a codebook
// shallower than TableBits, stretched to the full 2^TableBits entries the
// decode loops index — each entry repeated across the index bits it
// ignores — so that the work of building scales with the codebook (a
// 256-symbol frame with 7-bit codes pairs 128 entries, not 4096) while the
// probe keeps its constant shift.
func (d *Decoder) build(codes []symCode) (tableBits uint, maxLen uint) {
	maxLen = uint(codes[len(codes)-1].len)
	tableBits = min(maxLen, TableBits)
	if d.lut == nil {
		d.lut = make([]uint64, 1<<TableBits)
	}
	size := 1 << tableBits
	lut := d.lut[:size]
	clear(lut)
	d.syms = d.syms[:0]
	if maxLen > TableBits {
		for i := range d.count {
			d.count[i] = 0
		}
	}
	for i, c := range codes {
		d.syms = append(d.syms, c.sym)
		cl := uint(c.len)
		if cl <= tableBits {
			entry := uint64(c.sym)<<lutSym1Shift | uint64(cl)<<lutLen1Shift | lutCountOne | uint64(cl)
			lo := c.code << (tableBits - cl)
			hi := lo + 1<<(tableBits-cl)
			for j := lo; j < hi; j++ {
				lut[j] = entry
			}
			continue
		}
		if d.count[cl] == 0 {
			d.first[cl] = c.code
			d.base[cl] = int32(i)
		}
		d.count[cl]++
		lut[c.code>>(cl-tableBits)] = lutLong
	}

	// Second pass: pair entries. Where the first code leaves enough index
	// bits to fully determine a second complete code, the entry consumes
	// both in one probe: quantization streams are dominated by one short
	// code (values near the prediction), so most probes then emit two
	// symbols. Pairing rewrites only the total, count and sym2 fields, so
	// an entry already paired still answers for its own first code.
	for idx, e := range lut {
		l1 := len1(e)
		if l1 == 0 { // invalid or long
			continue
		}
		e2 := lut[(idx<<l1)&(size-1)]
		l2 := len1(e2)
		sym2 := uint32(e2 >> lutSym1Shift)
		if l2 == 0 || l1+l2 > tableBits {
			continue
		}
		if sym2 >= 1<<16 {
			lut[idx] = e&^0xff | lutWide
			continue
		}
		lut[idx] = e&^0xfff | uint64(sym2)<<lutSym2Shift | lutCountTwo | uint64(l1+l2)
	}

	// Stretch in place, back to front: entry i's run starts at i<<k ≥ i.
	if k := TableBits - tableBits; k > 0 {
		for i := size - 1; i >= 0; i-- {
			e := lut[i]
			run := d.lut[i<<k : (i+1)<<k]
			for j := range run {
				run[j] = e
			}
		}
	}
	return tableBits, maxLen
}
