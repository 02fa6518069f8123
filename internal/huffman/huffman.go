// Package huffman implements a canonical Huffman coder over uint32 symbol
// streams. It is the entropy stage of the SZ-style compressor (Sec. 2.1 of
// the TAC paper: "apply a customized Huffman coding and lossless compression
// to achieve a higher ratio").
//
// Codes are canonical: only the code length of each present symbol is
// serialized, and both sides reconstruct identical codebooks, so the header
// overhead stays small even for large quantization-bin alphabets.
//
// The encoder codes symbols below 2^AlphabetBits: quantization codes are
// bounded by 2^QuantBits, and sz's QuantBits range, [2,16], ends there.
// The decoder reads any uint32 symbol, so payloads coded with wider
// alphabets still decode.
//
// Both directions are table-driven. The encoder counts frequencies into a
// histogram, one counter per symbol, builds the code lengths from one
// sort of the codebook's symbols and a two-queue merge, and emits through
// one packed table — an entry per symbol holding its code and length —
// eight symbols to a step. The decoder resolves codes through one lookup
// table indexed by the next TableBits bits of the stream: each 8-byte
// entry carries up to four complete codes — eight for a small codebook,
// a residual frame's — as canonical ranks into a rank→symbol array, and
// the bits they consume, so a probe is one table load and four rank loads
// (four loads of a symbol pair for a small codebook) — 32 KiB of table
// and 16 KiB of ranks, an L1 cache's worth — and the inner loop refills
// its bit accumulator once per four probes. The table is built in one
// walk over the canonical codes that writes each entry once; a decoder
// keeps the tables of the last few small codebooks it met, and builds one
// again only when its codebook has left them. Codes longer than TableBits
// take a canonical first-code/offset path and the loop carries on; only
// the last few symbols of a stream run through a bounds-checking
// per-probe loop.
package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/bitio"
)

const (
	// maxCodeLen bounds serialized code lengths so any code fits in the 57
	// bits one refill of the decoder's accumulator guarantees. Lengths
	// beyond it are redistributed (not clamped) by limitLengths, preserving
	// prefix-freeness.
	maxCodeLen = 57

	// TableBits is the index width of the decode table: one
	// 2^TableBits-entry lookup resolves every code of up to TableBits
	// bits — and up to three more behind it, or seven for a small
	// codebook, where the index settles them — in a single probe. Each
	// pooled Decoder keeps a 2^TableBits × 8-byte table (32 KiB) and a
	// 2^TableBits × 4-byte rank→symbol array (16 KiB) warm across calls,
	// and a table more for each small codebook it keeps. The width is not
	// a tuning knob: an entry holds four TableBits-bit ranks above 16 bits
	// of header, which caps it at 12 (checked at compile time below), and
	// a narrower table is slower, as more codes take the overflow path.
	// Codes longer than TableBits (rare by construction: a code that long
	// had a tiny frequency) take the canonical first-code overflow path.
	TableBits = 12

	// AlphabetBits bounds the encoder's symbols to [0, 2^AlphabetBits), the
	// range of its histogram and emit table: the code space of sz's widest
	// QuantBits, which takes its bound from here.
	AlphabetBits = 16
	alphabet     = 1 << AlphabetBits

	// MaxSymbols is the longest stream the encoder codes: its histogram
	// counts in 32 bits.
	MaxSymbols = 1<<32 - 1
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
	depth       uint32
	left, right int32
}

// subtree is one live subtree of the tree build — a leaf, or the merge of
// two — carrying its key, so a comparison never reaches the arena.
type subtree struct {
	freq uint64
	sym  uint32 // min symbol in subtree: deterministic tie-break
	node int32
}

// less orders subtrees by (freq, sym). The tie-break keeps encodings
// reproducible across runs: live subtrees are disjoint, so the order is
// strict and total, and the merge sequence — hence every code length — is
// independent of input order.
func (a subtree) less(b subtree) bool {
	return a.freq < b.freq || a.freq == b.freq && a.sym < b.sym
}

// treeBuilder owns the node arena and the sort and queue scratch for
// Huffman tree construction, so repeated builds stop allocating.
type treeBuilder struct {
	nodes  []node
	keys   []uint64  // packed leaf sort keys
	leaves []subtree // the leaves, in (freq, sym) order
	merged []subtree // the merged subtrees, in creation order
}

// codeLengths appends per-symbol (symbol, length) pairs, in sf's order,
// computed with the classic Huffman construction: merge the two lightest
// subtrees, by (freq, sym), until one is left. Frequencies must be
// positive, as counted ones are. Lengths are raw tree depths (capped at
// 255 for storage); callers must run limitLengths before assigning codes.
//
// The leaves are sorted once, and the lightest subtrees come from the
// heads of two queues — the sorted leaves, and the merged subtrees in the
// order they were made — instead of from a heap. The merges are the
// heap's, one for one. Every frequency is positive, so a merged subtree
// weighs strictly more than either child: the keys a heap pops rise, each
// merge's key rises above the one before it (it sums two keys popped
// later), so the merged queue is made already in (freq, sym) order and
// the lightest live subtree is always at one of the two heads. The sort
// packs freq<<32 | sym<<16 | index into one uint64 key: a counted stream
// has fewer than 2^32 symbols, all below 2^AlphabetBits, so each part fits.
func (tb *treeBuilder) codeLengths(dst []symCode, sf []symFreq) []symCode {
	n := len(sf)
	switch n {
	case 0:
		return dst
	case 1:
		return append(dst, symCode{sym: sf[0].sym, len: 1})
	}
	keys := tb.keys[:0]
	for i, p := range sf {
		keys = append(keys, p.freq<<32|uint64(p.sym)<<16|uint64(i))
	}
	slices.Sort(keys)
	leaves := tb.leaves[:0]
	for _, k := range keys {
		leaves = append(leaves, subtree{freq: k >> 32, sym: uint32(k>>16) & 0xffff, node: int32(k & 0xffff)})
	}
	nodes, merged := tb.nodes[:0], tb.merged[:0]
	for range sf {
		nodes = append(nodes, node{left: -1, right: -1})
	}
	// Each merge takes two of the live subtrees and leaves one, so while
	// the merged queue is drained a leaf is left to take.
	i, j := 0, 0 // the heads of leaves and merged
	for len(nodes) < 2*n-1 {
		var a, b subtree
		if j == len(merged) || i < n && leaves[i].less(merged[j]) {
			a, i = leaves[i], i+1
		} else {
			a, j = merged[j], j+1
		}
		if j == len(merged) || i < n && leaves[i].less(merged[j]) {
			b, i = leaves[i], i+1
		} else {
			b, j = merged[j], j+1
		}
		merged = append(merged, subtree{freq: a.freq + b.freq, sym: min(a.sym, b.sym), node: int32(len(nodes))})
		nodes = append(nodes, node{left: a.node, right: b.node})
	}
	tb.nodes, tb.keys, tb.leaves, tb.merged = nodes, keys, leaves, merged
	// Children precede parents in the arena, so one reverse sweep from the
	// root (always the last merge) assigns every depth without recursion —
	// no stack growth even for pathologically deep trees.
	nodes[len(nodes)-1].depth = 0
	for i := len(nodes) - 1; i >= n; i-- {
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

// assignCanonical gives a codebook in symbol order the codes assignCodes
// gives it in (length, symbol) order, without reordering it: the first
// code of each length follows from the counts of the shorter lengths, and
// within a length codes are consecutive in symbol order — the order the
// walk visits them in.
func assignCanonical(codes []symCode) {
	var count, next [maxCodeLen + 1]uint64
	for _, c := range codes {
		count[c.len]++
	}
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for i := range codes {
		l := codes[i].len
		codes[i].code = next[l]
		next[l]++
	}
}

const (
	// markShift sets the granularity at which the histogram records where
	// it was counted into: blocks of 64 symbols.
	markShift = 6

	// An emit-table entry is code<<lenBits | len.
	lenBits = 6
	lenMask = 1<<lenBits - 1

	// groupBits is the most a group of symbols may add to the bit
	// accumulator in one step: 64 less the 7 bits a flush can leave behind.
	groupBits = 57
)

// Encoder holds reusable encoding scratch (the histogram, the tree-build
// arena, the codebook, the emit table and the header buffer) so repeated
// Encode calls on a hot path stop allocating. The zero value is ready to
// use; an Encoder is not safe for concurrent use. Output is byte-identical
// to the package-level Encode.
//
// The tables are sized by the whole alphabet, not by the part in use: an
// Encoder that has coded a non-empty stream holds 256 KiB of histogram and
// 512 KiB of emit table from then on.
type Encoder struct {
	hist  []uint32                     // a counter per symbol, all-zero between calls
	mark  [alphabet >> markShift]uint8 // blocks of hist counted into, all-zero between calls
	sf    []symFreq                    // (symbol, frequency) worklist, in symbol order
	tb    treeBuilder
	codes []symCode // the codebook, in symbol order like sf
	emit  []uint64  // emit table, indexed by symbol; stale outside the codebook
	hdr   []byte
}

// AppendEncode Huffman-codes syms and appends the self-contained blob
// (codebook header + bit stream) to dst, returning the extended slice. It
// panics if a symbol is 2^AlphabetBits or more, or if syms holds more than
// MaxSymbols.
func (e *Encoder) AppendEncode(dst []byte, syms []uint32) []byte {
	e.count(syms)
	nbits := e.build(len(syms))
	return e.emitBits(bitio.AppendBytes(dst, e.hdr), syms, nbits)
}

// CodesZero reports whether the stream of the AppendEncode that has just
// returned holds symbol 0 — the codebook's first entry if any, as it lists
// the symbols the stream holds in increasing order. It is the twin of
// Decoder.CodesZero: true here, and the payload's codebook has a code for 0.
func (e *Encoder) CodesZero() bool { return len(e.codes) > 0 && e.codes[0].sym == 0 }

// build turns the frequencies in e.sf, of a stream of nsyms symbols, into
// the codebook, the header and the emit table, and returns the length of
// the bit stream.
func (e *Encoder) build(nsyms int) (nbits uint64) {
	codes := e.tb.codeLengths(e.codes[:0], e.sf)
	limitLengths(codes)
	assignCanonical(codes)
	e.codes = codes

	// Header: nsyms, count of distinct symbols, then (symbol, length) pairs
	// with delta-coded symbols (quantization codes cluster near the middle
	// bin, so deltas varint-pack tightly).
	hdr := e.hdr[:0]
	hdr = bitio.AppendUvarint(hdr, uint64(nsyms))
	hdr = bitio.AppendUvarint(hdr, uint64(len(codes)))
	prev := uint32(0)
	for i, c := range codes {
		hdr = bitio.AppendUvarint(hdr, uint64(c.sym-prev))
		hdr = bitio.AppendUvarint(hdr, uint64(c.len))
		prev = c.sym
		nbits += e.sf[i].freq * uint64(c.len)
	}
	e.hdr = hdr

	if len(codes) == 0 {
		return 0 // nothing to emit: the table is not touched
	}
	if e.emit == nil {
		e.emit = make([]uint64, alphabet)
	}
	for _, c := range codes {
		e.emit[c.sym] = c.code<<lenBits | uint64(c.len)
	}
	return nbits
}

// count fills e.sf with the frequency of every distinct symbol, in symbol
// order. It panics on a symbol past the alphabet, or on a stream longer
// than MaxSymbols, with the histogram all-zero again.
//
// The histogram keeps one counter per symbol and holds an all-zero
// invariant between calls, restored as the counts are collected, so
// counting never pays a clear of the full symbol range. The one pass over
// the stream also marks the 64-symbol blocks of the symbol range it
// touches — a block when one of its counters goes from zero, so the store
// is paid once per distinct symbol, on a branch that is almost never taken
// — and collection walks those blocks alone: in symbol order with no sort,
// and at a cost set by the bins in use — the literal marker at 0 and the
// quantization bins a radius away are two blocks or so, not the 2^15
// symbols between them. On frames captured from the benchmark's
// campaign_write, timed on a 2-core Xeon, one counter a symbol counts as
// fast as the four interleaved lanes it replaced, in a quarter of their
// memory; two lanes with the same first-touch marks counted faster still
// (EXPERIMENTS.md).
func (e *Encoder) count(syms []uint32) {
	if uint64(len(syms)) > MaxSymbols {
		panic(fmt.Sprintf("huffman: %d symbols, past MaxSymbols", len(syms)))
	}
	sf := e.sf[:0]
	if len(syms) > 0 {
		if e.hist == nil {
			e.hist = make([]uint32, alphabet)
		}
		h := (*[alphabet]uint32)(e.hist)
		mark := &e.mark
		const m = alphabet - 1
		var any uint32 // reaches alphabet iff some symbol does
		for _, s := range syms {
			x := s & m
			v := h[x]
			h[x] = v + 1
			if v == 0 {
				mark[x>>markShift] = 1
			}
			any |= s
		}
		for b, set := range mark {
			if set == 0 {
				continue
			}
			mark[b] = 0
			blk := (*[1 << markShift]uint32)(h[b<<markShift:])
			for j, f := range blk {
				if f == 0 {
					continue
				}
				blk[j] = 0
				sf = append(sf, symFreq{sym: uint32(b<<markShift + j), freq: uint64(f)})
			}
		}
		if any >= alphabet {
			// A symbol past the alphabet was counted wrapped into it; the
			// walk above has taken every count back out.
			i := slices.IndexFunc(syms, func(s uint32) bool { return s >= alphabet })
			panic(fmt.Sprintf("huffman: symbol %d past the %d-bit alphabet", syms[i], AlphabetBits))
		}
	}
	e.sf = sf
}

// emitBits appends the nbits-long bit stream of syms to dst, through the
// emit table build left.
//
// Codes are packed most significant bit first into a 64-bit accumulator,
// eight symbols to a step — at the three bits or so a quantization code
// averages, under half of it — and every step stores the whole accumulator
// at the output cursor and advances the cursor by the whole bytes in it:
// no branch on how full it is. A step that would overflow it — eight
// codes over groupBits bits, which takes a long code among them — is put
// one code at a time. The bit sequence is the one per-symbol writes
// produce. (The &63 on shift counts the step has already bounded only
// spares the compiler's over-shift guards.)
func (e *Encoder) emitBits(dst []byte, syms []uint32, nbits uint64) []byte {
	if len(syms) == 0 {
		return dst
	}
	start, body := len(dst), int((nbits+7)/8)
	// Whole-word stores run up to 7 bytes past the stream's last.
	dst = slices.Grow(dst, body+8)
	buf := dst[start : start+body+8]
	var w bitPacker
	tab := (*[alphabet]uint64)(e.emit)
	const m = alphabet - 1
	i := 0
	for ; i+8 <= len(syms); i += 8 {
		e0, e1, e2, e3 := tab[syms[i]&m], tab[syms[i+1]&m], tab[syms[i+2]&m], tab[syms[i+3]&m]
		e4, e5, e6, e7 := tab[syms[i+4]&m], tab[syms[i+5]&m], tab[syms[i+6]&m], tab[syms[i+7]&m]
		l1, l3, l5, l7 := uint(e1&lenMask), uint(e3&lenMask), uint(e5&lenMask), uint(e7&lenMask)
		l23, l45, l67 := uint(e2&lenMask)+l3, uint(e4&lenMask)+l5, uint(e6&lenMask)+l7
		if l := uint(e0&lenMask) + l1 + l23 + l45 + l67; l <= groupBits {
			c01, c23 := e0>>lenBits<<l1|e1>>lenBits, e2>>lenBits<<l3|e3>>lenBits
			c45, c67 := e4>>lenBits<<l5|e5>>lenBits, e6>>lenBits<<l7|e7>>lenBits
			w = w.put(buf, (c01<<(l23&63)|c23)<<((l45+l67)&63)|(c45<<(l67&63)|c67), l)
			continue
		}
		for _, ent := range [8]uint64{e0, e1, e2, e3, e4, e5, e6, e7} {
			w = w.put(buf, ent>>lenBits, uint(ent&lenMask))
		}
	}
	for _, s := range syms[i:] {
		ent := tab[s&m]
		w = w.put(buf, ent>>lenBits, uint(ent&lenMask))
	}
	return dst[:start+body]
}

// bitPacker is the cursor of a most-significant-bit-first write into a
// presized buffer, passed and returned by value so that it lives in
// registers.
type bitPacker struct {
	pos  int    // next byte to complete
	acc  uint64 // the last nbit bits put, right-aligned below stale ones
	nbit uint   // bits of acc not yet part of a whole byte before pos, < 8
}

// put appends the n-bit value v, 1 ≤ n ≤ groupBits. The store lays the
// pending bits, zero-padded, over the next eight bytes; only the whole
// bytes among them are kept, so the last store of a stream leaves its
// final partial byte zero-padded on the right.
func (w bitPacker) put(buf []byte, v uint64, n uint) bitPacker {
	w.acc = w.acc<<(n&63) | v
	w.nbit += n
	binary.BigEndian.PutUint64(buf[w.pos:], w.acc<<((64-w.nbit)&63))
	w.pos += int(w.nbit >> 3)
	w.nbit &= 7
	return w
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
//	bits  0–7   total bits the probe consumes
//	bits  8–11  codes the probe emits: 1 up to the layout's cap
//	bits 12–15  len1, the first code's own length
//	bits 16–63  the codes' canonical ranks, rankBits bits each, first
//	            code lowest; unused slots hold rank 0
//
// A code's rank is its index in canonical (length, symbol) order, and the
// table's syms maps it back to the symbol. Codes of up to TableBits bits
// come first in that order, and there are at most 2^TableBits of them, so
// their ranks fit TableBits bits whatever the symbols' width. Two layouts
// share the header. A wide entry holds up to four TableBits-bit ranks; a
// narrow one up to eight 3-bit ranks. A table is narrow when its codebook
// is small — smallCodes codes at most, none longer than TableBits — as a
// residual frame's is, and wide otherwise. Intra frames' codebooks take
// under three codes a probe whatever the cap, so a narrow table would
// only cost them more stores a probe and a deeper build. The narrow fast
// loop reads an entry's ranks two at a time, each pair an index into the
// table's pairs, so a probe stores its eight slots as four 8-byte pairs.
// The careful loop reads both layouts alike but for the mask on the
// first rank.
//
// A probe takes whole steps of the per-symbol loop the decoder replaced
// (oracle_test.go): a step is one code, or two when both fit the window
// min(maxLen, TableBits). An entry holds the longest run of steps, up to
// the layout's cap, that its index settles: a step is settled when the
// index shows whether it is one code or two — its codes fit the index, and
// so does the next code, or else the index shows that no code short
// enough to pair can start there. A one-code step whose successor may
// still pair past the index ends the entry before it, so a probe never
// ends inside a step. The careful loop relies on it: it takes one step at
// a time, pairing codes by the old loop's rule, from wherever the fast
// loop stopped. The index settles every step whose window it holds: with
// a window of a few bits, as a residual frame's five-bin codebook has,
// a narrow entry chains up to eight codes.
//
// A zero entry is an unassigned (invalid) code; lutLong in the low byte
// marks the prefix of one or more codes longer than the table index,
// which resolve through the canonical first-code path.
const (
	lutLong       = 0xff
	lutCountShift = 8
	lutLen1Shift  = 12
	lutRankShift  = 16

	wideRankBits   = TableBits
	wideCodes      = 4
	narrowRankBits = 3
	narrowCodes    = 8
)

// Each layout's ranks must fit above the entry's header, and a small
// codebook's ranks in narrowRankBits: these constants overflow, and the
// package does not compile, if they do not.
const (
	_ uint = 64 - lutRankShift - wideCodes*wideRankBits
	_ uint = 64 - lutRankShift - narrowCodes*narrowRankBits
	_ uint = 1<<narrowRankBits - smallCodes
)

const (
	// A small codebook has at most smallCodes codes, none longer than
	// TableBits: a residual frame's, whose few bins code alike from frame
	// to frame. Its table is narrow, and the decoder keeps the tables of
	// the last smallTables small codebooks it met, at up to 32 KiB each.
	smallCodes  = 8
	smallTables = 8
)

// len1 extracts an entry's first-code length: 0 for an invalid or long
// entry.
func len1(e uint64) uint { return uint(e>>lutLen1Shift) & 0xf }

// table is one built decode table: the primary lookup table, the
// rank→symbol array and the layout decode reads them by.
type table struct {
	lut *[1 << TableBits]uint64
	// pairs maps two ranks of a narrow entry, the first lowest, to their
	// two symbols; nil for a wide table.
	pairs *[1 << (2 * narrowRankBits)][2]uint32
	// syms holds the symbols in canonical order: indexed by an entry's
	// ranks and by the overflow path. Its capacity is at least
	// 2^rankBits, so a masked rank indexes it without a bounds check.
	syms      []uint32
	rankBits  uint // narrowRankBits or wideRankBits
	tableBits uint // min(maxLen, TableBits): the probe window
	maxLen    uint
}

// smallTable is one slot of the decoder's table cache: a small codebook's
// table and the codebook, as its (symbol, length) list.
type smallTable struct {
	key [smallCodes]uint64 // sym<<8 | len in header order, zero past the end
	t   table
}

// Decoder holds the reusable decode-side scratch: the parsed codebook, the
// decode tables and the canonical overflow tables, kept warm across calls
// so steady-state decoding allocates only the output. The zero value is
// ready to use; a Decoder is not safe for concurrent use — pool one per
// goroutine (internal/sz's Decoder engines do exactly that).
type Decoder struct {
	codes []symCode // parsed codebook, in header (symbol) order
	canon []symCode // the same codebook in canonical order, codes assigned
	own   table     // the table of a codebook the cache does not keep

	// small caches the tables of small codebooks, which a decoder meets
	// again and again; victim is the slot the next miss refills.
	small  [smallTables]smallTable
	victim int

	// Canonical decode state for code lengths in (TableBits, maxCodeLen]
	// of the own table: at length l, codes occupy [first[l],
	// first[l]+count[l]) and map to own.syms[base[l]+...].
	first [maxCodeLen + 1]uint64
	base  [maxCodeLen + 1]int32
	count [maxCodeLen + 1]uint32
}

// AppendDecode decodes blob and appends the symbols to dst, into its spare
// capacity when that suffices, returning the extended slice. It returns
// an error for truncated or corrupt input without over-allocating:
// claimed symbol counts are validated against the bit stream's actual size
// and the codebook against the Kraft inequality before any table is built.
func (d *Decoder) AppendDecode(dst []uint32, blob []byte) ([]uint32, error) {
	nsyms, body, err := d.parseCodebook(blob)
	if err != nil {
		return nil, err
	}
	if nsyms == 0 {
		return dst, nil
	}
	t := d.table()

	out := slices.Grow(dst, nsyms)[:len(dst)+nsyms]
	if err := d.decode(out[len(dst):], body, t); err != nil {
		return nil, err
	}
	return out, nil
}

// CodesZero reports whether the codebook of an AppendDecode that has just
// returned without error assigns a code to symbol 0 — the first entry if
// any, as the header lists symbols in increasing order. The decode loops
// emit codebook symbols only, so when it does not, no element of that
// call's output is 0.
func (d *Decoder) CodesZero() bool { return len(d.codes) > 0 && d.codes[0].sym == 0 }

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

// table returns the decode table of the parsed codebook. A small
// codebook's comes from the cache when the same (symbol, length) list was
// met lately, and is built into the cache's oldest slot when not; any
// other codebook's is built into the decoder's own table.
func (d *Decoder) table() *table {
	key, small := d.smallKey()
	if !small {
		d.build(&d.own, d.canonical())
		return &d.own
	}
	for i := range d.small {
		if d.small[i].key == key {
			return &d.small[i].t
		}
	}
	s := &d.small[d.victim]
	d.victim = (d.victim + 1) % smallTables
	s.key = key
	d.build(&s.t, d.canonical())
	return &s.t
}

// smallKey is the parsed codebook's key in the table cache, and whether
// the codebook is small: its (symbol, length) list.
func (d *Decoder) smallKey() (key [smallCodes]uint64, small bool) {
	if len(d.codes) > smallCodes {
		return key, false
	}
	for i, c := range d.codes {
		if c.len > TableBits {
			return key, false
		}
		key[i] = uint64(c.sym)<<8 | uint64(c.len)
	}
	return key, true
}

// decode fills out from the bit stream in body through table t.
//
// All loops run on a local bit-reader state — accumulator, valid-bit
// count and byte cursor — passed by value, so the per-symbol cost is a
// table load and two shifts with no method-call or pointer traffic. The
// refills (refillWord, refillTail) load whole big-endian words, byte by
// byte within eight bytes of the end, and keep the bits of acc beyond nbit
// equal to the bytes still at pos; a code claiming more bits than the
// stream holds reports bitio.ErrUnexpectedEOF. The fast loop of the
// table's layout runs first (fastWide, fastNarrow), and the careful loop
// below finishes the stream from wherever it stopped.
func (d *Decoder) decode(out []uint32, body []byte, t *table) error {
	const shift = 64 - TableBits
	var (
		acc  uint64
		nbit uint
		pos  int
		n    int
	)
	if t.rankBits == narrowRankBits {
		n, acc, nbit, pos = fastNarrow(out, body, t)
	} else {
		n, acc, nbit, pos = d.fastWide(out, body, t)
	}

	// Careful loop: the last symbols or last 8 bytes, and any invalid code
	// a fast loop stopped at, one step at a time with every length checked
	// against the bits actually left.
	lut, syms := t.lut, t.syms
	tableBits, maxLen := t.tableBits, t.maxLen
	first := uint64(1)<<t.rankBits - 1 // masks an entry's first rank
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
		sym := syms[e>>lutRankShift&first]
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
			if sym, l = d.resolveLong(acc, t); l == 0 {
				return fmt.Errorf("huffman: invalid code at symbol %d", n)
			}
		case n+1 < len(out):
			// Two complete codes within the window decode as one step —
			// all or nothing against the bits left — unless the claimed
			// symbol count ends between them. The second code is read
			// from its own entry: an entry's count does not say whether
			// its first two codes are one step.
			e2 := lut[(idx<<l)&(1<<TableBits-1)]
			if l2 := len1(e2); l2 != 0 && l+l2 <= tableBits {
				l += l2
				out[n+1] = syms[e2>>lutRankShift&first]
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

// fastWide is decode's fast loop over a wide table: it decodes out from
// the start while at least 16 symbols are owed and a whole word of body is
// left, and returns how many it decoded and the bit-reader state it
// stopped in. At an invalid code it stops, and the careful loop reports
// it at the same symbol.
//
// The table is always indexed by TableBits bits, whatever the deepest
// code: a constant shift into a fixed-size array needs no mask and no
// bounds check on the probe's critical path, and a masked rank into the
// fixed-size view of syms none either. One whole-word refill leaves at
// least 57 valid bits, which covers four probes of at most TableBits each
// with no further checks. Every probe stores all four symbol slots and
// advances by the entry's count, so one to four codes share one
// branch-free path. The 16 symbols owed are four probes of four, so the
// unconditional stores stay inside out; the whole word left means every
// bit consumed is a stream bit, so truncation cannot occur here. A code
// longer than the table is resolved in place and the loop resumes: real
// quantization streams carry one every few hundred symbols, so a loop
// that bailed on the first would never run.
func (d *Decoder) fastWide(out []uint32, body []byte, t *table) (n int, acc uint64, nbit uint, pos int) {
	lut := t.lut
	syms := (*[1 << wideRankBits]uint32)(t.syms[:1<<wideRankBits])
	const (
		shift = 64 - TableBits
		mask  = 1<<wideRankBits - 1
	)
	for n+4*wideCodes <= len(out) && pos+8 <= len(body) {
		acc, nbit, pos = refillWord(acc, nbit, pos, body)
		for probe := 0; probe < 4; probe++ {
			e := lut[acc>>shift]
			l := uint(e & 0xff)
			if l-1 < TableBits {
				o := (*[wideCodes]uint32)(out[n:])
				o[0] = syms[e>>lutRankShift&mask]
				o[1] = syms[e>>(lutRankShift+wideRankBits)&mask]
				o[2] = syms[e>>(lutRankShift+2*wideRankBits)&mask]
				o[3] = syms[e>>(lutRankShift+3*wideRankBits)&mask]
				n += int(e>>lutCountShift) & 0xf
				acc <<= l & 63
				nbit -= l
				continue
			}
			// lutLong, a code longer than the table, unless the code is
			// invalid; the careful loop takes a long code near the end.
			if l == 0 || nbit < t.maxLen && pos+8 > len(body) {
				return n, acc, nbit, pos
			}
			if nbit < t.maxLen {
				acc, nbit, pos = refillWord(acc, nbit, pos, body)
			}
			sym, cl := d.resolveLong(acc, t)
			if cl == 0 {
				return n, acc, nbit, pos
			}
			acc <<= cl
			nbit -= cl
			out[n] = sym
			n++
			break // the budget of four probes per refill is spent
		}
	}
	return n, acc, nbit, pos
}

// fastNarrow is fastWide's twin for a narrow table: eight symbol slots
// stored a probe, as four pairs looked up by two ranks at a time, and 32
// symbols owed (four probes of eight) to enter it. A narrow table has no
// code longer than TableBits, so the loop has no overflow path.
func fastNarrow(out []uint32, body []byte, t *table) (n int, acc uint64, nbit uint, pos int) {
	lut, pairs := t.lut, t.pairs
	const (
		shift = 64 - TableBits
		mask  = 1<<(2*narrowRankBits) - 1
		pair  = 2 * narrowRankBits
	)
	for n+4*narrowCodes <= len(out) && pos+8 <= len(body) {
		acc, nbit, pos = refillWord(acc, nbit, pos, body)
		for probe := 0; probe < 4; probe++ {
			e := lut[acc>>shift]
			l := uint(e & 0xff)
			if l-1 >= TableBits {
				return n, acc, nbit, pos
			}
			o := (*[narrowCodes]uint32)(out[n:])
			*(*[2]uint32)(o[0:2]) = pairs[e>>lutRankShift&mask]
			*(*[2]uint32)(o[2:4]) = pairs[e>>(lutRankShift+pair)&mask]
			*(*[2]uint32)(o[4:6]) = pairs[e>>(lutRankShift+2*pair)&mask]
			*(*[2]uint32)(o[6:8]) = pairs[e>>(lutRankShift+3*pair)&mask]
			n += int(e>>lutCountShift) & 0xf
			acc <<= l & 63
			nbit -= l
		}
	}
	return n, acc, nbit, pos
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
// (first code, count) ranges of every length above t's window, returning
// its symbol and length, or length 0 if no code matches. Only the own
// table has codes that long.
func (d *Decoder) resolveLong(acc uint64, t *table) (uint32, uint) {
	maxLen := t.maxLen
	v := acc >> (64 - maxLen)
	for cl := t.tableBits + 1; cl <= maxLen; cl++ {
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
		return t.syms[int(d.base[cl])+int(off)], cl
	}
	return 0, 0
}

// build (re)fills table t from a canonicalized codebook: its layout, its
// probe window — min(maxLen, TableBits), the longest code the table
// resolves and the most bits a pair may span — and its maximum code
// length, and for codes longer than TableBits the decoder's overflow
// state. The codebook must be non-empty and satisfy Kraft (validated by
// the caller), which guarantees every fill range below stays in bounds.
//
// The layout is narrow for a small codebook, whose table also gets its
// rank pairs and is built only when the decoder's cache misses (table),
// and wide for any other. The table is filled in one walk over the
// canonical codes (tableWalk), a code a level to the layout's cap deep,
// that visits the entries in index order and writes each once. It rests
// on two facts about canonical codes: the codes of up to r bits are a
// prefix of the canonical order, so each level's candidates are the codes
// up to a length bound; and, left-aligned, they cover a prefix of the code
// space in that order. So a level's candidates tile the start of their
// parent's range — the codes that pair with an open step first — and the
// rest of the range, where the next code is longer than the bits left or
// absent, takes one of the parent's shorter entries in one fill. The same
// codes follow wherever a walk reaches the same depth and bits, so a range
// walked before is copied rather than walked again: most of a deep
// codebook's table is. Ranges are laid out at the full index width, so the
// walk fills the whole table for a codebook shallower than TableBits too.
func (d *Decoder) build(t *table, codes []symCode) {
	t.maxLen = uint(codes[len(codes)-1].len)
	t.tableBits = min(t.maxLen, TableBits)
	short := len(codes) // codes[:short] are the ones the table resolves
	for short > 0 && codes[short-1].len > TableBits {
		short--
	}
	w := tableWalk{window: t.tableBits, codes: codes[:short], rankBits: wideRankBits, maxCodes: wideCodes}
	if len(codes) <= smallCodes && t.maxLen <= TableBits {
		w.rankBits, w.maxCodes = narrowRankBits, narrowCodes
	}
	t.rankBits = w.rankBits
	if t.lut == nil {
		t.lut = new([1 << TableBits]uint64)
	}
	if need := max(1<<t.rankBits, len(codes)); cap(t.syms) < need {
		t.syms = make([]uint32, 0, need)
	}
	w.lut = t.lut
	t.syms = t.syms[:0]
	if t.maxLen > TableBits {
		clear(d.count[:])
	}
	for i, c := range codes {
		t.syms = append(t.syms, c.sym)
		cl := uint(c.len)
		if cl <= TableBits {
			w.cover[cl] += 1 << (TableBits - cl)
			continue
		}
		if d.count[cl] == 0 {
			d.first[cl] = c.code
			d.base[cl] = int32(i)
		}
		d.count[cl]++
	}
	for l := 1; l <= TableBits; l++ {
		w.cover[l] += w.cover[l-1]
	}
	w.steps(0, 0, 0, 0, 1<<TableBits)
	for _, c := range codes[short:] {
		w.lut[c.code>>(uint(c.len)-TableBits)] = lutLong
	}
	if t.rankBits == narrowRankBits {
		if t.pairs == nil {
			t.pairs = new([1 << (2 * narrowRankBits)][2]uint32)
		}
		// Pairs holding a rank past the codebook are never read.
		syms := t.syms[:1<<narrowRankBits]
		for i := range t.pairs {
			t.pairs[i] = [2]uint32{syms[i&(1<<narrowRankBits-1)], syms[i>>narrowRankBits]}
		}
	}
}

// tableWalk is build's fill. It walks the entries in index order, a code
// a level, knowing at each level whether the codes so far end on a step
// boundary (steps) or with a step's first code, which the next code may
// pair with (open).
type tableWalk struct {
	lut      *[1 << TableBits]uint64
	codes    []symCode // the codes of up to TableBits bits, canonical order
	window   uint      // two codes pair when they span at most this many bits
	rankBits uint      // the layout's rank width
	maxCodes uint      // and its cap on an entry's codes
	// cover[l] is how many of the 2^TableBits indices the codes of up to
	// l bits cover, left-aligned: a prefix of the index range.
	cover [TableBits + 1]int
	j     int // the next entry to write
	// walked[k][p] is the last range steps walked for k codes over p bits
	// from rank r on. Every entry under steps is its e plus what the codes
	// behind it add, so a later call for the same k, p and r copies that
	// range, less its e and plus its own.
	walked [narrowCodes][TableBits + 1]struct {
		r, j, n int
		e       uint64
	}
}

// withCode is entry e with code r of l bits appended as its (k+1)th code.
func (w *tableWalk) withCode(e uint64, k uint, r int, l uint) uint64 {
	e += uint64(r)<<(lutRankShift+k*w.rankBits) + 1<<lutCountShift + uint64(l)
	if k == 0 {
		e += uint64(l) << lutLen1Shift
	}
	return e
}

// steps fills the entries from w.j up to end, whose first p bits are the
// k < maxCodes codes of entry e, whole steps all, and whose next code is
// one of the codes from rank r on: each that fits the index opens a step,
// and the rest of the range is e.
func (w *tableWalk) steps(e uint64, k, p uint, r, end int) {
	if m := &w.walked[k][p]; m.n == end-w.j && m.r == r {
		src, d := w.lut[m.j:m.j+m.n], e-m.e
		dst := w.lut[w.j:][:len(src)]
		for x, v := range src {
			dst[x] = v + d
		}
		w.j = end
		return
	} else if k > 0 {
		m.r, m.j, m.n, m.e = r, w.j, end-w.j, e
	}
	for i := r; i < len(w.codes) && p+uint(w.codes[i].len) <= TableBits; i++ {
		l := uint(w.codes[i].len)
		w.open(e, w.withCode(e, k, i, l), k+1, p+l, l)
	}
	w.j = fill(w.lut, w.j, end, e)
}

// open fills the 2^(TableBits−p) entries from w.j on, whose first p bits
// are the k codes of entry single, the last of them (l bits) a step's
// first code; before is single without it. A next code of at most
// window−l bits pairs with it and closes the step, unless it would be one
// code past the layout's cap. Any other next code that fits the index
// shows the step to be one code, and so does an index that no pairing
// code can start. Where one may start past the index, the step is not
// settled and the entry is before: the probe ends on the step boundary
// ahead of it.
func (w *tableWalk) open(before, single uint64, k, p, l uint) {
	start, end := w.j, w.j+1<<(TableBits-p)
	pairMax := w.window - l
	i := 0
	for ; k < w.maxCodes && i < len(w.codes) && uint(w.codes[i].len) <= min(pairMax, TableBits-p); i++ {
		l2 := uint(w.codes[i].len)
		if e, next := w.withCode(single, k, i, l2), w.j+1<<(TableBits-p-l2); k == w.maxCodes-1 {
			w.j = fill(w.lut, w.j, next, e)
		} else {
			w.steps(e, k+1, p+l2, 0, next)
		}
	}
	// The codes of up to pairMax bits cover a prefix of the next code's
	// space; the indices that reach into it, past the pairs that fit,
	// cannot tell whether the step is one code or two.
	if unsettled := start + (w.cover[pairMax]+1<<p-1)>>p; unsettled > w.j {
		w.j = fill(w.lut, w.j, unsettled, before)
	}
	if k < w.maxCodes {
		w.steps(single, k, p, i, end)
	} else {
		w.j = fill(w.lut, w.j, end, single)
	}
}

// fill sets lut[lo:hi] to e and returns hi.
func fill(lut *[1 << TableBits]uint64, lo, hi int, e uint64) int {
	run := lut[lo:hi]
	for i := range run {
		run[i] = e
	}
	return hi
}
