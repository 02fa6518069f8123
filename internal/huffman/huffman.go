// Package huffman implements a canonical Huffman coder over uint32 symbol
// streams. It is the entropy stage of the SZ-style compressor (Sec. 2.1 of
// the TAC paper: "apply a customized Huffman coding and lossless compression
// to achieve a higher ratio").
//
// Codes are canonical: only the code length of each present symbol is
// serialized, and both sides reconstruct identical codebooks, so the header
// overhead stays small even for large quantization-bin alphabets.
//
// Both directions are table-driven. The encoder counts frequencies into a
// dense histogram, one counter per symbol, builds the code lengths from
// one sort of the codebook's symbols and a two-queue merge, and emits
// through one packed table — an entry per symbol holding its code and
// length — eight symbols to a step, whenever the alphabet is small (the
// common case: quantization codes are bounded by 2^QuantBits). Sparse
// 32-bit alphabets fall back to maps. The decoder resolves codes
// through one lookup table indexed by the next TableBits bits of the
// stream: each 8-byte entry carries up to four complete codes, as
// canonical ranks into a rank→symbol array, and the bits they consume, so
// a probe is one table load and four rank loads — 32 KiB of table and
// 16 KiB of ranks, an L1 cache's worth — and the inner loop refills its
// bit accumulator once per four probes. The table is built in one nested
// fill over the canonical codes that writes each entry once. Codes longer
// than TableBits take a canonical first-code/offset path and the loop
// carries on; only the last few symbols of a stream run through a
// bounds-checking per-probe loop.
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
	// maxCodeLen bounds serialized code lengths so any code fits in the 57
	// bits one refill of the decoder's accumulator guarantees. Lengths
	// beyond it are redistributed (not clamped) by limitLengths, preserving
	// prefix-freeness.
	maxCodeLen = 57

	// TableBits is the index width of the decode table: one
	// 2^TableBits-entry lookup resolves every code of up to TableBits
	// bits — and up to three more behind it, when they fit — in a single
	// probe. Each pooled Decoder keeps a 2^TableBits × 8-byte table
	// (32 KiB) and a 2^TableBits × 4-byte rank→symbol array (16 KiB) warm
	// across calls. The width is not a tuning knob: an entry holds four
	// TableBits-bit ranks above 16 bits of header, which caps it at 12
	// (checked at compile time below), and a narrower table is slower, as
	// more codes take the overflow path. Codes longer than TableBits (rare
	// by construction: a code that long had a tiny frequency) take the
	// canonical first-code overflow path.
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
// packs freq<<32 | sym<<16 | index into one uint64 key wherever they fit
// 32, 16 and 16 bits — every dense stream — and falls back to a
// comparison sort otherwise; one merge loop serves both.
func (tb *treeBuilder) codeLengths(dst []symCode, sf []symFreq) []symCode {
	n := len(sf)
	switch n {
	case 0:
		return dst
	case 1:
		return append(dst, symCode{sym: sf[0].sym, len: 1})
	}
	leaves, keys := tb.leaves[:0], tb.keys[:0]
	packed := n <= 1<<16
	for i, p := range sf {
		if !packed || p.freq >= 1<<32 || p.sym >= 1<<16 {
			packed = false
			break
		}
		keys = append(keys, p.freq<<32|uint64(p.sym)<<16|uint64(i))
	}
	if packed {
		slices.Sort(keys)
		for _, k := range keys {
			leaves = append(leaves, subtree{freq: k >> 32, sym: uint32(k>>16) & 0xffff, node: int32(k & 0xffff)})
		}
	} else {
		for i, p := range sf {
			leaves = append(leaves, subtree{freq: p.freq, sym: p.sym, node: int32(i)})
		}
		slices.SortFunc(leaves, func(a, b subtree) int {
			return cmp.Or(cmp.Compare(a.freq, b.freq), cmp.Compare(a.sym, b.sym))
		})
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
// The dense tables are sized by denseAlphabet, not by the alphabet in use:
// an Encoder that has coded a non-empty dense stream holds 256 KiB of
// histogram and 512 KiB of emit table from then on.
type Encoder struct {
	hist  []uint32                          // a counter per dense symbol, all-zero between calls
	mark  [denseAlphabet >> markShift]uint8 // blocks of hist counted into, all-zero between calls
	freq  map[uint32]uint64                 // sparse-alphabet frequency fallback
	sf    []symFreq                         // (symbol, frequency) worklist, in symbol order
	tb    treeBuilder
	codes []symCode         // the codebook, in symbol order like sf
	emit  []uint64          // dense emit table, indexed by symbol; stale outside the codebook
	table map[uint32]uint64 // sparse emit fallback, same entries
	hdr   []byte
}

// AppendEncode Huffman-codes syms and appends the self-contained blob
// (codebook header + bit stream) to dst, returning the extended slice.
func (e *Encoder) AppendEncode(dst []byte, syms []uint32) []byte {
	dense := e.count(syms)
	nbits := e.build(len(syms), dense)
	return e.emitBits(bitio.AppendBytes(dst, e.hdr), syms, dense, nbits)
}

// CodesZero reports whether the stream of the AppendEncode that has just
// returned holds symbol 0 — the codebook's first entry if any, as it lists
// the symbols the stream holds in increasing order. It is the twin of
// Decoder.CodesZero: true here, and the payload's codebook has a code for 0.
func (e *Encoder) CodesZero() bool { return len(e.codes) > 0 && e.codes[0].sym == 0 }

// build turns the frequencies in e.sf, of a stream of nsyms symbols, into
// the codebook, the header and the emit table (dense or sparse), and
// returns the length of the bit stream.
func (e *Encoder) build(nsyms int, dense bool) (nbits uint64) {
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

	switch {
	case len(codes) == 0:
		// Nothing to emit: no table, dense or sparse, is touched.
	case dense:
		if e.emit == nil {
			e.emit = make([]uint64, denseAlphabet)
		}
		for _, c := range codes {
			e.emit[c.sym] = c.code<<lenBits | uint64(c.len)
		}
	default:
		if e.table == nil {
			e.table = make(map[uint32]uint64, len(codes))
		} else {
			clear(e.table)
		}
		for _, c := range codes {
			e.table[c.sym] = c.code<<lenBits | uint64(c.len)
		}
	}
	return nbits
}

// count fills e.sf with the frequency of every distinct symbol, in symbol
// order, and reports whether the alphabet is dense (all below
// denseAlphabet).
//
// The dense histogram keeps one counter per symbol and holds an all-zero
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
func (e *Encoder) count(syms []uint32) (dense bool) {
	sf := e.sf[:0]
	dense = uint64(len(syms)) < 1<<32 // a counter holds 32 bits
	// A wide alphabet's bins lie past the dense range almost to a symbol
	// (all but the literal marker), so three samples spare nearly every
	// sparse stream the dense pass and its undoing; any they miss, the
	// pass finds.
	if n := len(syms); n > 0 && syms[0]|syms[n/2]|syms[n-1] >= denseAlphabet {
		dense = false
	}
	if dense && len(syms) > 0 {
		if e.hist == nil {
			e.hist = make([]uint32, denseAlphabet)
		}
		h := (*[denseAlphabet]uint32)(e.hist)
		mark := &e.mark
		const m = denseAlphabet - 1
		var any uint32 // reaches denseAlphabet iff some symbol does
		for _, s := range syms {
			x := s & m
			v := h[x]
			h[x] = v + 1
			if v == 0 {
				mark[x>>markShift] = 1
			}
			any |= s
		}
		dense = any < denseAlphabet
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
				// Symbols past the dense range wrapped into it: their
				// counts are taken back out, not collected.
				if dense {
					sf = append(sf, symFreq{sym: uint32(b<<markShift + j), freq: uint64(f)})
				}
			}
		}
	}
	if !dense {
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
		slices.SortFunc(sf, func(a, b symFreq) int { return cmp.Compare(a.sym, b.sym) })
	}
	e.sf = sf
	return dense
}

// emitBits appends the nbits-long bit stream of syms to dst, through the
// emit table build left (dense or sparse).
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
func (e *Encoder) emitBits(dst []byte, syms []uint32, dense bool, nbits uint64) []byte {
	if len(syms) == 0 {
		return dst
	}
	start, body := len(dst), int((nbits+7)/8)
	// Whole-word stores run up to 7 bytes past the stream's last.
	dst = slices.Grow(dst, body+8)
	buf := dst[start : start+body+8]
	var w bitPacker
	if dense {
		tab := (*[denseAlphabet]uint64)(e.emit)
		const m = denseAlphabet - 1
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
	} else {
		for _, s := range syms {
			ent := e.table[s]
			w = w.put(buf, ent>>lenBits, uint(ent&lenMask))
		}
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
//	bits  8–11  codes the probe emits: 1, 2 or 4
//	bits 12–15  len1, the first code's own length
//	bits 16–63  the codes' canonical ranks, TableBits bits each, first
//	            code lowest; unused slots hold rank 0
//
// A code's rank is its index in canonical (length, symbol) order, and
// Decoder.syms maps it back to the symbol. Codes of up to TableBits bits
// come first in that order, and there are at most 2^TableBits of them, so
// their ranks fit TableBits bits whatever the symbols' width.
//
// A probe takes whole steps of the per-symbol loop the decoder replaced
// (oracle_test.go): a step is one code, or two when both fit the window
// min(maxLen, TableBits). An entry holds its index's first step, and the
// step after it too when both steps are pairs and all four codes fit the
// index — so never three codes, and a probe never ends inside a step. The
// careful loop relies on it: it takes one step at a time, pairing codes by
// the old loop's rule, from wherever the fast loop stopped. In a codebook
// whose window holds no two codes (2·minLen > window) every step is one
// code and any run of codes is whole steps, so there the entries pair
// codes the same way with the whole index as the window.
//
// A zero entry is an unassigned (invalid) code; lutLong in the low byte
// marks the prefix of one or more codes longer than the table index,
// which resolve through the canonical first-code path.
const (
	lutLong       = 0xff
	lutCountShift = 8
	lutLen1Shift  = 12
	lutRankShift  = 16
	rankMask      = 1<<TableBits - 1
)

// Four ranks of TableBits bits must fit above the entry's header: this
// constant overflows, and the package does not compile, if they do not.
const _ uint = 64 - lutRankShift - 4*TableBits

// len1 extracts an entry's first-code length: 0 for an invalid or long
// entry.
func len1(e uint64) uint { return uint(e>>lutLen1Shift) & 0xf }

// Decoder holds the reusable decode-side scratch: the parsed codebook, the
// primary lookup table, the rank→symbol array and the canonical overflow
// tables, kept warm across calls so steady-state decoding allocates only
// the output. The zero value is ready to use; a Decoder is not safe for
// concurrent use — pool one per goroutine (internal/sz's Decoder engines
// do exactly that).
type Decoder struct {
	codes []symCode // parsed codebook, in header (symbol) order
	canon []symCode // the same codebook in canonical order, codes assigned
	lut   []uint64  // 2^TableBits packed entries, allocated on first use
	// syms holds the symbols in canonical order: indexed by a table
	// entry's ranks and by the overflow path. Its capacity is at least
	// 2^TableBits, so a masked rank indexes it without a bounds check.
	syms []uint32

	// Canonical decode state for code lengths in (TableBits, maxCodeLen]:
	// at length l, codes occupy [first[l], first[l]+count[l]) and map to
	// syms[base[l]+...].
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
	tableBits, maxLen := d.build(d.canonical())

	out := slices.Grow(dst, nsyms)[:len(dst)+nsyms]
	if err := d.decode(out[len(dst):], body, tableBits, maxLen); err != nil {
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

// decode fills out from the bit stream in body through the tables build
// left behind.
//
// Both loops run on a local bit-reader state — accumulator, valid-bit
// count and byte cursor — passed by value, so the per-symbol cost is a
// table load and two shifts with no method-call or pointer traffic. The
// refills (refillWord, refillTail) load whole big-endian words, byte by
// byte within eight bytes of the end, and keep the bits of acc beyond nbit
// equal to the bytes still at pos; a code claiming more bits than the
// stream holds reports bitio.ErrUnexpectedEOF.
func (d *Decoder) decode(out []uint32, body []byte, tableBits, maxLen uint) error {
	// The table is always indexed by TableBits bits, whatever the deepest
	// code: a constant shift into a fixed-size array needs no mask and no
	// bounds check on the probe's critical path, and a masked rank into
	// the fixed-size view of syms none either.
	lut := (*[1 << TableBits]uint64)(d.lut)
	syms := (*[1 << TableBits]uint32)(d.syms[:1<<TableBits])
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
	// Every probe stores all four symbol slots and advances by the entry's
	// count, so one, two and four codes share one branch-free path. It
	// runs while at least 16 symbols are owed (four probes of four, so the
	// unconditional stores stay inside out) and a whole word is left to
	// load (so every bit consumed is a stream bit and truncation cannot
	// occur here). A code longer than the table is resolved in place and
	// the loop resumes: real quantization streams carry one every few
	// hundred symbols, so a loop that bailed on the first would never run.
fast:
	for n+16 <= len(out) && pos+8 <= len(body) {
		acc, nbit, pos = refillWord(acc, nbit, pos, body)
		for probe := 0; probe < 4; probe++ {
			e := lut[acc>>shift]
			l := uint(e & 0xff)
			if l-1 < TableBits {
				o := (*[4]uint32)(out[n:])
				o[0] = syms[e>>lutRankShift&rankMask]
				o[1] = syms[e>>(lutRankShift+TableBits)&rankMask]
				o[2] = syms[e>>(lutRankShift+2*TableBits)&rankMask]
				o[3] = syms[e>>(lutRankShift+3*TableBits)&rankMask]
				n += int(e>>lutCountShift) & 0xf
				acc <<= l & 63
				nbit -= l
				continue
			}
			if l == 0 {
				return fmt.Errorf("huffman: invalid code at symbol %d", n)
			}
			// lutLong: a code longer than the table.
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

	// Careful loop: the last <16 symbols or last 8 bytes, one step at a
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
		sym := syms[e>>lutRankShift&rankMask]
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
			// Two complete codes within the window decode as one step —
			// all or nothing against the bits left — unless the claimed
			// symbol count ends between them. The second code is read
			// from its own entry: an entry's count does not say whether
			// its first two codes are one step.
			e2 := lut[(idx<<l)&mask]
			if l2 := len1(e2); l2 != 0 && l+l2 <= tableBits {
				l += l2
				out[n+1] = syms[e2>>lutRankShift&rankMask]
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
// The table is filled in one walk, nested four deep (first code, second,
// third, fourth), that visits the entries in index order and writes each
// once. It rests on two facts about canonical codes: the codes of up to r
// bits are a prefix of the canonical order, so each level's candidates
// are the codes up to a length bound; and, left-aligned to r bits, they
// cover a prefix of the r-bit range in that order. So a level's candidates
// tile the start of their parent's range, and the rest of it — where the
// next code is longer than the bits left, or absent — takes the parent's
// shorter entry in one fill. Ranges are laid out at the full index width,
// so the walk fills the whole table for a codebook shallower than
// TableBits too.
func (d *Decoder) build(codes []symCode) (tableBits uint, maxLen uint) {
	maxLen = uint(codes[len(codes)-1].len)
	tableBits = min(maxLen, TableBits)
	if d.lut == nil {
		d.lut = make([]uint64, 1<<TableBits)
	}
	if cap(d.syms) < 1<<TableBits {
		d.syms = make([]uint32, 0, max(1<<TableBits, len(codes)))
	}
	d.syms = d.syms[:0]
	if maxLen > TableBits {
		clear(d.count[:])
	}
	short := len(codes) // codes[:short] are the ones the table resolves
	for i, c := range codes {
		d.syms = append(d.syms, c.sym)
		cl := uint(c.len)
		if cl <= TableBits {
			continue
		}
		short = min(short, i)
		if d.count[cl] == 0 {
			d.first[cl] = c.code
			d.base[cl] = int32(i)
		}
		d.count[cl]++
	}

	lut := (*[1 << TableBits]uint64)(d.lut)
	minLen := uint(codes[0].len)
	// Two codes pair when both fit the window. Where no two codes do,
	// every step is one code and any run of codes is whole steps, so
	// entries pair codes across the whole index instead.
	window := tableBits
	if 2*minLen > tableBits {
		window = TableBits
	}
	j := 0 // the next entry to write
	for r1, c1 := range codes[:short] {
		l1 := uint(c1.len)
		one := uint64(r1)<<lutRankShift | uint64(l1)<<lutLen1Shift | 1<<lutCountShift | uint64(l1)
		end1 := j + 1<<(TableBits-l1)
		for r2, c2 := range codes[:short] {
			t := l1 + uint(c2.len)
			if t > window {
				break
			}
			pair := uint64(r2)<<(lutRankShift+TableBits) | uint64(r1)<<lutRankShift | uint64(l1)<<lutLen1Shift
			two := pair | 2<<lutCountShift | uint64(t)
			end2 := j + 1<<(TableBits-t)
			// A second pair joins only when it fits both the window and
			// the index bits left.
			room := min(window, TableBits-t)
			for r3, c3 := range codes[:short] {
				l3 := uint(c3.len)
				if l3+minLen > room {
					break
				}
				quad := pair | uint64(r3)<<(lutRankShift+2*TableBits) | 4<<lutCountShift
				end3 := j + 1<<(TableBits-t-l3)
				for r4, c4 := range codes[:short] {
					l4 := uint(c4.len)
					if l3+l4 > room {
						break
					}
					tt := t + l3 + l4
					j = fill(lut, j, j+1<<(TableBits-tt), quad|uint64(r4)<<(lutRankShift+3*TableBits)|uint64(tt))
				}
				j = fill(lut, j, end3, two)
			}
			j = fill(lut, j, end2, two)
		}
		j = fill(lut, j, end1, one)
	}
	clear(lut[j:])
	for _, c := range codes[short:] {
		lut[c.code>>(uint(c.len)-TableBits)] = lutLong
	}
	return tableBits, maxLen
}

// fill sets lut[lo:hi] to e and returns hi.
func fill(lut *[1 << TableBits]uint64, lo, hi int, e uint64) int {
	run := lut[lo:hi]
	for i := range run {
		run[i] = e
	}
	return hi
}
