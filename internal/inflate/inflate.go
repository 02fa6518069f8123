// Package inflate decodes DEFLATE streams (RFC 1951) held whole in memory.
//
// It accepts exactly the streams compress/flate's reader accepts and
// produces the same bytes from them: stored, fixed and dynamic blocks; at
// most 286 literal/length and 30 distance codes, an end-of-block code among
// them; complete codes only, save the single one-bit code and the empty
// distance code flate lets through; no repeat code 16 before a first
// length; no distance further back than the stream's own output; a stored
// LEN that its NLEN complements. Bytes after the final block are ignored.
//
// What it does not share with flate's reader is the machinery. The whole
// input is a slice, so the bit buffer is a 64-bit word refilled eight bytes
// at a time, held in locals for the length of a block; each code resolves
// through one primaryBits-wide table probe (codes longer than that, rare by
// construction, through the canonical first code of each length); output
// is appended straight into the caller's slice, where a match of distance
// eight or more copies a word at a time, with no window to stage it in.
package inflate

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
)

var (
	// ErrCorrupt reports a stream that breaks a rule of the format.
	ErrCorrupt = errors.New("inflate: corrupt stream")
	// ErrTruncated reports a stream that ends before its final block does.
	ErrTruncated = errors.New("inflate: stream truncated")
	// ErrLimit reports a stream that inflates to more than the limit.
	ErrLimit = errors.New("inflate: stream inflates past its limit")
)

const (
	primaryBits = 10
	primaryMask = 1<<primaryBits - 1
	maxCodeLen  = 15

	numLitLen = 288 // literal/length symbols with a fixed code; 286 and 287 never decode
	numDist   = 32  // distance symbols with a fixed code; 30 and 31 never decode

	// slack is the room a decoded block keeps past its output: one match
	// of the longest length, plus the seven bytes a word copy writes beyond
	// its last.
	slack = 258 + 7
)

// A table entry says everything one probe decodes:
//
//	bits  0–3   the code's length
//	bits  4–7   the extra bits that follow it
//	bits  8–11  entLit, entEOB, entLong or entBad
//	bits 16–31  the literal byte, or the base of a length or distance
//
// An entry with no flag is a length or distance.
const (
	entLit  = 1 << 8  // a literal
	entEOB  = 1 << 9  // the end of the block
	entLong = 1 << 10 // the first primaryBits bits of codes longer than them
	entBad  = 1 << 11 // no code, or a code of no symbol
)

// table is one prefix code ready to decode.
type table struct {
	primary [1 << primaryBits]uint32
	// Codes longer than primaryBits, by length l: first[l] is the first
	// code of that length (most significant bit first, as RFC 1951 §3.2.2
	// assigns them), count[l] how many there are, and their entries are
	// long[at[l]:][:count[l]], in code order.
	first, count, at [maxCodeLen + 1]uint16
	long             [numLitLen]uint32
}

// build makes t decode the code with the given lengths, where symbol s
// decodes to info[s]. It reports whether compress/flate accepts the code:
// complete, a single one-bit code, or no code at all — a tree a stream can
// then only fail to use.
func (t *table) build(lens []uint8, info []uint32) bool {
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	left, used := 1, 0
	for l := 1; l <= maxCodeLen; l++ {
		left = left<<1 - count[l]
		used += count[l]
	}
	switch {
	case left < 0:
		return false // over-subscribed
	case left > 0:
		if used > 1 || used == 1 && count[1] != 1 {
			return false
		}
		// A complete code writes every entry; these leave holes.
		for i := range t.primary {
			t.primary[i] = entBad
		}
	}
	var next [maxCodeLen + 1]int
	for l, code := 1, 0; l <= maxCodeLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for l, at := primaryBits+1, 0; l <= maxCodeLen; l++ {
		t.first[l], t.count[l], t.at[l] = uint16(next[l]), uint16(count[l]), uint16(at)
		at += count[l]
	}
	fill := t.at
	for s, l := range lens {
		if l == 0 {
			continue
		}
		code := next[l]
		next[l]++
		e := info[s] | uint32(l)
		if l <= primaryBits {
			// The stream carries a code's first bit lowest: reversed, it is
			// the index, repeated under every value of the bits past it.
			for i := reverse(code, uint(l)); i < len(t.primary); i += 1 << l {
				t.primary[i] = e
			}
			continue
		}
		t.primary[reverse(code>>(l-primaryBits), primaryBits)] = entLong
		t.long[fill[l]] = e
		fill[l]++
	}
	return true
}

// reverse returns the low n bits of v in reverse order.
func reverse(v int, n uint) int { return int(bits.Reverse16(uint16(v)) >> (16 - n)) }

// resolve decodes the code longer than primaryBits at the bottom of buf,
// of which at least maxCodeLen bits must be valid.
func (t *table) resolve(buf uint64) uint32 {
	v := uint(bits.Reverse16(uint16(buf))) >> (16 - maxCodeLen)
	for l := primaryBits + 1; l <= maxCodeLen; l++ {
		if off := v>>(maxCodeLen-l) - uint(t.first[l]); off < uint(t.count[l]) {
			return t.long[uint(t.at[l])+off]
		}
	}
	return entBad
}

// The symbols' meanings (RFC 1951 §3.2.5), as entries less the code length.
var (
	litLenInfo [numLitLen]uint32
	distInfo   [numDist]uint32
)

// The fixed codes of RFC 1951 §3.2.6.
var fixedLitLen, fixedDist table

func init() {
	lenBase := [...]uint32{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra := [...]uint32{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase := [...]uint32{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	for s := range litLenInfo {
		switch {
		case s < 256:
			litLenInfo[s] = uint32(s)<<16 | entLit
		case s == 256:
			litLenInfo[s] = entEOB
		case s-257 < len(lenBase):
			litLenInfo[s] = lenBase[s-257]<<16 | lenExtra[s-257]<<4
		default:
			litLenInfo[s] = entBad
		}
	}
	for s := range distInfo {
		distInfo[s] = entBad
		if s < len(distBase) {
			distInfo[s] = distBase[s]<<16 | uint32(max(s/2-1, 0))<<4
		}
	}

	var lens [numLitLen]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	fixedLitLen.build(lens[:], litLenInfo[:])
	for s := range numDist {
		lens[s] = 5
	}
	fixedDist.build(lens[:numDist], distInfo[:])
}

// Decoder inflates DEFLATE streams. It keeps the tables of a stream's
// dynamic codes, so that decoding allocates nothing but output. The zero
// value is ready to use; a Decoder is not safe for concurrent use.
type Decoder struct {
	litLen, dist table
	lens         [286 + 30]uint8 // a dynamic block's code lengths
}

// Append inflates the DEFLATE stream at the start of src and appends it to
// dst. A stream that would append more than limit bytes is refused with
// ErrLimit; dst then grows to at most limit bytes past its length, plus a
// few hundred of working room. On error the returned slice is nil, and
// dst's spare capacity may have been written.
func (d *Decoder) Append(dst, src []byte, limit int) ([]byte, error) {
	w := output{buf: dst[:cap(dst)], at: len(dst), start: len(dst)}
	w.end = w.start + min(limit, math.MaxInt/4)
	var s bitReader
	for {
		if s = s.refill(src); s.over > 8 {
			return nil, ErrTruncated
		}
		final, kind := s.buf&1 != 0, s.buf>>1&3
		s = s.drop(3)
		var err error
		switch kind {
		case 0:
			s, err = w.stored(s, src)
		case 1:
			s, err = w.codes(s, src, &fixedLitLen, &fixedDist)
		case 2:
			if s, err = d.readCodes(s, src); err == nil {
				s, err = w.codes(s, src, &d.litLen, &d.dist)
			}
		default:
			err = ErrCorrupt
		}
		if err != nil {
			return nil, err
		}
		if final {
			break
		}
	}
	if s.spent() {
		return nil, ErrTruncated
	}
	return w.buf[:w.at], nil
}

// bitReader is a position in a stream, passed and returned by value so
// that it lives in registers. Bits leave buf from the bottom, the stream's
// first bit first. Its bits from n up are either zero or the same bits of
// the input bytes at in, which lets a refill OR a whole word over them.
type bitReader struct {
	buf  uint64
	n    uint // valid bits in buf, < 64
	in   int  // the next byte of the input to load
	over int  // zero bytes loaded past the end of the input
}

// refill makes at least 56 bits of buf valid, loading every whole byte
// that fits from a word of the input.
func (s bitReader) refill(src []byte) bitReader {
	if s.in+8 > len(src) {
		return s.refillTail(src)
	}
	s.buf |= binary.LittleEndian.Uint64(src[s.in:]) << s.n
	s.in += int(63-s.n) >> 3
	s.n |= 56
	return s
}

// refillTail is refill within eight bytes of the end of src, a byte at a
// time. Past the end it loads zero bytes, counting them in over: a stream
// that spends one is truncated, which spent tells, and more than eight of
// them prove that it has (buf holds fewer than 64 bits).
func (s bitReader) refillTail(src []byte) bitReader {
	for s.n < 56 {
		if s.in < len(src) {
			s.buf |= uint64(src[s.in]) << s.n
			s.in++
		} else {
			s.over++
		}
		s.n += 8
	}
	return s
}

// drop consumes k valid bits.
func (s bitReader) drop(k uint) bitReader {
	s.buf >>= k
	s.n -= k
	return s
}

// spent reports whether the stream has consumed bits past its end.
func (s bitReader) spent() bool { return 8*s.over > int(s.n) }

// clenOrder is the order a dynamic block lists its code-length code in.
var clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// readCodes reads a dynamic block's header (RFC 1951 §3.2.7) into
// d.litLen and d.dist.
func (d *Decoder) readCodes(s bitReader, src []byte) (bitReader, error) {
	s = s.refill(src)
	nlit, ndist, nclen := int(s.buf&31)+257, int(s.buf>>5&31)+1, int(s.buf>>10&15)+4
	s = s.drop(14)
	if nlit > 286 || ndist > 30 {
		return s, ErrCorrupt
	}
	var clens [19]uint8
	for _, sym := range clenOrder[:nclen] {
		if s.n < 3 {
			s = s.refill(src)
		}
		clens[sym] = uint8(s.buf & 7)
		s = s.drop(3)
	}
	// The code-length code lives in d.litLen until the lengths it codes
	// are read. No code of it is longer than seven bits, so every one
	// resolves in the primary table.
	var clenInfo [19]uint32
	for sym := range clenInfo {
		clenInfo[sym] = uint32(sym) << 16
	}
	if !d.litLen.build(clens[:], clenInfo[:]) {
		return s, ErrCorrupt
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if s.n < 7+7 {
			if s = s.refill(src); s.over > 8 {
				return s, ErrTruncated
			}
		}
		e := d.litLen.primary[s.buf&primaryMask]
		if e&entBad != 0 {
			return s, ErrCorrupt
		}
		s = s.drop(uint(e & 15))
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		// Repeat the previous length (16), or a zero (17 and 18), a count
		// of times given by the extra bits.
		var rep, extra uint
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return s, ErrCorrupt
			}
			rep, extra, v = 3, 2, lens[i-1]
		case 17:
			rep, extra = 3, 3
		default:
			rep, extra = 11, 7
		}
		rep += uint(s.buf) & (1<<extra - 1)
		s = s.drop(extra)
		if i+int(rep) > len(lens) {
			return s, ErrCorrupt
		}
		for ; rep > 0; rep-- {
			lens[i] = v
			i++
		}
	}
	if lens[256] == 0 || !d.litLen.build(lens[:nlit], litLenInfo[:]) || !d.dist.build(lens[nlit:], distInfo[:]) {
		return s, ErrCorrupt
	}
	return s, nil
}

// output is where a stream inflates to: buf[start:at] so far, in the whole
// capacity of a slice; at may not pass end.
type output struct {
	buf            []byte
	start, at, end int
}

// grow makes buf hold n bytes past at.
func (w *output) grow(n int) {
	if w.at+n > len(w.buf) {
		w.buf = slices.Grow(w.buf[:w.at], n)
		w.buf = w.buf[:cap(w.buf)]
	}
}

// stored copies a stored block (RFC 1951 §3.2.4) from the byte after the
// block header, and returns the stream after it.
func (w *output) stored(s bitReader, src []byte) (bitReader, error) {
	// Whole bytes in buf were loaded but not consumed: step back over them.
	p := s.in + s.over - int(s.n>>3)
	if p+4 > len(src) {
		return s, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint16(src[p:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(src[p+2:]) {
		return s, ErrCorrupt
	}
	p += 4
	if p+n > len(src) {
		return s, ErrTruncated
	}
	if w.at+n > w.end {
		return s, ErrLimit
	}
	w.grow(n)
	w.at += copy(w.buf[w.at:], src[p:p+n])
	return bitReader{in: p + n}, nil
}

// codes decodes a block of Huffman codes (RFC 1951 §3.2.5) through the
// literal/length code lit and the distance code dist, up to and including
// its end-of-block code.
func (w *output) codes(s bitReader, src []byte, lit, dist *table) (bitReader, error) {
	buf, at, start := w.buf, w.at, w.start
	stop := min(len(buf)-slack, w.end+1)
	for {
		// A pass writes at most one match, which the slack past stop holds,
		// and an output past end is refused at the next.
		if at >= stop {
			if at > w.end {
				return s, ErrLimit
			}
			// The first growth takes a few times the input, the next ones
			// double the output, as far as the limit allows.
			w.at = at
			w.grow(slack + min(max(at-start, 4*len(src), 1024), w.end+1-at))
			buf = w.buf
			stop = min(len(buf)-slack, w.end+1)
		}
		// 48 bits hold a length code and its extra bits (20 at the most),
		// then a distance code and its own (28).
		if s.n < 48 {
			if s = s.refill(src); s.over > 8 {
				return s, ErrTruncated
			}
		}
		e := lit.primary[s.buf&primaryMask]
		if e&entLit != 0 {
			// Literals come in runs, and four of them from the primary
			// table take at most 40 of the 48 bits: no refill between.
			s.buf >>= e & 15
			s.n -= uint(e & 15)
			buf[at] = byte(e >> 16)
			at++
			for range 3 {
				if e = lit.primary[s.buf&primaryMask]; e&entLit == 0 {
					break
				}
				s.buf >>= e & 15
				s.n -= uint(e & 15)
				buf[at] = byte(e >> 16)
				at++
			}
			continue
		}
		if e&(entEOB|entLong|entBad) != 0 {
			if e&entLong != 0 {
				e = lit.resolve(s.buf)
			}
			switch {
			case e&entBad != 0:
				return s, ErrCorrupt
			case e&entEOB != 0:
				w.at = at
				return s.drop(uint(e & 15)), nil
			case e&entLit != 0:
				s = s.drop(uint(e & 15))
				buf[at] = byte(e >> 16)
				at++
				continue
			}
		}
		// A length: the code, then its extra bits as a number added to the
		// base, taken in one shift.
		n, all := e&15, e&15+e>>4&15
		length := int(e>>16) + int(s.buf&(1<<all-1)>>n)
		s = s.drop(uint(all))

		e = dist.primary[s.buf&primaryMask]
		if e&(entLong|entBad) != 0 {
			if e&entLong != 0 {
				e = dist.resolve(s.buf)
			}
			if e&entBad != 0 {
				return s, ErrCorrupt
			}
		}
		n, all = e&15, e&15+e>>4&15
		distance := int(e>>16) + int(s.buf&(1<<all-1)>>n)
		s = s.drop(uint(all))
		if distance > at-start {
			return s, ErrCorrupt
		}

		from := at - distance
		switch {
		case distance >= 8:
			// Each word read lies wholly before the one written: exact
			// however far the match overlaps itself.
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(buf[at+i:], binary.LittleEndian.Uint64(buf[from+i:]))
			}
		case distance == 1:
			v := uint64(buf[from]) * 0x0101010101010101
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(buf[at+i:], v)
			}
		default:
			for i := range length {
				buf[at+i] = buf[from+i]
			}
		}
		at += length
	}
}
