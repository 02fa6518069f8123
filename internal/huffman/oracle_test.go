package huffman

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitio"
)

// The decoder this package shipped before its single packed table (whose
// entries now hold up to four codes as canonical ranks), kept verbatim as
// a differential oracle: two parallel tables (lut holds sym1<<8 | len
// with oraclePairFlag, lutPair holds sym2<<8 | len1) and one careful
// per-probe loop with no fast path. Header parsing is shared with
// the production Decoder — it did not change — so the oracle pins exactly
// the table build and the symbol loop, outputs and error strings both.

const oraclePairFlag = uint64(1) << 40

type oracleDecoder struct {
	Decoder // header parsing and the parsed codebook
	lut     []uint64
	lutPair []uint64
	syms    []uint32
	first   [maxCodeLen + 1]uint64
	base    [maxCodeLen + 1]int32
	count   [maxCodeLen + 1]uint32
}

func (d *oracleDecoder) AppendDecode(dst []uint32, blob []byte) ([]uint32, error) {
	nsyms, body, err := d.parseCodebook(blob)
	if err != nil {
		return nil, err
	}
	if nsyms == 0 {
		return dst[:0], nil
	}
	tableBits, maxLen := d.build(canonicalize(d.codes))

	out := dst[:0]
	if cap(out) < nsyms {
		out = make([]uint32, 0, nsyms)
	}
	out = out[:nsyms]
	lut := d.lut
	lutPair := d.lutPair[:len(lut)]
	// len(lut) is a power of two, so masking the probe index proves the
	// accesses in bounds — without it the variable shift below defeats
	// bounds-check elimination and every probe pays a checked branch.
	mask := uint64(len(lut) - 1)
	shift := 64 - tableBits
	var (
		acc  uint64
		nbit uint
		pos  int
	)
	for n := 0; n < nsyms; n++ {
		// Refill only when the primary probe could run short: the bits of
		// acc beyond nbit mirror the bytes still at pos, so the probe
		// value is the same either way and a deep codebook (large maxLen)
		// does not force a refill per symbol — short, frequent codes
		// refill once per ~(64-tableBits) consumed bits. The overflow
		// path refills again for its maxLen-bit view.
		if nbit < tableBits {
			if pos+8 <= len(body) {
				acc |= binary.BigEndian.Uint64(body[pos:]) >> nbit
				adv := (64 - nbit) >> 3
				pos += int(adv)
				nbit += adv * 8
			} else {
				for nbit <= 56 && pos < len(body) {
					acc |= uint64(body[pos]) << (56 - nbit)
					pos++
					nbit += 8
				}
			}
		}
		idx := (acc >> shift) & mask
		e := lut[idx]
		l := uint(e & 0xff)
		if l == 0 {
			return nil, fmt.Errorf("huffman: invalid code at symbol %d", n)
		}
		if l != lutLong {
			if e&oraclePairFlag != 0 && n+1 < nsyms {
				// Paired entry: two complete codes in one probe.
				if l > nbit {
					return nil, fmt.Errorf("huffman: bit stream truncated at symbol %d: %w", n, bitio.ErrUnexpectedEOF)
				}
				acc <<= l
				nbit -= l
				out[n] = uint32(e >> 8)
				n++
				out[n] = uint32(lutPair[idx&mask] >> 8)
				continue
			}
			if e&oraclePairFlag != 0 {
				// The claimed symbol count ends between the pair: consume
				// only the first code's own length.
				l = uint(lutPair[idx&mask] & 0xff)
			}
			if l > nbit {
				return nil, fmt.Errorf("huffman: bit stream truncated at symbol %d: %w", n, bitio.ErrUnexpectedEOF)
			}
			acc <<= l
			nbit -= l
			out[n] = uint32(e >> 8)
			continue
		}
		// Overflow path: resolve codes longer than the primary table by
		// canonical (first code, offset) comparison per length.
		if nbit < maxLen {
			if pos+8 <= len(body) {
				acc |= binary.BigEndian.Uint64(body[pos:]) >> nbit
				adv := (64 - nbit) >> 3
				pos += int(adv)
				nbit += adv * 8
			} else {
				for nbit <= 56 && pos < len(body) {
					acc |= uint64(body[pos]) << (56 - nbit)
					pos++
					nbit += 8
				}
			}
		}
		v := acc >> (64 - maxLen)
		matched := false
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
			if cl > nbit {
				return nil, fmt.Errorf("huffman: bit stream truncated at symbol %d: %w", n, bitio.ErrUnexpectedEOF)
			}
			acc <<= cl
			nbit -= cl
			out[n] = d.syms[int(d.base[cl])+int(off)]
			matched = true
			break
		}
		if !matched {
			return nil, fmt.Errorf("huffman: invalid code at symbol %d", n)
		}
	}
	return out, nil
}

func (d *oracleDecoder) build(codes []symCode) (tableBits uint, maxLen uint) {
	maxLen = uint(codes[len(codes)-1].len)
	tableBits = maxLen
	if tableBits > TableBits {
		tableBits = TableBits
	}
	size := 1 << tableBits
	if cap(d.lut) < size {
		d.lut = make([]uint64, size)
	}
	d.lut = d.lut[:size]
	clear(d.lut)
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
			entry := uint64(c.sym)<<8 | uint64(c.len)
			lo := c.code << (tableBits - cl)
			hi := lo + 1<<(tableBits-cl)
			for j := lo; j < hi; j++ {
				d.lut[j] = entry
			}
			continue
		}
		if d.count[cl] == 0 {
			d.first[cl] = c.code
			d.base[cl] = int32(i)
		}
		d.count[cl]++
		d.lut[c.code>>(cl-tableBits)] = lutLong
	}

	// Second pass: pair entries. Where the first code leaves enough index
	// bits to fully determine a second complete code, the entry consumes
	// both in one probe: quantization streams are dominated by one short
	// code (values near the prediction), so most probes then emit two
	// symbols. The paired entry keeps sym1 and the combined length and
	// sets oraclePairFlag; the parallel lutPair table carries sym2 and the
	// first code's own length (needed when the claimed symbol count ends
	// between the two).
	if cap(d.lutPair) < size {
		d.lutPair = make([]uint64, size)
	}
	d.lutPair = d.lutPair[:size]
	for idx, e := range d.lut {
		l1 := uint(e & 0xff)
		if l1 == 0 || l1 == lutLong || l1 > tableBits {
			continue
		}
		idx2 := (uint(idx) << l1) & uint(size-1)
		e2 := d.lut[idx2]
		l2 := uint(e2 & 0xff)
		if e2&oraclePairFlag != 0 {
			// idx2 was already paired; recover its first code's own length.
			l2 = uint(d.lutPair[idx2] & 0xff)
		}
		if l2 == 0 || l2 == lutLong || l1+l2 > tableBits {
			continue
		}
		d.lutPair[idx] = uint64(uint32(e2>>8))<<8 | uint64(l1)
		d.lut[idx] = (e &^ 0xff) | uint64(l1+l2) | oraclePairFlag
	}
	return tableBits, maxLen
}
