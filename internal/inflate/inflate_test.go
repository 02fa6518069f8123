package inflate

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// flateReads is the oracle: what compress/flate's reader makes of src.
func flateReads(src []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(src)))
}

func deflate(tb testing.TB, data []byte, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := fw.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// agree fails unless d and flate make the same of src under limit: the same
// bytes, appended after what dst held; both a refusal; or, for a stream
// flate reads to more than limit bytes, ErrLimit.
func agree(tb testing.TB, d *Decoder, src []byte, limit int) {
	tb.Helper()
	want, werr := flateReads(src)
	got, err := d.Append([]byte("kept"), src, limit)
	switch {
	case werr != nil:
		if err == nil {
			tb.Fatalf("flate refuses the stream (%v); Append read %d bytes", werr, len(got)-4)
		}
	case len(want) > limit:
		if !errors.Is(err, ErrLimit) {
			tb.Fatalf("flate reads %d bytes, past the limit %d; Append: %d bytes, err %v", len(want), limit, len(got)-4, err)
		}
	case err != nil:
		tb.Fatalf("flate reads %d bytes; Append: %v", len(want), err)
	case string(got) != "kept"+string(want):
		tb.Fatalf("Append read %d bytes, other than the %d flate reads", len(got)-4, len(want))
	}
}

// bitWriter hand-builds streams: bits go out first bit lowest, as DEFLATE
// packs them.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

// bits writes the low n bits of v, lowest first: a header field or extra bits.
func (w *bitWriter) bits(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// code writes an n-bit Huffman code, its first bit highest.
func (w *bitWriter) code(c int, n uint) *bitWriter {
	for i := int(n) - 1; i >= 0; i-- {
		w.bits(uint64(c>>i&1), 1)
	}
	return w
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// canonical returns the codes RFC 1951 §3.2.2 assigns to lengths lens.
func canonical(lens []uint8) []int {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var next [16]int
	for l, c := 1, 0; l < 16; l++ {
		c = (c + count[l-1]) << 1
		next[l] = c
	}
	codes := make([]int, len(lens))
	for s, l := range lens {
		if l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// dynamic writes the header of a dynamic block with the given code lengths:
// HLIT, HDIST and HCLEN from their counts, and every length written as its
// own 4-bit code-length code (symbols 0–15 at length 4, no repeats).
func (w *bitWriter) dynamic(lit, dist []uint8) *bitWriter {
	w.bits(1, 1).bits(2, 2) // BFINAL, BTYPE 10
	w.bits(uint64(len(lit)-257), 5).bits(uint64(len(dist)-1), 5).bits(15, 4)
	for _, sym := range []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15} {
		if sym >= 16 {
			w.bits(0, 3)
		} else {
			w.bits(4, 3)
		}
	}
	for _, l := range append(append([]uint8{}, lit...), dist...) {
		w.code(int(l), 4)
	}
	return w
}

// lengths returns n zero code lengths but for the ones set.
func lengths(n int, set map[int]uint8) []uint8 {
	lens := make([]uint8, n)
	for s, l := range set {
		lens[s] = l
	}
	return lens
}

// Fixed-code symbols (RFC 1951 §3.2.6).
func (w *bitWriter) fixedLit(sym int) *bitWriter {
	switch {
	case sym < 144:
		return w.code(0x30+sym, 8)
	case sym < 256:
		return w.code(0x190+sym-144, 9)
	case sym < 280:
		return w.code(sym-256, 7)
	default:
		return w.code(0xc0+sym-280, 8)
	}
}

// fixedMatch writes the length-3 code (257) and distance code dcode with
// its extra bits.
func (w *bitWriter) fixedMatch(dcode int, extra uint64, nextra uint) *bitWriter {
	return w.fixedLit(257).code(dcode, 5).bits(extra, nextra)
}

// handBuilt are streams compress/flate's writer never produces, each with
// whether flate reads it.
func handBuilt() map[string]struct {
	src []byte
	ok  bool
} {
	abc := []byte{0, 3, 0, 0xfc, 0xff, 'a', 'b', 'c'} // stored, not final
	final := append([]byte{1}, abc[1:]...)
	fixed := func() *bitWriter { return new(bitWriter).bits(1, 1).bits(1, 2) }
	litOnly := lengths(257, map[int]uint8{'a': 1, 'b': 2, 256: 2})
	abba := func(w *bitWriter) []byte {
		c := canonical(litOnly)
		return w.code(c['a'], 1).code(c['b'], 2).code(c['b'], 2).code(c['a'], 1).code(c[256], 2).bytes()
	}
	withLen := lengths(258, map[int]uint8{'a': 1, 257: 2, 256: 2})
	eobOnly := lengths(257, map[int]uint8{256: 1})
	cases := map[string]struct {
		src []byte
		ok  bool
	}{
		"stored, then fixed": {append(bytes.Clone(abc), 0x03, 0x00), true},
		"trailing bytes":     {append(bytes.Clone(final), "trailing"...), true},
		"padding bits set":   {append([]byte{0xf9}, abc[1:]...), true}, // the five bits after BTYPE
		"two stored blocks":  {[]byte{0, 1, 0, 0xfe, 0xff, 'a', 1, 1, 0, 0xfe, 0xff, 'b'}, true},
		"empty stored":       {[]byte{1, 0, 0, 0xff, 0xff}, true},
		"empty":              {[]byte{}, false},
		"no final block":     {abc, false},
		"short header":       {final[:4], false},
		"short block":        {final[:7], false},
		"bad NLEN":           {[]byte{1, 3, 0, 0xfc, 0xfe, 'a', 'b', 'c'}, false},
		"reserved BTYPE":     {[]byte{7, 3, 0, 0xfc, 0xff, 'a', 'b', 'c'}, false},

		"fixed, empty":                {fixed().fixedLit(256).bytes(), true},
		"distance to the start":       {fixed().fixedLit('a').fixedMatch(0, 0, 0).fixedLit(256).bytes(), true},
		"distance one past the start": {fixed().fixedLit('a').fixedMatch(1, 0, 0).fixedLit(256).bytes(), false},
		"fixed length code 286":       {fixed().fixedLit('a').fixedLit(286).code(0, 5).fixedLit(256).bytes(), false},
		"fixed distance code 30":      {fixed().fixedLit('a').fixedLit(257).code(30, 5).fixedLit(256).bytes(), false},
		"length 258 as 284 + 31":      {fixed().fixedLit('a').fixedLit(284).bits(31, 5).code(0, 5).fixedLit(256).bytes(), true},
		"truncated fixed block":       {fixed().fixedLit('a').fixedLit('b').bytes()[:1], false},

		"literals, empty distance code": {abba(new(bitWriter).dynamic(litOnly, []uint8{0})), true},
		"match, empty distance code": {func() []byte {
			w, c := new(bitWriter).dynamic(withLen, []uint8{0}), canonical(withLen)
			return w.code(c['a'], 1).code(c[257], 2).code(c[256], 2).bytes()
		}(), false},
		"one-bit literal code":          {new(bitWriter).dynamic(eobOnly, []uint8{1}).code(0, 1).bytes(), true},
		"one-bit code, its unused half": {new(bitWriter).dynamic(eobOnly, []uint8{1}).code(1, 1).bytes(), false},
		"one code of two bits":          {new(bitWriter).dynamic(lengths(257, map[int]uint8{256: 2}), []uint8{1}).code(0, 2).bytes(), false},
		"incomplete literal code":       {abba(new(bitWriter).dynamic(lengths(257, map[int]uint8{'a': 1, 'b': 2, 256: 3}), []uint8{0})), false},
		"over-subscribed literal code":  {abba(new(bitWriter).dynamic(lengths(257, map[int]uint8{'a': 1, 'b': 1, 256: 2}), []uint8{0})), false},
		"no end-of-block code":          {new(bitWriter).dynamic(lengths(257, map[int]uint8{'a': 1, 'b': 1}), []uint8{0}).code(0, 1).bytes(), false},
		"HLIT 287":                      {abba(new(bitWriter).dynamic(append(bytes.Clone(litOnly), make([]uint8, 30)...), []uint8{0})), false},
		"HDIST 31":                      {abba(new(bitWriter).dynamic(litOnly, make([]uint8, 31))), false},
		"HLIT 286, HDIST 30":            {abba(new(bitWriter).dynamic(append(bytes.Clone(litOnly), make([]uint8, 29)...), make([]uint8, 30))), true},
		"repeat code 16 first": {new(bitWriter).bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(0, 4).
			bits(1, 3).bits(0, 3).bits(0, 3).bits(1, 3). // code-length codes 16 and 0, one bit each
			code(1, 1).bits(0, 2).bytes(), false},
	}
	return cases
}

// TestInflateCases runs the hand-built streams, and checks that each is
// the case it claims: read by flate or refused by it.
func TestInflateCases(t *testing.T) {
	var d Decoder
	for name, c := range handBuilt() {
		if _, err := flateReads(c.src); (err == nil) != c.ok {
			t.Errorf("%s: flate's verdict %v, want ok=%v: not the stream this case is for", name, err, c.ok)
			continue
		}
		t.Run(name, func(t *testing.T) { agree(t, &d, c.src, math.MaxInt) })
	}
}

// TestInflateLimit: a stream of exactly limit bytes is read, one more
// refused, without growing dst much past the limit.
func TestInflateLimit(t *testing.T) {
	data := bytes.Repeat([]byte("limit "), 20000)
	var d Decoder
	for _, level := range []int{flate.NoCompression, flate.BestCompression} {
		src := deflate(t, data, level)
		if got, err := d.Append(nil, src, len(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("level %d, limit = size: %d bytes, err %v", level, len(got), err)
		}
		dst := make([]byte, 0, 16)
		if _, err := d.Append(dst, src, len(data)-1); !errors.Is(err, ErrLimit) {
			t.Fatalf("level %d, limit one short: err %v, want ErrLimit", level, err)
		}
		// TotalAlloc counts every goroutine's allocations, so one call's
		// reading can carry a stray runtime allocation: average over many
		// calls after a warm-up one.
		const calls = 64
		d.Append(nil, src, 1000)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			d.Append(nil, src, 1000)
		}
		runtime.ReadMemStats(&after)
		if n := (after.TotalAlloc - before.TotalAlloc) / calls; n > 4<<10 {
			t.Errorf("level %d, limit 1000: %d bytes allocated a call", level, n)
		}
	}
}

// fuzzInputs are data the seeds deflate: the kinds of input that make
// flate write each kind of block and match.
func fuzzInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, 3000)
	rng.Read(noise)
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog; "), 200)
	for i := range text {
		if rng.Intn(9) == 0 {
			text[i] = byte('a' + rng.Intn(26))
		}
	}
	inputs := map[string][]byte{"noise": noise, "text": text, "short": []byte("hello, hello")}
	for p := 1; p <= 8; p++ { // matches of length 258 overlapping at distances 1–8
		inputs["period "+string(rune('0'+p))] = bytes.Repeat(noise[:p], 3000/p)
	}
	return inputs
}

// TestInflateMatchesFlate holds the decoder to flate on what flate writes
// at every level: stored, fixed and dynamic blocks, matches at every
// distance, Huffman-only streams (whose distance code is a single one-bit
// code). The corpus' own sections are sz's tests.
func TestInflateMatchesFlate(t *testing.T) {
	var d Decoder
	for name, data := range fuzzInputs() {
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression} {
			src := deflate(t, data, level)
			agree(t, &d, src, math.MaxInt)
			if got, err := d.Append(nil, src, math.MaxInt); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s at level %d: %d bytes back, err %v", name, level, len(got), err)
			}
		}
	}
	if src := deflate(t, fuzzInputs()["short"], flate.BestCompression); src[0]&6 != 2 {
		t.Errorf("a short input's block type is %d: no fixed-code block is tested", src[0]>>1&3)
	}
}

// FuzzInflate: on any bytes and any limit, the decoder and compress/flate
// read the same bytes or both refuse, and a stream past the limit is
// refused with ErrLimit.
func FuzzInflate(f *testing.F) {
	for _, data := range fuzzInputs() {
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.BestCompression} {
			src := deflate(f, data, level)
			f.Add(src, len(data))
			f.Add(src, len(data)-1)
			f.Add(src[:len(src)/2], len(data))
		}
	}
	for _, c := range handBuilt() {
		f.Add(c.src, 1<<20)
	}
	f.Fuzz(func(t *testing.T, src []byte, limit int) {
		var d Decoder
		agree(t, &d, src, limit)
	})
}
