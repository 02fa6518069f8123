package huffman

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitio"
)

// The encoder this package shipped before the single-table layout, kept as
// a slow differential oracle: a map histogram, a heap of arena indices
// compared through the arena, comparison sorts for the canonical and the
// header order, and one bit-at-a-time write per symbol. It pins the code
// lengths and their tie-breaks, the header and the bit stream of the
// production Encoder.

type oracleNode struct {
	freq        uint64
	sym         uint32 // min symbol in subtree
	depth       uint32
	left, right int32
}

type oracleTree struct {
	nodes []oracleNode
	heap  []int32
}

func (tb *oracleTree) less(a, b int32) bool {
	na, nb := &tb.nodes[a], &tb.nodes[b]
	if na.freq != nb.freq {
		return na.freq < nb.freq
	}
	return na.sym < nb.sym
}

func (tb *oracleTree) siftDown(i int) {
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

func (tb *oracleTree) siftUp(i int) {
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

func (tb *oracleTree) pop() int32 {
	h := tb.heap
	top := h[0]
	h[0] = h[len(h)-1]
	tb.heap = h[:len(h)-1]
	tb.siftDown(0)
	return top
}

func (tb *oracleTree) push(i int32) {
	tb.heap = append(tb.heap, i)
	tb.siftUp(len(tb.heap) - 1)
}

func (tb *oracleTree) codeLengths(sf []symFreq) []symCode {
	switch len(sf) {
	case 0:
		return nil
	case 1:
		return []symCode{{sym: sf[0].sym, len: 1}}
	}
	for _, p := range sf {
		tb.nodes = append(tb.nodes, oracleNode{freq: p.freq, sym: p.sym, left: -1, right: -1})
	}
	for i := range tb.nodes {
		tb.heap = append(tb.heap, int32(i))
	}
	for i := len(tb.heap)/2 - 1; i >= 0; i-- {
		tb.siftDown(i)
	}
	for len(tb.heap) > 1 {
		a := tb.pop()
		b := tb.pop()
		na, nb := &tb.nodes[a], &tb.nodes[b]
		tb.nodes = append(tb.nodes, oracleNode{freq: na.freq + nb.freq, sym: min(na.sym, nb.sym), left: a, right: b})
		tb.push(int32(len(tb.nodes) - 1))
	}
	nodes := tb.nodes
	for i := len(nodes) - 1; i >= len(sf); i-- {
		d := nodes[i].depth + 1
		nodes[nodes[i].left].depth = d
		nodes[nodes[i].right].depth = d
	}
	var out []symCode
	for i, p := range sf {
		out = append(out, symCode{sym: p.sym, len: uint8(min(nodes[i].depth, 255))})
	}
	return out
}

// TestCodeLengthsMatchOracle holds the sorted-leaves, two-queue build to
// the heap build it replaced, tie-breaks included: on the smallest inputs,
// on all-equal frequencies (the most ties), on a merged subtree tying a
// leaf's frequency from either side of its symbol, on Fibonacci
// frequencies past 2^32 and on symbols past 2^16 (the comparison-sort
// path), on 2^16 distinct symbols (the most the packed keys hold) and one
// more, on shuffled inputs, and on 200 frames' counts of frameStream.
func TestCodeLengthsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	cases := map[string][]symFreq{}
	for n := 0; n <= 3; n++ {
		sf := make([]symFreq, n)
		for i := range sf {
			sf[i] = symFreq{sym: uint32(5 * i), freq: uint64(1 + i%2)}
		}
		cases[fmt.Sprintf("n%d", n)] = sf
	}
	equal := make([]symFreq, 1000)
	for i := range equal {
		equal[i] = symFreq{sym: uint32(1<<15 - 500 + i), freq: 7}
	}
	cases["all-equal"] = equal
	// A merged subtree as heavy as two leaves: the merge of 5 and 6 goes
	// after the leaves 0 and 1, the merge of 0 and 1 before 5 and 6.
	cases["merged-ties-leaf-above"] = []symFreq{{0, 2}, {1, 2}, {5, 1}, {6, 1}, {8, 100}}
	cases["merged-ties-leaf-below"] = []symFreq{{0, 1}, {1, 1}, {5, 2}, {6, 2}, {7, 100}}
	fib := make([]symFreq, 90)
	a, b := uint64(1), uint64(1)
	for i := range fib {
		fib[i] = symFreq{sym: uint32(3 * i), freq: a}
		a, b = b, a+b
	}
	cases["fibonacci"] = fib
	wide := make([]symFreq, 300)
	for i := range wide {
		wide[i] = symFreq{sym: uint32(i)<<12 + uint32(rng.Intn(1<<12)), freq: uint64(1 + rng.Intn(40))}
	}
	cases["wide-symbols"] = wide
	for _, n := range []int{1 << 16, 1<<16 + 1} {
		sf := make([]symFreq, n)
		for i := range sf {
			sf[i] = symFreq{sym: uint32(i), freq: uint64(1 + rng.Intn(1+i%300))}
		}
		cases[fmt.Sprintf("distinct%d", n)] = sf
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		if sf := cases[name]; len(sf) > 3 && len(sf) < 1<<16 {
			shuffled := slices.Clone(sf)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			cases[name+"/shuffled"] = shuffled
		}
	}
	const frame = 32 << 10
	frames := frameStream(200 * frame)
	for f := 0; f < 200; f++ {
		n := frame/2 + rng.Intn(frame/2)
		freq := map[uint32]uint64{}
		for _, s := range frames[f*frame : f*frame+n] {
			freq[s]++
		}
		var sf []symFreq
		for s, c := range freq {
			sf = append(sf, symFreq{sym: s, freq: c})
		}
		cases[fmt.Sprintf("frame%03d", f)] = sf
	}

	var tb treeBuilder // reused, as an Encoder reuses it
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		sf := cases[name]
		var oracle oracleTree
		want := oracle.codeLengths(sf)
		got := tb.codeLengths(nil, sf)
		if len(got) != len(want) {
			t.Errorf("%s: %d codes, the oracle %d", name, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: code %d is %+v, the oracle's %+v", name, i, got[i], want[i])
				break
			}
		}
	}
}

// canonicalize assigns canonical codes in place: symbols sorted by
// (length, symbol) receive consecutive codes.
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

// oracleEncode is Encode as it was.
func oracleEncode(syms []uint32) []byte {
	freq := map[uint32]uint64{}
	for _, s := range syms {
		freq[s]++
	}
	var sf []symFreq
	for s, f := range freq {
		sf = append(sf, symFreq{sym: s, freq: f})
	}
	return oracleEncodeFreq(sf, syms)
}

// oracleEncodeFreq codes syms with the codebook of the frequencies sf,
// which need not be the stream's own: that is the only way to a code of
// maxCodeLen bits short of a stream of Fib(58) symbols.
func oracleEncodeFreq(sf []symFreq, syms []uint32) []byte {
	var tb oracleTree
	codes := tb.codeLengths(sf)
	limitLengths(codes)
	codes = canonicalize(codes)

	var hdr []byte
	hdr = bitio.AppendUvarint(hdr, uint64(len(syms)))
	hdr = bitio.AppendUvarint(hdr, uint64(len(codes)))
	bySym := slices.Clone(codes)
	slices.SortFunc(bySym, func(a, b symCode) int { return cmp.Compare(a.sym, b.sym) })
	prev := uint32(0)
	for _, c := range bySym {
		hdr = bitio.AppendUvarint(hdr, uint64(c.sym-prev))
		hdr = bitio.AppendUvarint(hdr, uint64(c.len))
		prev = c.sym
	}

	table := make(map[uint32]symCode, len(codes))
	for _, c := range codes {
		table[c.sym] = c
	}
	w := oracleBits{buf: bitio.AppendBytes(nil, hdr)}
	for _, s := range syms {
		c := table[s]
		w.put(c.code, uint(c.len))
	}
	return w.buf
}

// oracleBits appends bits most significant first, one at a time, the last
// byte zero-padded on the right: the bit stream by definition, with no
// word packing to get wrong.
type oracleBits struct {
	buf  []byte
	nbit uint // bits used in the last byte of buf, 0 when it is full
}

// put appends the low n bits of v.
func (w *oracleBits) put(v uint64, n uint) {
	for i := n; i > 0; i-- {
		if w.nbit == 0 {
			w.buf = append(w.buf, 0)
		}
		w.buf[len(w.buf)-1] |= byte(v>>(i-1)&1) << (7 - w.nbit)
		w.nbit = (w.nbit + 1) & 7
	}
}

// maxCodeLen is the longest code of the encoder's current codebook.
func (e *Encoder) maxCodeLen() uint8 {
	var m uint8
	for _, c := range e.codes {
		m = max(m, c.len)
	}
	return m
}

// encodeStreams are diffStreams plus the shapes the encoder's own paths
// split on: nothing, one symbol, the literal marker alone and beside
// distant bins, spans narrower and wider than the stream over the whole
// QuantBits=16 range, and alphabets past denseAlphabet (the map path).
func encodeStreams() map[string][]uint32 {
	rng := rand.New(rand.NewSource(43))
	streams := diffStreams()
	streams["empty"] = nil
	streams["one"] = []uint32{1 << 15}
	streams["zeros"] = make([]uint32, 11)
	streams["marker-and-centre"] = []uint32{0, 1 << 15, 1<<15 + 1, 0, 1 << 15, 1 << 15, 1<<15 - 1}
	streams["max-dense-symbol"] = []uint32{denseAlphabet - 1, 0, denseAlphabet - 1, 1}
	streams["first-sparse-symbol"] = []uint32{denseAlphabet, 0, denseAlphabet - 1, 1}
	// Wide symbols where count's three samples do not look: the dense pass
	// runs, finds them, and is undone.
	streams["hidden-sparse-symbol"] = []uint32{7, denseAlphabet + 7, 7, 8, 3 << 16, 8, 7}
	for _, n := range []int{5, 300, 70000, 200000} {
		full := make([]uint32, n)   // the whole 16-bit range: span ≥ n until n > 2^16
		sparse := make([]uint32, n) // the map path, wrapped counts to take back
		for i := range full {
			full[i] = uint32(rng.Intn(denseAlphabet))
			sparse[i] = uint32(rng.Intn(4)) << 16 * uint32(rng.Intn(2))
			if i%3 == 0 {
				sparse[i] += uint32(rng.Intn(50))
			}
		}
		streams[fmt.Sprintf("quantbits16-span/n%d", n)] = full
		streams[fmt.Sprintf("sparse/n%d", n)] = sparse
	}
	// Every length around the eight-symbol emit step, over an alphabet
	// with short and long codes.
	wide := wideQuantStream(4200)
	for n := 0; n <= 4200; n = n + 1 + n/16 {
		streams[fmt.Sprintf("wide/n%d", n)] = wide[:n]
	}
	return streams
}

// TestEncodeMatchesOracle holds the production encoder to the bytes of the
// one it replaced, on a fresh Encoder and on one reused across all streams.
func TestEncodeMatchesOracle(t *testing.T) {
	streams := encodeStreams()
	names := make([]string, 0, len(streams))
	for name := range streams {
		names = append(names, name)
	}
	slices.Sort(names)
	var reused Encoder
	for _, name := range names {
		syms := streams[name]
		want := oracleEncode(syms)
		if got := Encode(syms); !bytes.Equal(got, want) {
			t.Errorf("%s: fresh encoder: %d bytes differ from the oracle's %d", name, len(got), len(want))
		}
		prefix := []byte("prefix")
		got := reused.AppendEncode(prefix, syms)
		if !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
			t.Errorf("%s: reused encoder: %d bytes differ from the oracle's %d", name, len(got)-len(prefix), len(want))
		}
	}
}

// TestEncodeEmptyAllocatesNoTables: an Encoder that has only seen empty
// streams holds none of the dense tables.
func TestEncodeEmptyAllocatesNoTables(t *testing.T) {
	var e Encoder
	if got, want := e.AppendEncode(nil, nil), oracleEncode(nil); !bytes.Equal(got, want) {
		t.Fatalf("empty stream: % x, oracle % x", got, want)
	}
	if e.hist != nil || e.emit != nil || e.table != nil {
		t.Errorf("empty stream allocated tables: hist %d, emit %d, table %v", len(e.hist), len(e.emit), e.table != nil)
	}
}

// TestEncoderReuseShrinkingSpan runs one Encoder over alphabets of
// shrinking span, so each codebook finds the emit table full of the wider
// one's entries: none may leak.
func TestEncoderReuseShrinkingSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var e Encoder
	for _, span := range []int{60000, 9000, 700, 40, 3, 1, 40, 60000} {
		syms := make([]uint32, 3000)
		for i := range syms {
			syms[i] = uint32(1<<15 - span/2 + rng.Intn(span))
		}
		if got, want := e.AppendEncode(nil, syms), oracleEncode(syms); !bytes.Equal(got, want) {
			t.Fatalf("span %d: blob differs from the oracle's", span)
		}
	}
}

// TestEncodeLongestCodes drives codes of maxCodeLen bits through the emit
// loop — alone they fill the accumulator to the bit, four together
// overflow a step — by building the codebook from a Fibonacci ladder of
// frequencies instead of the stream's own.
func TestEncodeLongestCodes(t *testing.T) {
	sf := make([]symFreq, 90)
	a, b := uint64(1), uint64(1)
	for i := range sf {
		sf[i] = symFreq{sym: uint32(3 * i), freq: a}
		a, b = b, a+b
	}
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{1, 3, 4, 5, 8, 64, 1000} {
		syms := make([]uint32, n)
		for i := range syms {
			// Rare symbols (the deepest codes) back to back, the hot end
			// in between.
			if k := rng.Intn(90); i%7 < 5 {
				syms[i] = uint32(3 * (k % 12))
			} else {
				syms[i] = uint32(3 * k)
			}
		}
		var e Encoder
		e.sf = append(e.sf, sf...)
		e.build(n, true)
		if e.maxCodeLen() != maxCodeLen {
			t.Fatalf("deepest code %d bits, want %d", e.maxCodeLen(), maxCodeLen)
		}
		lens := map[uint32]uint64{}
		for _, c := range e.codes {
			lens[c.sym] = uint64(c.len)
		}
		nbits := uint64(0)
		for _, s := range syms {
			nbits += lens[s]
		}
		if got, want := e.emitBits(bitio.AppendBytes(nil, e.hdr), syms, true, nbits), oracleEncodeFreq(sf, syms); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: blob differs from the oracle's", n)
		}
	}
}
