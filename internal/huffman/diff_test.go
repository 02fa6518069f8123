package huffman

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// diffStreams are the symbol-stream shapes the fast decode loop has to get
// right: every count around its 16-symbol entry condition, alphabets of one
// and two symbols (1-bit codes, the densest pairing), a 1–3-bit codebook
// whose probes mostly take four codes, residual frames' five-bin codebook
// (a window of a few bits, where probes chain single-code steps), symbols
// past 2^16 (once too wide for a packed field, and inside four-code
// probes), and codes longer than TableBits arriving back to back so the
// loop must resume after each.
func diffStreams() map[string][]uint32 {
	rng := rand.New(rand.NewSource(41))
	streams := map[string][]uint32{}
	for n := 0; n <= 9; n++ {
		one := make([]uint32, n)
		two := make([]uint32, n)
		wide := make([]uint32, n)
		for i := range one {
			one[i] = 7
			two[i] = uint32(3 + i%2)
			wide[i] = uint32(1<<16 + rng.Intn(3)<<20)
		}
		streams[fmt.Sprintf("alphabet1/n%d", n)] = one
		streams[fmt.Sprintf("alphabet2/n%d", n)] = two
		streams[fmt.Sprintf("wide-symbols/n%d", n)] = wide
	}
	for _, n := range []int{63, 64, 65, 1001, 4097} {
		two := make([]uint32, n)
		quant := make([]uint32, n)
		mixed := make([]uint32, n)
		for i := range two {
			two[i] = uint32(rng.Intn(2))
			// Quantization-like: geometric around the centre bin.
			d := 0
			for rng.Intn(2) == 0 && d < 30 {
				d++
			}
			quant[i] = uint32(1<<15 + d*(1-2*rng.Intn(2)))
			// Short codes for symbols on both sides of 2^16, so pairs with a
			// wide second symbol occur.
			mixed[i] = uint32(rng.Intn(2))<<16 + uint32(rng.Intn(3))
		}
		streams[fmt.Sprintf("alphabet2/n%d", n)] = two
		streams[fmt.Sprintf("quant/n%d", n)] = quant
		streams[fmt.Sprintf("mixed-width/n%d", n)] = mixed
	}
	// A hot symbol pins the short codes; the rest of the stream is runs of
	// rare symbols whose codes are all deeper than the primary table.
	var long []uint32
	for i := 0; i < 40000; i++ {
		long = append(long, 5)
	}
	for i := 0; i < 9000; i++ {
		long = append(long, uint32(100+i))
	}
	for run := 0; run < 200; run++ {
		for k := 0; k < 1+run%7; k++ {
			long = append(long, uint32(100+rng.Intn(9000)))
		}
		long = append(long, 5, 5, 5)
	}
	streams["long-codes-back-to-back"] = long
	// Counts around the 16-symbol entry condition, drawn last so that the
	// shapes above keep their symbols. Sixteen equiprobable symbols code
	// in 4 bits, so sixteen of them also fill the whole word the loop
	// needs; the 1–3-bit codebook (lengths 1, 2, 3, 3) fills one only at
	// the longer counts.
	for _, n := range []int{15, 16, 17, 31, 32, 33, 200} {
		flat := make([]uint32, n)
		short := make([]uint32, n)
		shortWide := make([]uint32, n)
		for i := range flat {
			flat[i] = uint32(i%16) * 5
			k := 0 // 0, 1, 2, 3 with probabilities 1/2, 1/4, 1/8, 1/8
			for k < 3 && rng.Intn(2) == 0 {
				k++
			}
			short[i] = uint32(9 + k)
			shortWide[i] = 1<<16 + uint32(k)<<20 + uint32(k)
		}
		streams[fmt.Sprintf("flat16/n%d", n)] = flat
		streams[fmt.Sprintf("short-codes/n%d", n)] = short
		streams[fmt.Sprintf("short-codes-wide/n%d", n)] = shortWide
	}
	for _, n := range []int{1001, 4097} {
		short := make([]uint32, n)
		for i := range short {
			k := 0
			for k < 3 && rng.Intn(2) == 0 {
				k++
			}
			short[i] = uint32(k) << (8 * uint(k)) // 0, 1<<8, 2<<16, 3<<24
		}
		streams[fmt.Sprintf("short-codes-mixed-width/n%d", n)] = short
	}
	// Residual frames: five bins, the zero residual's code one bit long,
	// as the benchmark's delta archive codes them. The long stream is a
	// whole frame's; the short ones, around the 16-symbol entry condition,
	// hold the bins in the proportions 8:4:2:1:1, which code in the same
	// lengths 1, 2, 3, 4, 4.
	streams["residual/n32768"] = residualStream(32 << 10)
	shuffle := rand.New(rand.NewSource(53)) // rng above keeps its draws
	for _, n := range []int{15, 16, 17, 31, 32, 33} {
		res := make([]uint32, n)
		for i := range res {
			const center = 1 << 15
			switch k := i * 16 / n; {
			case k < 8:
				res[i] = center
			case k < 12:
				res[i] = center + 1
			case k < 14:
				res[i] = center - 1
			case k < 15:
				res[i] = center + 2
			default:
				res[i] = center - 2
			}
		}
		shuffle.Shuffle(n, func(i, j int) { res[i], res[j] = res[j], res[i] })
		streams[fmt.Sprintf("residual/n%d", n)] = res
	}
	return streams
}

// randomCodebookBlob frames a random (valid, possibly incomplete) codebook
// around random body bytes: decoding it walks arbitrary table entries and
// ends in success, an invalid code or a truncation.
func randomCodebookBlob(rng *rand.Rand) []byte {
	const full = uint64(1) << maxCodeLen
	var pairs [][2]uint64
	var kraft uint64
	maxLen := 1 + rng.Intn(20)
	sym := uint64(0)
	for len(pairs) < 1+rng.Intn(40) {
		l := uint64(1 + rng.Intn(maxLen))
		if kraft+full>>l > full {
			break
		}
		kraft += full >> l
		ds := uint64(1 + rng.Intn(4))
		if rng.Intn(4) == 0 {
			ds += 1 << 16 // symbols past 2^16
		}
		if len(pairs) == 0 {
			ds--
		}
		sym += ds
		pairs = append(pairs, [2]uint64{ds, l})
	}
	body := make([]byte, rng.Intn(40))
	rng.Read(body)
	return corruptBlob(uint64(rng.Intn(8*len(body)+2)), pairs, body)
}

// agree decodes blob through the oracle and through dec and requires the
// same symbols or the same error string.
func agree(t *testing.T, dec *Decoder, oracle *oracleDecoder, name string, blob []byte) {
	t.Helper()
	want, werr := oracle.AppendDecode(nil, blob)
	got, gerr := dec.AppendDecode(nil, blob)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: decoder error %v, oracle error %v", name, gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: decoder %d symbols, oracle %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: symbol %d: decoder %d, oracle %d", name, i, got[i], want[i])
		}
	}
}

// TestDecodeMatchesOracle holds the packed-table decoder to the
// per-symbol loop it replaced — symbols and error strings — on every
// stream shape, on each short blob cut at every byte and each long one at
// the bytes below, and on random codebooks over random bits. The streams
// are coded by oracleEncode, as some hold symbols past the encoder's
// 16-bit alphabet that the decoder still reads.
func TestDecodeMatchesOracle(t *testing.T) {
	var dec Decoder
	var oracle oracleDecoder
	for name, syms := range diffStreams() {
		blob := oracleEncode(syms)
		agree(t, &dec, &oracle, name, blob)
		got, err := dec.AppendDecode(nil, blob)
		if err != nil || len(got) != len(syms) {
			t.Fatalf("%s: %d symbols, err %v; want %d", name, len(got), err, len(syms))
		}
		for i := range syms {
			if got[i] != syms[i] {
				t.Fatalf("%s: symbol %d: got %d, want %d", name, i, got[i], syms[i])
			}
		}
		for cut := 0; cut < len(blob); cut++ {
			// Long blobs are cut at every 97th byte and at each of their
			// last 24, where the careful loop takes over.
			if len(blob) > 200 && cut%97 != 0 && cut < len(blob)-24 {
				continue
			}
			agree(t, &dec, &oracle, fmt.Sprintf("%s cut at %d", name, cut), blob[:cut])
		}
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 5000; i++ {
		blob := randomCodebookBlob(rng)
		agree(t, &dec, &oracle, fmt.Sprintf("random codebook %d (%x)", i, blob), blob)
	}
}

// oracleStep is the step the oracle takes at the top of a TableBits-bit
// window w: the symbols of its one or two codes, the first code's own
// length and the bits the step consumes. ok is false for an invalid code
// and long for the prefix of a code longer than the table.
func oracleStep(o *oracleDecoder, tableBits uint, w uint64) (syms []uint32, l1, total uint, ok, long bool) {
	idx := w >> (TableBits - tableBits)
	e := o.lut[idx]
	switch l := uint(e & 0xff); {
	case l == 0:
		return nil, 0, 0, false, false
	case l == lutLong:
		return nil, 0, 0, false, true
	case e&oraclePairFlag != 0:
		p := o.lutPair[idx]
		return []uint32{uint32(e >> 8), uint32(p >> 8)}, uint(p & 0xff), l, true, false
	default:
		return []uint32{uint32(e >> 8)}, l, l, true, false
	}
}

// tableCodebooks are the codebooks TestTableEntriesArePairs builds tables
// from, as blobs: those of the diffStreams shapes and of a frame-shaped
// stream, a single one-bit code, and random codebooks — complete and
// incomplete, shallower and deeper than TableBits, some with symbols past
// 2^16.
func tableCodebooks() map[string][]byte {
	books := map[string][]byte{
		"frame":          Encode(frameStream(30000)),
		"one 1-bit code": corruptBlob(1, [][2]uint64{{0, 1}}, []byte{0}),
	}
	for name, syms := range diffStreams() {
		if len(syms) > 0 {
			books[name] = oracleEncode(syms)
		}
	}
	// Residual frames' codebooks: a 1-bit code for the centre bin and a
	// window of three to five bits; 1,2,3,4,5 and 1,3,3,3,5 are
	// incomplete.
	for _, lens := range [][]uint64{{1, 3, 3, 3, 3}, {1, 2, 3, 4, 4}, {1, 2, 3, 4, 5}, {1, 3, 3, 3, 5}, {1, 2, 3, 4, 5, 5}} {
		// Bins from centre−2 up, the centre's length first in lens.
		pairs := [][2]uint64{{1<<15 - 2, lens[1]}, {1, lens[2]}, {1, lens[0]}}
		for _, l := range lens[3:] {
			pairs = append(pairs, [2]uint64{1, l})
		}
		books[fmt.Sprintf("residual lengths %v", lens)] = corruptBlob(1, pairs, []byte{0})
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 300; i++ {
		// Split random leaves of a complete code until it is deep enough.
		maxLen := uint8(1 + rng.Intn(16))
		lens := []uint8{1, 1}
		for k := rng.Intn(200); k > 0; k-- {
			j := rng.Intn(len(lens))
			if lens[j] < maxLen {
				lens[j]++
				lens = append(lens, lens[j])
			}
		}
		if i%2 == 1 { // incomplete: drop leaves, keeping one
			for k := rng.Intn(len(lens)); k > 0 && len(lens) > 1; k-- {
				j := rng.Intn(len(lens))
				lens = append(lens[:j], lens[j+1:]...)
			}
		}
		var pairs [][2]uint64
		for j, l := range lens {
			ds := uint64(1 + rng.Intn(4))
			if rng.Intn(3) == 0 {
				ds += 1 << 16
			}
			if j == 0 {
				ds--
			}
			pairs = append(pairs, [2]uint64{ds, uint64(l)})
		}
		books[fmt.Sprintf("random %d", i)] = corruptBlob(1, pairs, []byte{0})
	}
	return books
}

// TestTableEntriesArePairs walks every index of the table built for each
// codebook and holds its entry to the rule the decode loops rest on: the
// longest run of the oracle's steps, up to the layout's cap, that the
// index settles — with the bits they consume, the first code's own length
// and rank 0 in every unused slot. A step at some offset into the index is
// settled when the oracle takes the same step there whatever bits follow
// the index, which the test finds by trying them all. The layout must be
// narrow — 3-bit ranks, eight codes at most — for a codebook of at most
// eight codes, none longer than TableBits, and wide — TableBits-bit ranks,
// four codes at most — for any other. It also holds the rank→symbol array
// to the canonical codebook.
func TestTableEntriesArePairs(t *testing.T) {
	var d Decoder
	var oracle oracleDecoder
	var entries [2][narrowCodes + 1]int // entries by layout (wide, narrow) and code count
	type step struct {
		syms              []uint32
		l1, total         uint
		ok, long, settled bool
	}
	for name, blob := range tableCodebooks() {
		if _, _, err := d.parseCodebook(blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tab := d.table()
		canon := d.canonical()
		if _, _, err := oracle.parseCodebook(blob); err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		tableBits, _ := oracle.build(canonicalize(oracle.codes))
		short := 0
		for r, c := range canon {
			if tab.syms[r] != c.sym {
				t.Fatalf("%s: rank %d maps to %d, the codebook has %d", name, r, tab.syms[r], c.sym)
			}
			if c.len <= TableBits {
				short++
			}
		}
		narrow, rankBits, maxCodes := 0, uint(wideRankBits), wideCodes
		if short == len(canon) && short <= 8 {
			narrow, rankBits, maxCodes = 1, narrowRankBits, narrowCodes
		}
		if tab.rankBits != rankBits {
			t.Fatalf("%s: %d codes, %d of them short: %d-bit ranks, want %d", name, len(canon), short, tab.rankBits, rankBits)
		}
		// stepAt is the oracle's step p bits into index w. Its window
		// reads tableBits bits, of which those past the index are free.
		const mask = 1<<TableBits - 1
		steps := map[[2]uint64]step{}
		stepAt := func(w uint64, p uint) step {
			known := (w << p) & mask
			if s, ok := steps[[2]uint64{uint64(p), known}]; ok {
				return s
			}
			free := max(int(p+tableBits)-TableBits, 0)
			var s step
			for c := uint64(0); c < 1<<free; c++ {
				syms, l1, total, ok, long := oracleStep(&oracle, tableBits, known|c<<(TableBits-tableBits))
				if c == 0 {
					s = step{syms, l1, total, ok, long, true}
				} else if ok != s.ok || long != s.long || l1 != s.l1 || total != s.total || !slices.Equal(syms, s.syms) {
					s.settled = false
					break
				}
			}
			steps[[2]uint64{uint64(p), known}] = s
			return s
		}
		for w := uint64(0); w < 1<<TableBits; w++ {
			e := tab.lut[w]
			if s := stepAt(w, 0); !s.settled {
				t.Fatalf("%s: index %012b: the oracle's first step reads past the index", name, w)
			} else if !s.ok {
				want := uint64(0)
				if s.long {
					want = lutLong
				}
				if e != want {
					t.Fatalf("%s: index %012b: entry %#x, want %#x", name, w, e, want)
				}
				continue
			}
			var syms []uint32
			var l1, total uint
			for {
				s := stepAt(w, total)
				if !s.settled || !s.ok || len(syms)+len(s.syms) > maxCodes {
					break
				}
				if total == 0 {
					l1 = s.l1
				}
				syms = append(syms, s.syms...)
				total += s.total
			}
			entries[narrow][len(syms)]++
			count := int(e>>lutCountShift) & 0xf
			if uint(e&0xff) != total || len1(e) != l1 || count != len(syms) {
				t.Fatalf("%s: index %012b: entry takes %d codes over %d bits, first %d; the oracle's settled steps %d over %d, first %d",
					name, w, count, e&0xff, len1(e), len(syms), total, l1)
			}
			for k := range maxCodes {
				rank := int(e>>(lutRankShift+uint(k)*rankBits)) & (1<<rankBits - 1)
				if k >= len(syms) {
					if rank != 0 {
						t.Fatalf("%s: index %012b: unused slot %d holds rank %d", name, w, k, rank)
					}
					continue
				}
				if rank >= short || tab.syms[rank] != syms[k] {
					t.Fatalf("%s: index %012b: code %d has rank %d (of %d) for symbol %d, want %d", name, w, k, rank, short, tab.syms[rank], syms[k])
				}
			}
		}
	}
	for narrow, maxCodes := range []int{wideCodes, narrowCodes} {
		for n := 1; n <= maxCodes; n++ {
			if entries[narrow][n] == 0 {
				t.Fatalf("no %d-code entry was built in a table of %d-code entries; the test is vacuous there", n, maxCodes)
			}
		}
	}
}

// codesPerProbe walks the table for blob's codebook over its bit stream as
// the fast loops do, one probe an entry, and returns the codes a probe
// takes on average. The codebook must have no code longer than TableBits.
func codesPerProbe(d *Decoder, blob []byte) float64 {
	nsyms, body, err := d.parseCodebook(blob)
	if err != nil || nsyms == 0 {
		panic(fmt.Sprintf("codesPerProbe: %d symbols, %v", nsyms, err))
	}
	lut := d.table().lut
	body = append(body[:len(body):len(body)], 0, 0) // the index may read past the last byte
	n, pos, probes := 0, 0, 0
	for n < nsyms {
		b := body[pos>>3:]
		idx := (uint(b[0])<<16 | uint(b[1])<<8 | uint(b[2])) >> (12 - pos&7) & (1<<TableBits - 1)
		e := lut[idx]
		if e == 0 || e&0xff == lutLong {
			panic("codesPerProbe: an invalid or long code")
		}
		n += int(e>>lutCountShift) & 0xf
		pos += int(e & 0xff)
		probes++
	}
	return float64(nsyms) / float64(probes)
}

// TestResidualCodesPerProbe holds the table to what it is for on a
// residual frame's stream: whole steps of the per-symbol loop chain
// through the index, up to eight codes in a narrow entry, so a probe takes
// over five codes, where four-code entries take 3.8 and entries that chain
// two steps only when both are pairs take 2.6.
func TestResidualCodesPerProbe(t *testing.T) {
	var d Decoder
	if got := codesPerProbe(&d, Encode(residualStream(32<<10))); got < 5.5 {
		t.Fatalf("%.3f codes a probe on a residual frame, want at least 5.5", got)
	}
}

// reframe is blob's codebook over a new bit stream: body, claimed to hold
// nsyms symbols.
func reframe(blob []byte, nsyms uint64, body []byte) []byte {
	var d Decoder
	if _, _, err := d.parseCodebook(blob); err != nil {
		panic(err)
	}
	var pairs [][2]uint64
	prev := uint32(0)
	for _, c := range d.codes {
		pairs = append(pairs, [2]uint64{uint64(c.sym - prev), uint64(c.len)})
		prev = c.sym
	}
	return corruptBlob(nsyms, pairs, body)
}

// cachedSlot is the slot of d's table cache that holds the table of the
// codebook d parsed last, or -1.
func cachedSlot(d *Decoder) int {
	key, small := d.smallKey()
	if !small {
		return -1
	}
	return slices.IndexFunc(d.small[:], func(s smallTable) bool { return s.key == key })
}

// sameDecode requires a decode to return want's symbols or werr's message.
func sameDecode(t *testing.T, name string, got []uint32, err error, want []uint32, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%s: error %v, want %v", name, err, werr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d symbols differ from the %d wanted", name, len(got), len(want))
	}
}

// TestCachedTableDecodesAsFresh decodes a random bit stream through each
// tableCodebooks() codebook twice on one Decoder — the second time, for a
// small codebook, through the table the first left in its cache — and
// once on a fresh Decoder, and requires the same symbols or the same error
// each time.
func TestCachedTableDecodesAsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	books := tableCodebooks()
	var d Decoder
	hits := 0
	for _, name := range slices.Sorted(maps.Keys(books)) {
		body := make([]byte, 64+rng.Intn(64))
		rng.Read(body)
		blob := reframe(books[name], 1+uint64(rng.Intn(4*len(body))), body)
		var fresh Decoder
		want, werr := fresh.AppendDecode(nil, blob)
		for pass := range 2 {
			if pass == 1 && cachedSlot(&d) >= 0 {
				hits++
			}
			got, err := d.AppendDecode(nil, blob)
			sameDecode(t, fmt.Sprintf("%s, pass %d", name, pass), got, err, want, werr)
		}
	}
	if hits < 5 {
		t.Fatalf("%d decodes from a cached table; the test is vacuous", hits)
	}
}

// TestCacheSkipsLargeCodebooks decodes through codebooks the cache must
// not keep — seven codes, one longer than TableBits, and nine short
// codes — and requires them to decode as the oracle does from the
// decoder's own table, with the cache left empty.
func TestCacheSkipsLargeCodebooks(t *testing.T) {
	books := map[string][][2]uint64{
		"a long code": {{0, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 6}, {1, 13}},
		"nine codes":  {{0, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 6}, {1, 7}, {1, 8}, {1, 8}},
	}
	rng := rand.New(rand.NewSource(61))
	var d Decoder
	var oracle oracleDecoder
	for name, pairs := range books {
		body := make([]byte, 200)
		rng.Read(body)
		blob := corruptBlob(300, pairs, body)
		agree(t, &d, &oracle, name, blob)
		if d.table() != &d.own {
			t.Fatalf("%s: decoded through a cached table", name)
		}
		for i, s := range d.small {
			if s.key != [smallCodes]uint64{} {
				t.Fatalf("%s: cache slot %d holds %v", name, i, s.key)
			}
		}
	}
}

// residualBook is a residual frame's stream of n codes whose five bins sit
// at base−2 … base+2, in residualStream's proportions.
func residualBook(base uint32, n int) []uint32 {
	syms := residualStream(n)
	for i := range syms {
		syms[i] = syms[i] - 1<<15 + base
	}
	return syms
}

// TestCacheCycles decodes eleven residual streams whose codebooks differ
// only in their symbols, in turn, three rounds over, on one Decoder: each
// round evicts every table before its codebook comes round again. Every
// decode must give the stream back, and after each one the cache must
// hold the tables of the last eight codebooks.
func TestCacheCycles(t *testing.T) {
	const books = smallTables + 3
	var streams [books][]uint32
	var blobs [books][]byte
	for i := range streams {
		streams[i] = residualBook(uint32(100+10*i), 1000)
		blobs[i] = Encode(streams[i])
	}
	var d, probe Decoder
	for round := range 3 {
		for i, blob := range blobs {
			got, err := d.AppendDecode(nil, blob)
			sameDecode(t, fmt.Sprintf("round %d stream %d", round, i), got, err, streams[i], nil)
			for k := range books {
				probe.parseCodebook(blobs[k])
				d.codes = probe.codes
				age := (i - k + books) % books // decodes since stream k's last
				want := age < smallTables && age <= round*books+i
				if cached := cachedSlot(&d) >= 0; cached != want {
					t.Fatalf("round %d, after stream %d: stream %d's table cached %v", round, i, k, cached)
				}
			}
		}
	}
}

// TestCacheAlternates alternates on one Decoder between codebooks that
// share their lengths but not their symbols, that share their symbols but
// not their lengths, and a frame's codebook, which the cache does not
// keep: every decode must give its stream back.
func TestCacheAlternates(t *testing.T) {
	streams := [][]uint32{
		residualBook(1<<15, 4000),
		residualBook(1<<15+1, 4000), // the same lengths, each symbol one up
		frameStream(4000),
		make([]uint32, 4000), // the same symbols, lengths 3, 2, 2, 2, 3
	}
	for i := range streams[3] {
		streams[3][i] = uint32(1<<15 + []int{-2, -1, -1, 0, 0, 1, 1, 2}[i%8])
	}
	blobs := make([][]byte, len(streams))
	for i, s := range streams {
		blobs[i] = Encode(s)
	}
	var d Decoder
	for round := range 6 {
		for _, i := range []int{0, 1, 0, 2, 1, 3, 0, 3} {
			got, err := d.AppendDecode(nil, blobs[i])
			sameDecode(t, fmt.Sprintf("round %d stream %d", round, i), got, err, streams[i], nil)
		}
	}
}
