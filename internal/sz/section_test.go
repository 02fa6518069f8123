package sz

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/inflate"
)

// A section of a lossless payload is a DEFLATE stream; which blocks it is
// made of is the writer's business. The tests here hold the writer's choice
// (deflateAppend: stored blocks of its own where flate has nothing to find)
// and the reader (internal/inflate) to the two things that make them
// invisible: every build before them reads what this one writes, and this
// one reads what every build before it wrote.

// fixture reads a hex file under testdata/. The parent_* files were written
// by the commit before deflateAppend learned to store (flate on every
// section, so an incompressible one is a stored block plus flate's empty
// final block, which no current writer produces).
func fixture(tb testing.TB, name string) []byte {
	tb.Helper()
	text, err := os.ReadFile("testdata/" + name)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// valuesHash is the SHA-256 of the blocks' values, little-endian, in order.
func valuesHash(blocks []*grid.Grid3[float32]) string {
	h := sha256.New()
	for _, g := range blocks {
		for _, v := range g.Data {
			u := math.Float32bits(v)
			h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24)})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sections splits a payload into its header and its two sections as they
// lie in it.
func sections(tb testing.TB, blob []byte) (h header, code, lits []byte) {
	tb.Helper()
	h, rest, err := parseHeader(blob)
	if err != nil {
		tb.Fatal(err)
	}
	r := bitio.NewReader(rest)
	code, lits = r.Bytes(), r.Bytes()
	if err := r.Err(); err != nil {
		tb.Fatal(err)
	}
	return h, code, lits
}

// flateInflate is the read path of every earlier build: compress/flate and
// nothing else.
func flateInflate(data []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(data)))
}

// storedAppend appends to dst the contents of a DEFLATE stream made of
// stored blocks alone, and reports whether data was one: the tests' word
// for a section deflateAppend stored. It follows the stream exactly as far
// as flate would — padding bits ignored, LEN checked against NLEN, nothing
// read past the final block — and for anything else (a coded block
// anywhere, a header or block cut short, a LEN that does not match) appends
// nothing.
func storedAppend(dst, data []byte) ([]byte, bool) {
	total := 0
	for p, final := 0, false; !final; {
		if len(data)-p < 5 || data[p]&6 != 0 {
			return dst, false
		}
		n := int(binary.LittleEndian.Uint16(data[p+1:]))
		if n^0xffff != int(binary.LittleEndian.Uint16(data[p+3:])) || len(data)-p-5 < n {
			return dst, false
		}
		final = data[p]&1 != 0
		total += n
		p += 5 + n
	}
	dst = slices.Grow(dst, total)
	for p := 0; ; {
		n := int(binary.LittleEndian.Uint16(data[p+1:]))
		dst = append(dst, data[p+5:p+5+n]...)
		if data[p]&1 != 0 {
			return dst, true
		}
		p += 5 + n
	}
}

// inflateSection is the read path of this build, with no limit.
func inflateSection(dst, data []byte) ([]byte, error) {
	var d inflate.Decoder
	return d.Append(dst, data, math.MaxInt)
}

// flateDeflate is the write path of every earlier build: flate at
// BestSpeed over the whole section, whatever it holds.
func flateDeflate(tb testing.TB, data []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
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

// TestParentPayloadsDecode is old data under the new reader: payloads the
// parent commit wrote decode to the values the parent decoded from them.
// The intra payload's sections are flate's stored form (two blocks each),
// the delta payload's code section is a dynamic-Huffman block, so the
// reader meets both kinds of block.
func TestParentPayloadsDecode(t *testing.T) {
	intra, delta := fixture(t, "parent_intra.hex"), fixture(t, "parent_delta.hex")
	for name, c := range map[string]struct {
		blob   []byte
		stored bool
	}{"intra": {intra, true}, "delta": {delta, false}} {
		info, err := PeekBatch(c.blob)
		if err != nil || info.CodeStored != c.stored || info.Blocks != 6 {
			t.Fatalf("%s: PeekBatch = %+v, %v; want 6 blocks, CodeStored %v", name, info, err, c.stored)
		}
		_, code, _ := sections(t, c.blob)
		if _, direct := storedAppend(nil, code); direct != c.stored {
			t.Errorf("%s: code section read directly: %v, want %v", name, direct, c.stored)
		}
	}
	ref, err := DecompressBlocks[float32](intra)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := valuesHash(ref), "ee87fc5b829cfad3ccac1e3dc252e4bcbe7606411557a7d5fc5783af0dc96df8"; got != want {
		t.Errorf("intra fixture decodes to %s, the parent decoded %s", got, want)
	}
	cur, err := DecompressBlocksDelta(delta, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := valuesHash(cur), "48bf1b637f7e6fdfd91c4815ccfdc664dc35a0f423d5d7bb6493ecb7b31396ec"; got != want {
		t.Errorf("delta fixture decodes to %s, the parent decoded %s", got, want)
	}
}

// freshPayloads compresses a spread of inputs twice each, with the lossless
// stage and without: the second payload's sections are the bytes the first
// one's were made from. Between them the cases hold every form a section
// takes — empty, under 17 bytes, stored in one block and in two, coded by
// flate.
func freshPayloads(t *testing.T) map[string][2][]byte {
	t.Helper()
	out := map[string][2][]byte{}
	both := func(name string, compress func(Options) ([]byte, Stats, error), opts Options) {
		t.Helper()
		var pair [2][]byte
		for i, off := range []bool{false, true} {
			opts.DisableLossless = off
			blob, _, err := compress(opts)
			if err != nil {
				t.Fatal(err)
			}
			pair[i] = blob
		}
		out[name] = pair
	}
	for name, c := range eitherCases() {
		opts := Options{ErrorBound: 0.05}
		refs, cur := reconOf(t, c[0], opts), c[1]
		both(name+"/spatial", func(o Options) ([]byte, Stats, error) { return CompressBlocks(cur, o) }, opts)
		both(name+"/temporal", func(o Options) ([]byte, Stats, error) { return CompressBlocksDelta(cur, refs, o) }, opts)
	}
	corpus := corpusBatch(t)
	both("corpus", func(o Options) ([]byte, Stats, error) { return CompressBlocks(corpus, o) }, Options{ErrorBound: corpusEB})

	rng := rand.New(rand.NewSource(31))
	big := smoothGrid(grid.Dims{X: 48, Y: 48, Z: 48})
	for i := range big.Data {
		big.Data[i] += float32((rng.Float64()*2 - 1) * 16 * 0.05)
	}
	both("grid48", func(o Options) ([]byte, Stats, error) { return Compress3D(big, o) }, Options{ErrorBound: 0.05})
	wild := noisyValues(40000, 32) // every value a literal: the literal section is the large one
	both("literals", func(o Options) ([]byte, Stats, error) { return Compress1D(wild, o) }, Options{ErrorBound: 1e-3})
	return out
}

// TestFreshSectionsInflateWithFlateAlone is new data under the old reader:
// every section this build writes inflates, through compress/flate and
// nothing of ours, to the bytes it was made from, and huffman.Decode reads
// the codes out of them — the whole of the parent's read path.
func TestFreshSectionsInflateWithFlateAlone(t *testing.T) {
	var empty, tiny, stored, storedMulti, coded int
	for name, pair := range freshPayloads(t) {
		_, code, lits := sections(t, pair[0])
		_, rawCode, rawLits := sections(t, pair[1])
		for _, s := range []struct {
			what      string
			sec, want []byte
		}{{"code", code, rawCode}, {"literal", lits, rawLits}} {
			got, err := flateInflate(s.sec)
			if err != nil || !bytes.Equal(got, s.want) {
				t.Errorf("%s: %s section: flate reads %d bytes, err %v; the section was made from %d", name, s.what, len(got), err, len(s.want))
			}
			_, direct := storedAppend(nil, s.sec)
			switch {
			case len(s.want) == 0:
				empty++
			case len(s.want) <= 16:
				tiny++
			case direct && len(s.want) > maxStored:
				storedMulti++
			case direct:
				stored++
			default:
				coded++
			}
			if len(s.want) <= 16 && !direct {
				t.Errorf("%s: %s section of %d bytes went to flate", name, s.what, len(s.want))
			}
		}
		huff, err := flateInflate(code)
		if err != nil {
			t.Fatal(err)
		}
		got, err := huffman.Decode(huff)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := ExtractCodes(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: flate + huffman.Decode read other codes than were written", name)
		}
		if ours, err := ExtractCodes(pair[0]); err != nil || !slices.Equal(ours, want) {
			t.Errorf("%s: this build reads other codes than were written (err %v)", name, err)
		}
	}
	if empty == 0 || tiny == 0 || stored == 0 || storedMulti == 0 || coded == 0 {
		t.Errorf("sections seen: %d empty, %d under 17 B, %d stored, %d stored in several blocks, %d coded; want some of each",
			empty, tiny, stored, storedMulti, coded)
	}
}

// TestStoredOnlyWhereFlateStores pins the rule to what it stands in for: a
// section it stores is never larger than flate's coding of it, so nothing
// flate would have shrunk is passed over, and one it hands to flate is
// flate's output byte for byte.
func TestStoredOnlyWhereFlateStores(t *testing.T) {
	check := func(name string, raw []byte) {
		t.Helper()
		got, err := deflateAppend(nil, raw, 0)
		if err != nil {
			t.Fatal(err)
		}
		all := flateDeflate(t, raw)
		if _, direct := storedAppend(nil, got); !direct && !bytes.Equal(got, all) {
			t.Errorf("%s: a section handed to flate is not flate's output", name)
		}
		if len(got) > len(all) {
			t.Errorf("%s: %d bytes sealed to %d, flate alone makes them %d", name, len(raw), len(got), len(all))
		}
	}
	for name, pair := range freshPayloads(t) {
		_, code, lits := sections(t, pair[1])
		check(name+" code", code)
		check(name+" literal", lits)
	}
	rng := rand.New(rand.NewSource(33))
	noise := make([]byte, 3*maxStored/2)
	rng.Read(noise)
	check("noise", noise)
	// Incompressible but for one stretch of a single value or of a short
	// alphabet: the probe's business and the histogram's, one block each.
	run := bytes.Clone(noise)
	clear(run[1000:9000])
	check("noise with a run", run)
	narrow := bytes.Clone(noise)
	for i := maxStored; i < len(narrow); i++ {
		narrow[i] &= 0x0f
	}
	check("noise, then nibbles", narrow)
	check("text", bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 40))
}

// TestStoredAppendDelegates: storedAppend follows stored blocks only. A
// stream it cannot vouch for to the final block — a coded block after a
// stored one, a block cut short, a LEN its complement does not match, the
// reserved block type — it leaves alone, appending nothing; the decoder
// reads the first and refuses the rest, as flate does.
func TestStoredAppendDelegates(t *testing.T) {
	abc := []byte{0, 3, 0, 0xfc, 0xff, 'a', 'b', 'c'} // stored, not final
	mixed := append(bytes.Clone(abc), 0x03, 0x00)     // then an empty fixed-Huffman block, final
	if out, ok := storedAppend([]byte("x"), mixed); ok || string(out) != "x" {
		t.Errorf("stored + coded block: read directly (%v), dst now %q", ok, out)
	}
	if out, err := inflateSection([]byte("x"), mixed); err != nil || string(out) != "xabc" {
		t.Errorf("stored + coded block: the decoder reads %q, %v", out, err)
	}
	final := append([]byte{1}, abc[1:]...)
	if out, ok := storedAppend([]byte("x"), append(bytes.Clone(final), "trailing"...)); !ok || string(out) != "xabc" {
		t.Errorf("final stored block with bytes after it: %q, %v", out, ok)
	}
	padded := append([]byte{0xf9}, abc[1:]...) // the five bits after BTYPE are padding
	if out, ok := storedAppend(nil, padded); !ok || string(out) != "abc" {
		t.Errorf("stored block with padding bits set: %q, %v", out, ok)
	}
	for name, bad := range map[string][]byte{
		"empty":          {},
		"no final block": abc,
		"short header":   final[:4],
		"short block":    final[:7],
		"bad NLEN":       {1, 3, 0, 0xfc, 0xfe, 'a', 'b', 'c'},
		"reserved BTYPE": {7, 3, 0, 0xfc, 0xff, 'a', 'b', 'c'},
	} {
		if out, ok := storedAppend([]byte("x"), bad); ok || string(out) != "x" {
			t.Errorf("%s: read directly (%v), dst now %q", name, ok, out)
		}
		if _, err := inflateSection(nil, bad); err == nil {
			t.Errorf("%s: the decoder accepted it", name)
		}
		if _, err := flateInflate(bad); err == nil {
			t.Errorf("%s: flate accepts it: not the malformed stream this case is for", name)
		}
	}
}

// TestSectionBombRefused: a section inflates to no more than its header's
// value count can use. A payload of 64 values whose code or literal section
// is a few KiB of DEFLATE holding 4 MiB of zeros is refused with an sz:
// error, and decoding it allocates a sliver of the 4 MiB.
func TestSectionBombRefused(t *testing.T) {
	blob, _, err := CompressBlocks(testBlocks(1, 4, 1), Options{ErrorBound: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	h, rest, err := parseHeader(blob)
	if err != nil || h.n != 64 {
		t.Fatalf("header: n = %d, %v; want 64", h.n, err)
	}
	_, code, lits := sections(t, blob)
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(make([]byte, 4<<20))
	fw.Close()
	bomb := buf.Bytes()
	if len(bomb) > 8<<10 {
		t.Fatalf("the bomb is %d bytes", len(bomb))
	}
	prefix := blob[:len(blob)-len(rest)]
	d := NewDecoder[float32]()
	for name, payload := range map[string][]byte{
		"code":    bitio.AppendBytes(bitio.AppendBytes(bytes.Clone(prefix), bomb), lits),
		"literal": bitio.AppendBytes(bitio.AppendBytes(bytes.Clone(prefix), code), bomb),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := d.DecompressBlocks(payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, inflate.ErrLimit) || !strings.HasPrefix(err.Error(), "sz: inflating "+name+" section") {
			t.Errorf("%s section bomb: err %v, want an sz: error wrapping inflate.ErrLimit", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
			t.Errorf("%s section bomb: decoding it allocated %d bytes", name, n)
		}
	}
}

// sectionSeeds are the fuzzers' starting points: the sections of the
// parent-written fixtures as they lie in the payloads, and inflated.
func sectionSeeds(tb testing.TB) (sealed, raw [][]byte) {
	tb.Helper()
	for _, name := range []string{"parent_intra.hex", "parent_delta.hex"} {
		_, code, lits := sections(tb, fixture(tb, name))
		for _, s := range [][]byte{code, lits} {
			r, err := flateInflate(s)
			if err != nil {
				tb.Fatal(err)
			}
			sealed, raw = append(sealed, s), append(raw, r)
		}
	}
	return sealed, raw
}

// FuzzSectionCoding: for any bytes and any limit, whatever coding
// deflateAppend chose inflates back to the input through compress/flate; is
// at most five bytes a started 65,535-byte block larger than the input,
// and five more for flate's empty final block where flate was chosen; and
// errOverLimit is reported exactly when that coding passes the limit.
func FuzzSectionCoding(f *testing.F) {
	_, raw := sectionSeeds(f)
	for _, r := range raw {
		f.Add(r, 0)
		f.Add(r, len(r)/2)
		f.Add(r, len(r)+7)
	}
	f.Add([]byte{}, 6)
	f.Add(bytes.Repeat([]byte("abcd"), 9), 20)
	f.Add(bytes.Repeat([]byte{0xa5, 0x5a, 0x3c}, maxStored/2), 0) // two blocks, all repeats
	f.Fuzz(func(t *testing.T, data []byte, limit int) {
		const prefix = "kept"
		full, err := deflateAppend([]byte(prefix), data, 0)
		if err != nil || !bytes.HasPrefix(full, []byte(prefix)) {
			t.Fatalf("uncapped: %v, %d bytes", err, len(full))
		}
		sec := full[len(prefix):]
		if back, err := flateInflate(sec); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("flate reads %d bytes back, err %v; %d went in", len(back), err, len(data))
		}
		most := len(data) + 5*max(1, (len(data)+maxStored-1)/maxStored)
		if worthDeflating(data) {
			most += 5
		}
		if len(sec) > most {
			t.Fatalf("%d bytes sealed to %d, more than %d", len(data), len(sec), most)
		}
		capped, err := deflateAppend([]byte(prefix), data, limit)
		switch over := limit > 0 && len(full) > limit; {
		case over && !errors.Is(err, errOverLimit):
			t.Fatalf("limit %d, section %d bytes: err %v, want errOverLimit", limit, len(full), err)
		case !over && (err != nil || !bytes.Equal(capped, full)):
			t.Fatalf("limit %d, section %d bytes: err %v, %d bytes", limit, len(full), err, len(capped))
		}
	})
}

// FuzzInflateStored: on any bytes the decoder and compress/flate agree —
// the same output or both refuse, bytes after the final block ignored by
// both — and what storedAppend reads by itself is what flate reads; what it
// does not, it does not touch. Its seeds are the fixtures' sections as they
// lie, cut short, trailed, stored by storeAppend, and coded by flate at
// every level, so that plain go test holds the decoder to flate on sections
// of every kind.
func FuzzInflateStored(f *testing.F) {
	sealed, raw := sectionSeeds(f)
	for i, s := range sealed {
		f.Add(s)
		f.Add(s[:len(s)/2])
		f.Add(append(bytes.Clone(s), 0xde, 0xad))
		ours, err := storeAppend(nil, raw[i], 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ours)
	}
	f.Add([]byte{1, 0, 0, 0xff, 0xff})
	f.Add([]byte{1, 3, 0, 0xfc, 0xfe, 'a', 'b', 'c'})                 // bad NLEN
	f.Add([]byte{7, 3, 0, 0xfc, 0xff, 'a', 'b', 'c'})                 // reserved BTYPE
	f.Add([]byte{0, 3, 0, 0xfc, 0xff, 'a', 'b', 'c', 0x03, 0x00})     // stored, then coded
	f.Add([]byte{0, 1, 0, 0xfe, 0xff, 'a', 1, 1, 0, 0xfe, 0xff, 'b'}) // two stored blocks
	for _, r := range raw {
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression} {
			var buf bytes.Buffer
			fw, err := flate.NewWriter(&buf, level)
			if err != nil {
				f.Fatal(err)
			}
			fw.Write(r)
			fw.Close()
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := flateInflate(data)
		got, gerr := inflateSection([]byte("kept"), data)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("flate: %v; the decoder: %v", werr, gerr)
		}
		if werr == nil && string(got) != "kept"+string(want) {
			t.Fatalf("the decoder read %d bytes, flate %d", len(got)-4, len(want))
		}
		direct, ok := storedAppend([]byte("kept"), data)
		if ok && (werr != nil || string(direct) != "kept"+string(want)) {
			t.Fatalf("read directly: %d bytes; flate: %d bytes, err %v", len(direct)-4, len(want), werr)
		}
		if !ok && string(direct) != "kept" {
			t.Fatalf("a stream left to flate was appended from: %q", direct)
		}
	})
}
