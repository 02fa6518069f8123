package huffman

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
)

func roundTrip(t *testing.T, syms []uint32) {
	t.Helper()
	decodesTo(t, Encode(syms), syms)
}

// decodesTo requires blob to decode to syms.
func decodesTo(t *testing.T, blob []byte, syms []uint32) {
	t.Helper()
	got, err := Decode(blob)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != len(syms) {
		t.Fatalf("decoded %d symbols, want %d", len(got), len(syms))
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, got[i], syms[i])
		}
	}
}

func TestEmpty(t *testing.T)        { roundTrip(t, nil) }
func TestSingleSymbol(t *testing.T) { roundTrip(t, []uint32{7, 7, 7, 7, 7}) }
func TestTwoSymbols(t *testing.T)   { roundTrip(t, []uint32{1, 2, 1, 1, 2}) }

func TestSkewedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	syms := make([]uint32, 100000)
	for i := range syms {
		// Geometric-ish distribution, like quantization codes.
		v := uint32(32768)
		for rng.Intn(2) == 0 && v < 32790 {
			v++
		}
		syms[i] = v
	}
	blob := Encode(syms)
	if len(blob) >= 2*len(syms) {
		t.Fatalf("skewed stream did not compress: %d bytes for %d symbols", len(blob), len(syms))
	}
	roundTrip(t, syms)
}

func TestUniformAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint32, 4096)
	for i := range syms {
		syms[i] = uint32(rng.Intn(256))
	}
	roundTrip(t, syms)
}

// TestLargeSymbolValues decodes symbols past the encoder's 16-bit
// alphabet, as the oracle encoder codes them: the decoder reads 32-bit
// symbols.
func TestLargeSymbolValues(t *testing.T) {
	syms := []uint32{0, 1 << 30, 42, 1<<31 + 5, 42, 0}
	decodesTo(t, oracleEncode(syms), syms)
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16, alphabet uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := int(alphabet)%64 + 1
		syms := make([]uint32, int(n)%2048)
		for i := range syms {
			syms[i] = uint32(rng.Intn(a))
		}
		blob := Encode(syms)
		got, err := Decode(blob)
		if err != nil || len(got) != len(syms) {
			return false
		}
		for i := range syms {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	syms := []uint32{1, 2, 3, 4, 5, 1, 2, 3}
	blob := Encode(syms)
	// Truncations must error, never panic or return wrong-length output.
	for cut := 0; cut < len(blob); cut++ {
		if got, err := Decode(blob[:cut]); err == nil && len(got) == len(syms) {
			// A prefix that still decodes fully would be a framing bug.
			same := true
			for i := range syms {
				if got[i] != syms[i] {
					same = false
					break
				}
			}
			if same && cut < len(blob)-1 {
				t.Fatalf("truncation to %d bytes still decodes fully", cut)
			}
		}
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode(nil) should error")
	}
}

// kraftSum returns Σ 2^(maxCodeLen - len) over the codebook, scaled so a
// complete prefix-free code sums to exactly 1<<maxCodeLen.
func kraftSum(codes []symCode) uint64 {
	var k uint64
	for _, c := range codes {
		k += (uint64(1) << maxCodeLen) >> c.len
	}
	return k
}

// assertPrefixFree verifies no canonical code is a prefix of another.
func assertPrefixFree(t *testing.T, codes []symCode) {
	t.Helper()
	for i := range codes {
		if codes[i].code >= 1<<codes[i].len {
			t.Fatalf("code %d: %b overflows its length %d", i, codes[i].code, codes[i].len)
		}
		for j := i + 1; j < len(codes); j++ {
			a, b := codes[i], codes[j]
			if a.len > b.len {
				a, b = b, a
			}
			if b.code>>(b.len-a.len) == a.code {
				t.Fatalf("code %b/%d is a prefix of %b/%d", a.code, a.len, b.code, b.len)
			}
		}
	}
}

// TestLimitLengthsAdversarial feeds the tree builder a Fibonacci frequency
// ladder — the classic worst case, driving raw Huffman depths far past
// maxCodeLen — and checks the redistributed lengths are limited, Kraft-
// valid and prefix-free. The old implementation clamped depths in place,
// which broke prefix-freeness exactly here. The ladder passes 2^32, which
// no stream the encoder counts does, so the oracle's tree build takes it.
func TestLimitLengthsAdversarial(t *testing.T) {
	sf := make([]symFreq, 90)
	a, b := uint64(1), uint64(1)
	for i := range sf {
		sf[i] = symFreq{sym: uint32(i), freq: a}
		a, b = b, a+b
	}
	var tb oracleTree
	raw := tb.codeLengths(sf)
	deep := false
	for _, c := range raw {
		if c.len > maxCodeLen {
			deep = true
		}
	}
	if !deep {
		t.Fatal("adversarial distribution did not exceed maxCodeLen; test is vacuous")
	}
	limitLengths(raw)
	for _, c := range raw {
		if c.len == 0 || c.len > maxCodeLen {
			t.Fatalf("symbol %d: length %d outside [1,%d]", c.sym, c.len, maxCodeLen)
		}
	}
	if k := kraftSum(raw); k > 1<<maxCodeLen {
		t.Fatalf("limited lengths over-subscribed: kraft %d > %d", k, uint64(1)<<maxCodeLen)
	}
	assertPrefixFree(t, canonicalize(raw))
}

// TestCodeLengthsOrderInvariant checks the tree build is a pure function
// of the frequency multiset: the codebook of shuffled inputs is the one of
// inputs in symbol order (this is what keeps payloads byte-identical).
func TestCodeLengthsOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sf := make([]symFreq, 257)
	for i := range sf {
		sf[i] = symFreq{sym: uint32(i * 3), freq: uint64(rng.Intn(50) + 1)}
	}
	var tb treeBuilder
	ref := canonicalize(tb.codeLengths(nil, sf))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(sf), func(i, j int) { sf[i], sf[j] = sf[j], sf[i] })
		got := canonicalize(tb.codeLengths(nil, sf))
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d codes, want %d", trial, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("trial %d code %d: %+v != %+v", trial, i, got[i], ref[i])
			}
		}
	}
}

// TestLongCodesOverflowPath round-trips a stream whose codebook is deeper
// than the primary decode table, so symbols resolve through the canonical
// first-code overflow path as well as the LUT.
func TestLongCodesOverflowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var syms []uint32
	// Zipf-ish: a few very hot symbols (short codes) plus a long tail of
	// thousands of rare ones (codes well past TableBits bits).
	for i := 0; i < 60000; i++ {
		syms = append(syms, uint32(rng.Intn(8)))
	}
	for i := 0; i < 10000; i++ {
		syms = append(syms, uint32(8+rng.Intn(12000)))
	}
	rng.Shuffle(len(syms), func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })

	var e Encoder
	blob := e.AppendEncode(nil, syms)
	maxLen := e.maxCodeLen()
	if maxLen <= TableBits {
		t.Fatalf("max code length %d does not exceed TableBits=%d; test is vacuous", maxLen, TableBits)
	}
	roundTrip(t, syms)
	var d Decoder
	got, err := d.AppendDecode(nil, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, got[i], syms[i])
		}
	}
}

// TestDecoderReuse interleaves decodes of different codebooks (shallow,
// deep, single-symbol) through one pooled Decoder: stale tables from a
// previous call must never leak into the next. Narrow alphabets alternate
// with ones past 2^16, each long enough to run the fast loop, so an entry
// or a rank→symbol slot surviving a rebuild would surface as a wrong
// symbol. The streams are coded by oracleEncode, as the encoder's alphabet
// ends at 2^16.
func TestDecoderReuse(t *testing.T) {
	streams := [][]uint32{
		{5, 5, 5, 5},
		{1, 2, 3, 1, 2, 1},
		nil,
		{70000, 1, 70000, 2, 1 << 30},
	}
	rng := rand.New(rand.NewSource(13))
	wide := make([]uint32, 30000)
	for i := range wide {
		wide[i] = uint32(rng.Intn(9000))
	}
	streams = append(streams, wide)
	for _, base := range []uint32{3, 1 << 16, 40, 1 << 20} {
		s := make([]uint32, 1000)
		for i := range s {
			s[i] = base + uint32(rng.Intn(3))
		}
		streams = append(streams, s)
	}

	blobs := make([][]byte, len(streams))
	for i, s := range streams {
		blobs[i] = oracleEncode(s)
	}
	var d Decoder
	var out []uint32
	for round := 0; round < 3; round++ {
		for i, s := range streams {
			var err error
			out, err = d.AppendDecode(out[:0], blobs[i])
			if err != nil {
				t.Fatalf("round %d stream %d: %v", round, i, err)
			}
			if len(out) != len(s) {
				t.Fatalf("round %d stream %d: %d symbols, want %d", round, i, len(out), len(s))
			}
			for j := range s {
				if out[j] != s[j] {
					t.Fatalf("round %d stream %d symbol %d: got %d, want %d", round, i, j, out[j], s[j])
				}
			}
		}
	}
}

// TestAppendDecodeAppends decodes behind a non-empty dst, through a pooled
// Decoder and the package function, with and without the spare capacity
// the symbols need: the prefix is kept, the symbols follow it, and spare
// capacity is decoded into in place. An empty stream returns dst itself.
func TestAppendDecodeAppends(t *testing.T) {
	syms := wideQuantStream(5000)
	blob := Encode(syms)
	prefix := []uint32{9, 1 << 20, 7}
	want := append(slices.Clone(prefix), syms...)
	var d Decoder
	decoders := map[string]func([]uint32, []byte) ([]uint32, error){
		"Decoder.AppendDecode": d.AppendDecode,
		"AppendDecode":         AppendDecode,
	}
	for _, spare := range []int{0, len(syms)} {
		for name, decode := range decoders {
			dst := append(make([]uint32, 0, len(prefix)+spare), prefix...)
			got, err := decode(dst, blob)
			if err != nil {
				t.Fatalf("%s, spare %d: %v", name, spare, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, spare %d: %d symbols, want the prefix then the %d decoded", name, spare, len(got), len(syms))
			}
			if spare > 0 && &got[0] != &dst[0] {
				t.Errorf("%s: spare capacity not decoded into", name)
			}
			if empty, err := decode(dst, Encode(nil)); err != nil || len(empty) != len(dst) || &empty[0] != &dst[0] {
				t.Errorf("%s, spare %d: empty stream returned %d symbols, err %v; want dst itself", name, spare, len(empty), err)
			}
		}
	}
}

// TestCodesZero holds CodesZero to the codebook of the call before it, on
// one decoder run over streams with and without symbol 0, an empty one and
// a codebook that lists symbol 0 for a stream that never uses it; and
// holds every accepted stream to what it promises: no code for 0, no 0 in
// the output.
func TestCodesZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	long := make([]uint32, 5000)
	for i := range long {
		long[i] = 1 + uint32(rng.Intn(40)) + uint32(rng.Intn(2))<<15
	}
	cases := []struct {
		name string
		blob []byte
		want bool
	}{
		{"with zero", Encode([]uint32{0, 3, 0, 9}), true},
		{"without", Encode([]uint32{4, 3, 4, 9}), false},
		{"only zeros", Encode([]uint32{0, 0, 0}), true},
		{"empty", Encode(nil), false},
		{"long, long codes, without", Encode(long), false},
		{"zero listed, never used", corruptBlob(8, [][2]uint64{{0, 1}, {5, 1}}, []byte{0xff}), true},
		{"zero first of many", oracleEncode([]uint32{7, 1 << 20, 0, 7, 7}), true},
	}
	var d Decoder
	var out []uint32
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			var err error
			if out, err = d.AppendDecode(out[:0], c.blob); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := d.CodesZero(); got != c.want {
				t.Errorf("round %d, %s: CodesZero = %v, want %v", round, c.name, got, c.want)
			}
			if !d.CodesZero() && slices.Contains(out, 0) {
				t.Errorf("round %d, %s: no code for symbol 0, and a 0 in the output", round, c.name)
			}
		}
	}
}

// TestEncoderCodesZero holds the encoder's CodesZero to the stream of the
// call before it — whether it holds a 0 — and to the decoder's answer on
// the blob that call wrote, on one encoder over streams with and without
// symbol 0, and an empty stream.
func TestEncoderCodesZero(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	streams := map[string][]uint32{
		"empty":         nil,
		"only zeros":    {0, 0, 0},
		"dense with":    {1 << 15, 0, 1<<15 + 1, 1 << 15},
		"dense without": {1 << 15, 1<<15 - 1, 1<<15 + 1},
	}
	for _, zero := range []bool{false, true} {
		long := make([]uint32, 5000)
		for i := range long {
			long[i] = 1<<15 + uint32(rng.Intn(64)) - 32
		}
		if zero {
			long[rng.Intn(len(long))] = 0
		}
		streams[fmt.Sprintf("long, zero %v", zero)] = long
	}
	var e Encoder
	var d Decoder
	for round := 0; round < 2; round++ {
		for name, syms := range streams {
			blob := e.AppendEncode(nil, syms)
			if got, want := e.CodesZero(), slices.Contains(syms, 0); got != want {
				t.Errorf("round %d, %s: CodesZero = %v, want %v", round, name, got, want)
			}
			if _, err := d.AppendDecode(nil, blob); err != nil {
				t.Fatal(err)
			}
			if e.CodesZero() != d.CodesZero() {
				t.Errorf("round %d, %s: encoder says %v, the decoder of its blob %v", round, name, e.CodesZero(), d.CodesZero())
			}
		}
	}
}

// corruptBlob assembles a syntactically framed blob from a hand-built
// codebook: pairs are (deltaSym, len) varints, body is raw bit-stream
// bytes.
func corruptBlob(nsyms uint64, pairs [][2]uint64, body []byte) []byte {
	var hdr []byte
	hdr = bitio.AppendUvarint(hdr, nsyms)
	hdr = bitio.AppendUvarint(hdr, uint64(len(pairs)))
	for _, p := range pairs {
		hdr = bitio.AppendUvarint(hdr, p[0])
		hdr = bitio.AppendUvarint(hdr, p[1])
	}
	blob := bitio.AppendBytes(nil, hdr)
	return append(blob, body...)
}

// TestMalformedCodebooks pins the decoder's rejection of structurally
// invalid codebooks: over-subscribed length sets (which would break the
// table build), duplicate symbols, symbol overflow, and over-long codes.
func TestMalformedCodebooks(t *testing.T) {
	cases := []struct {
		name string
		blob []byte
	}{
		{"over-subscribed", corruptBlob(4, [][2]uint64{{0, 1}, {1, 1}, {1, 1}}, []byte{0xaa})},
		{"duplicate symbol", corruptBlob(4, [][2]uint64{{3, 2}, {0, 2}}, []byte{0xaa})},
		{"symbol overflow", corruptBlob(4, [][2]uint64{{1 << 33, 2}}, []byte{0xaa})},
		{"delta overflow", corruptBlob(4, [][2]uint64{{1 << 31, 2}, {1 << 31, 2}, {1 << 31, 3}}, []byte{0xaa})},
		{"zero length", corruptBlob(4, [][2]uint64{{0, 0}}, []byte{0xaa})},
		{"over-long length", corruptBlob(4, [][2]uint64{{0, 58}}, []byte{0xaa})},
	}
	for _, c := range cases {
		if _, err := Decode(c.blob); err == nil {
			t.Errorf("%s: Decode accepted a malformed codebook", c.name)
		}
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	// A highly repetitive stream should compress far below 4 bytes/symbol.
	syms := make([]uint32, 65536)
	for i := range syms {
		syms[i] = uint32(i % 3)
	}
	blob := Encode(syms)
	if len(blob) > len(syms)/2 {
		t.Fatalf("3-symbol stream took %d bytes for %d symbols", len(blob), len(syms))
	}
}
