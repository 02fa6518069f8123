package huffman

import (
	"fmt"
	"math/rand"
	"testing"
)

// diffStreams are the symbol-stream shapes the fast decode loop has to get
// right: every count around its 8-symbol entry condition, alphabets of one
// and two symbols (1-bit codes, the densest pairing), symbols too wide for
// the packed sym2 field, and codes longer than TableBits arriving back to
// back so the loop must resume after each.
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
			ds += 1 << 16 // symbols past the packed sym2 field
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
// stream shape, on each short blob cut at every byte, and on random
// codebooks over random bits.
func TestDecodeMatchesOracle(t *testing.T) {
	var dec Decoder
	var oracle oracleDecoder
	for name, syms := range diffStreams() {
		blob := Encode(syms)
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
		if len(blob) > 200 {
			continue
		}
		for cut := 0; cut < len(blob); cut++ {
			agree(t, &dec, &oracle, fmt.Sprintf("%s cut at %d", name, cut), blob[:cut])
		}
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 5000; i++ {
		blob := randomCodebookBlob(rng)
		agree(t, &dec, &oracle, fmt.Sprintf("random codebook %d (%x)", i, blob), blob)
	}
}
