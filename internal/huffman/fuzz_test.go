package huffman

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitio"
)

// huffFuzzSeeds builds structurally plausible blobs — valid encodings of
// several distribution shapes plus handcrafted malformed codebooks — so
// the fuzzer starts near the interesting surfaces: the codebook validator,
// the LUT build, and the overflow decode path. The same seeds are checked
// in under testdata/fuzz for deterministic CI runs.
func huffFuzzSeeds() [][]byte {
	var seeds [][]byte

	seeds = append(seeds, Encode(nil))
	seeds = append(seeds, Encode([]uint32{7, 7, 7, 7}))
	seeds = append(seeds, Encode([]uint32{0, 1, 2, 0, 1, 0}))

	rng := rand.New(rand.NewSource(21))
	skew := make([]uint32, 4096)
	for i := range skew {
		v := uint32(32768)
		for rng.Intn(2) == 0 && v < 32790 {
			v++
		}
		skew[i] = v
	}
	seeds = append(seeds, Encode(skew))

	wide := make([]uint32, 4096)
	for i := range wide {
		wide[i] = uint32(rng.Intn(9000)) // deep codebook: overflow decode path
	}
	seeds = append(seeds, Encode(wide))

	// Malformed codebooks, framed well enough to reach the validator.
	mk := func(nsyms uint64, pairs [][2]uint64, body []byte) []byte {
		var hdr []byte
		hdr = bitio.AppendUvarint(hdr, nsyms)
		hdr = bitio.AppendUvarint(hdr, uint64(len(pairs)))
		for _, p := range pairs {
			hdr = bitio.AppendUvarint(hdr, p[0])
			hdr = bitio.AppendUvarint(hdr, p[1])
		}
		return append(bitio.AppendBytes(nil, hdr), body...)
	}
	seeds = append(seeds,
		mk(4, [][2]uint64{{0, 1}, {1, 1}, {1, 1}}, []byte{0xaa}), // over-subscribed
		mk(4, [][2]uint64{{3, 2}, {0, 2}}, []byte{0xaa}),         // duplicate symbol
		mk(4, [][2]uint64{{1 << 33, 2}}, []byte{0xaa}),           // symbol overflow
		mk(8, [][2]uint64{{0, 57}, {1, 57}}, []byte{0xff, 0xff}), // max-length codes
		mk(100, [][2]uint64{{5, 3}}, []byte{0x00}),               // count beyond stream
	)

	// The shapes the fast decode loop is differentially tested on (counts
	// around its entry condition, 1-bit codes, the 1–3-bit codebook of
	// four-code probes, symbols past 2^16, long codes back to back) and a
	// few random codebooks over random bits.
	for _, syms := range diffStreams() {
		if len(syms) <= 200 || len(syms) > 40000 {
			seeds = append(seeds, Encode(syms))
		}
	}
	for i := 0; i < 8; i++ {
		seeds = append(seeds, randomCodebookBlob(rng))
	}
	return seeds
}

// FuzzAppendDecode fuzzes the full decode surface: header framing, the
// codebook validator (Kraft, duplicates, overflow), the LUT build and both
// decode loops. Corrupt input must error, never panic or over-allocate,
// and every input must decode — or fail, with the same message — exactly
// as through the retained per-symbol oracle; successful decodes must
// survive a re-encode/re-decode round trip and be reproducible through a
// reused Decoder.
func FuzzAppendDecode(f *testing.F) {
	for _, s := range huffFuzzSeeds() {
		f.Add(s)
		if len(s) > 6 {
			mut := append([]byte(nil), s...)
			mut[len(mut)/2] ^= 0x11
			f.Add(mut)
			f.Add(s[:len(s)-2]) // truncated tail
		}
	}
	var pooled Decoder
	var oracle oracleDecoder
	var scratch []uint32
	f.Fuzz(func(t *testing.T, data []byte) {
		agree(t, &pooled, &oracle, "fuzz input", data)
		syms, err := AppendDecode(nil, data)
		if err != nil {
			return
		}
		if len(syms) > 8*len(data) {
			t.Fatalf("decoded %d symbols from %d bytes: over-allocation guard failed", len(syms), len(data))
		}
		// A pooled decoder carrying tables from previous inputs must agree.
		var perr error
		scratch, perr = pooled.AppendDecode(scratch[:0], data)
		if perr != nil {
			t.Fatalf("pooled decoder rejected input the fresh decoder accepted: %v", perr)
		}
		if len(scratch) != len(syms) {
			t.Fatalf("pooled decoder: %d symbols, fresh: %d", len(scratch), len(syms))
		}
		if !pooled.CodesZero() && slices.Contains(syms, 0) {
			t.Fatal("a codebook without symbol 0 decoded to a stream holding one")
		}
		for i := range syms {
			if scratch[i] != syms[i] {
				t.Fatalf("pooled decoder diverges at symbol %d", i)
			}
		}
		// Decoded symbols must survive a canonical re-encode round trip.
		re := Encode(syms)
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encode of decoded stream does not decode: %v", err)
		}
		if len(back) != len(syms) {
			t.Fatalf("re-encode round trip: %d symbols, want %d", len(back), len(syms))
		}
		for i := range syms {
			if back[i] != syms[i] {
				t.Fatalf("re-encode round trip diverges at symbol %d", i)
			}
		}
		_ = bytes.Equal(re, data) // blobs need not match (non-canonical headers decode too)
	})
}

// fuzzSymbols reads a symbol stream from fuzz input: the first byte picks
// the width of a symbol — 1, 2 or 4 bytes, little-endian — and the rest
// is the stream, a ragged tail dropped. Narrow symbols give small dense
// alphabets, 2-byte ones the whole dense range, 4-byte ones the map path.
func fuzzSymbols(data []byte) []uint32 {
	if len(data) == 0 {
		return nil
	}
	width := [3]int{1, 2, 4}[data[0]%3]
	body := data[1:]
	syms := make([]uint32, len(body)/width)
	for i := range syms {
		var v uint32
		for k := width - 1; k >= 0; k-- {
			v = v<<8 | uint32(body[i*width+k])
		}
		syms[i] = v
	}
	return syms
}

// fuzzInput is fuzzSymbols' inverse, at the narrowest width that holds
// every symbol of syms.
func fuzzInput(syms []uint32) []byte {
	top := uint32(0)
	for _, s := range syms {
		top = max(top, s)
	}
	mode, width := byte(0), 1
	switch {
	case top >= 1<<16:
		mode, width = 2, 4
	case top >= 1<<8:
		mode, width = 1, 2
	}
	data := []byte{mode}
	for _, s := range syms {
		for k := 0; k < width; k++ {
			data = append(data, byte(s>>(8*k)))
		}
	}
	return data
}

// encodeFuzzSeeds are the shapes of encodeStreams as fuzz inputs: of each
// family of lengths ("wide/n…"), its longest of at most 1100 symbols. The
// same seeds are checked in under testdata/fuzz.
func encodeFuzzSeeds() [][]byte {
	longest := map[string][]uint32{}
	for name, syms := range encodeStreams() {
		family, _, _ := strings.Cut(name, "/")
		if len(syms) <= 1100 && len(syms) >= len(longest[family]) {
			longest[family] = syms
		}
	}
	var seeds [][]byte
	for _, family := range slices.Sorted(maps.Keys(longest)) {
		seeds = append(seeds, fuzzInput(longest[family]))
	}
	return seeds
}

// FuzzEncodeMatchesOracle holds the encoder to the oracle's bytes on a
// symbol stream of the fuzzer's choosing, through one Encoder reused
// across inputs, as the writer reuses one across frames.
func FuzzEncodeMatchesOracle(f *testing.F) {
	for _, s := range encodeFuzzSeeds() {
		f.Add(s)
	}
	var e Encoder
	var dst []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		syms := fuzzSymbols(data)
		dst = e.AppendEncode(dst[:0], syms)
		if want := oracleEncode(syms); !bytes.Equal(dst, want) {
			t.Fatalf("%d symbols: %d bytes differ from the oracle's %d", len(syms), len(dst), len(want))
		}
	})
}
