package huffman

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// quantStream synthesizes a symbol stream shaped like the Run1_Z10
// quantization codes: a two-sided geometric distribution centered on the
// zero-residual bin (radius 2^15 at the default QuantBits=16) with a ~1%
// sprinkle of literal markers (code 0), matching what the Lorenzo
// predictor emits on the baryon-density field.
func quantStream(n int) []uint32 {
	rng := rand.New(rand.NewSource(7))
	syms := make([]uint32, n)
	const center = 1 << 15
	for i := range syms {
		if rng.Float64() < 0.01 {
			syms[i] = 0 // literal marker
			continue
		}
		d := int32(0)
		for rng.Intn(2) == 0 && d < 40 {
			d++
		}
		if rng.Intn(2) == 0 {
			d = -d
		}
		syms[i] = uint32(center + d)
	}
	return syms
}

// wideQuantStream synthesizes what the archive's own frames look like to
// the decoder, which quantStream is too tidy to show: ≈2.9 bit/symbol over
// an alphabet of ~300 bins — a geometric core around the centre bin, a
// heavy tail of large residuals whose codes run past TableBits, and the
// literal marker — so a code deeper than the primary table turns up every
// few hundred symbols.
func wideQuantStream(n int) []uint32 {
	rng := rand.New(rand.NewSource(9))
	syms := make([]uint32, n)
	const center = 1 << 15
	for i := range syms {
		switch r := rng.Float64(); {
		case r < 0.01:
			syms[i] = 0 // literal marker
		case r < 0.04:
			syms[i] = uint32(center - 150 + rng.Intn(301))
		default:
			d := 0
			for rng.Intn(2) == 0 && d < 40 {
				d++
			}
			syms[i] = uint32(center + d*(1-2*rng.Intn(2)))
		}
	}
	return syms
}

// frameStream synthesizes one archive frame's code stream as the decoder
// meets it in the benchmark's cold_extract workload, whose frames average
// 30.6 k symbols, 105 codebook entries (46 of them within TableBits),
// 2.585 bit/symbol and 0.35 % of symbols coded past TableBits: a geometric
// core around the centre bin, a flat band of larger residuals and the
// literal marker. At 30 k symbols it gives 106 entries, 46 within
// TableBits, 2.60 bit/symbol and 0.7 % past TableBits.
func frameStream(n int) []uint32 {
	rng := rand.New(rand.NewSource(27))
	syms := make([]uint32, n)
	const center = 1 << 15
	for i := range syms {
		switch r := rng.Float64(); {
		case r < 0.003:
			syms[i] = 0 // literal marker
		case r < 0.019:
			syms[i] = uint32(center - 52 + rng.Intn(105))
		default:
			d := 0
			for rng.Float64() < 0.47 && d < 40 {
				d++
			}
			syms[i] = uint32(center + d*(1-2*rng.Intn(2)))
		}
	}
	return syms
}

// residualStream synthesizes one residual (delta) frame's code stream as
// the decoder meets it in the benchmark's cold_extract workload, where two
// frames in three are residual: ≈32 k symbols over five bins, the zero
// residual's code one bit long and the longest three to five. Here it is
// the centre bin at 65 %, ±1 at 28 % and ±2 at 7 %, which codes in
// lengths 1, 2, 3, 4, 4 at 1.63 bit/symbol.
func residualStream(n int) []uint32 {
	rng := rand.New(rand.NewSource(5))
	syms := make([]uint32, n)
	const center = 1 << 15
	for i := range syms {
		d := 0
		if rng.Float64() >= 0.65 {
			d = 1
			if rng.Float64() >= 0.8 {
				d = 2
			}
		}
		syms[i] = uint32(center + d*(1-2*rng.Intn(2)))
	}
	return syms
}

// encodeFrameStream synthesizes one archive frame's code stream as the
// encoder meets it in the benchmark's campaign_write workload, whose frames
// are 32,768 symbols (64 blocks of 8³) with a median of 114 distinct
// symbols, 2.70 bit/symbol of entropy and a Huffman code of 2.785
// bit/symbol: frameStream's shape, a little wider. At 32,768 symbols it
// gives 114 distinct symbols, 2.71 bit/symbol of entropy and 2.78 coded.
func encodeFrameStream(n int) []uint32 {
	rng := rand.New(rand.NewSource(31))
	syms := make([]uint32, n)
	const center = 1 << 15
	for i := range syms {
		switch r := rng.Float64(); {
		case r < 0.003:
			syms[i] = 0 // literal marker
		case r < 0.023:
			syms[i] = uint32(center - 56 + rng.Intn(113))
		default:
			d := 0
			for rng.Float64() < 0.5 && d < 40 {
				d++
			}
			syms[i] = uint32(center + d*(1-2*rng.Intn(2)))
		}
	}
	return syms
}

func BenchmarkHuffmanEncode(b *testing.B) {
	syms := quantStream(1 << 18)
	var e Encoder
	dst := e.AppendEncode(nil, syms)
	b.SetBytes(int64(4 * len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.AppendEncode(dst[:0], syms)
	}
}

func BenchmarkHuffmanDecode(b *testing.B) {
	syms := quantStream(1 << 18)
	blob := Encode(syms)
	out, err := AppendDecode(nil, blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = AppendDecode(out[:0], blob)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHuffmanDecodeWide is BenchmarkHuffmanDecode on the realistic
// stream: long codes present, so a fast loop that cannot resume after one
// shows up here and not above.
func BenchmarkHuffmanDecodeWide(b *testing.B) {
	syms := wideQuantStream(1 << 18)
	var e Encoder
	blob := e.AppendEncode(nil, syms)
	if maxLen := e.maxCodeLen(); maxLen <= TableBits {
		b.Fatalf("max code length %d does not exceed TableBits=%d", maxLen, TableBits)
	}
	var d Decoder
	out, err := d.AppendDecode(nil, blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = d.AppendDecode(out[:0], blob)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*len(blob))/float64(len(syms)), "bit/sym")
}

// BenchmarkHuffmanDecodeFrame decodes one frame-sized stream, so the
// per-frame table build weighs in ns/op as it does in the reader, and
// reports the build alone (canonical order plus table fill) as build-ns.
func BenchmarkHuffmanDecodeFrame(b *testing.B) {
	syms := frameStream(30000)
	var e Encoder
	blob := e.AppendEncode(nil, syms)
	if maxLen := e.maxCodeLen(); maxLen <= TableBits {
		b.Fatalf("max code length %d does not exceed TableBits=%d", maxLen, TableBits)
	}
	var d Decoder
	out, err := d.AppendDecode(nil, blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(syms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = d.AppendDecode(out[:0], blob)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(buildNs(&d), "build-ns")
	b.ReportMetric(float64(8*len(blob))/float64(len(syms)), "bit/sym")
}

// buildNs times the table build alone (canonical order plus table fill)
// for the codebook d parsed last.
func buildNs(d *Decoder) float64 {
	const builds = 1000
	var t table
	start := time.Now()
	for i := 0; i < builds; i++ {
		d.build(&t, d.canonical())
	}
	return float64(time.Since(start).Nanoseconds()) / builds
}

// BenchmarkHuffmanDecodeResidual is BenchmarkHuffmanDecodeFrame on a
// residual frame's stream (residualStream): a short, shallow codebook,
// where what a probe can take is bounded by whole steps of the per-symbol
// loop rather than by the table's index width. Its codebook is small, so
// after the first op the Decoder takes its table from the cache; the
// build a miss pays is reported alone as build-ns, and the codes the
// table takes a probe as codes/probe.
func BenchmarkHuffmanDecodeResidual(b *testing.B) {
	syms := residualStream(32 << 10)
	blob := Encode(syms)
	var d Decoder
	out, err := d.AppendDecode(nil, blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(syms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = d.AppendDecode(out[:0], blob)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(buildNs(&d), "build-ns")
	b.ReportMetric(codesPerProbe(&d, blob), "codes/probe")
	b.ReportMetric(float64(8*len(blob))/float64(len(syms)), "bit/sym")
}

// residualBooks are the seven commonest small codebooks of the benchmark's
// delta archive (seed 5, every member extracted whole: 294 frames, eleven
// codebooks; these seven in 130, 49, 40, 38, 25, 3 and 3 frames), as the
// bins' offsets from the centre bin — the literal marker, symbol 0, at
// −2^15 — their code lengths and the codes counted in each bin.
var residualBooks = []struct{ bins, lens, counts []int }{
	{[]int{-2, -1, 0, 1, 2}, []int{3, 2, 2, 2, 3}, []int{199415, 1261894, 1315299, 1231273, 188983}},
	{[]int{-2, -1, 0, 1, 2}, []int{4, 2, 1, 3, 4}, []int{62042, 490076, 597201, 383381, 51940}},
	{[]int{-2, -1, 0, 1, 2}, []int{4, 3, 1, 2, 4}, []int{45696, 317755, 478579, 396996, 50702}},
	{[]int{-2, -1, 0, 1, 2}, []int{4, 1, 2, 3, 4}, []int{61020, 421823, 364004, 270587, 41734}},
	{[]int{-2, -1, 0, 1, 2}, []int{4, 3, 2, 1, 4}, []int{24850, 175529, 252510, 289309, 35018}},
	{[]int{-1 << 15, -2, -1, 0, 1, 2}, []int{5, 4, 3, 1, 2, 5}, []int{3, 3495, 25149, 39366, 27384, 2907}},
	{[]int{-1, 0, 1, 2}, []int{3, 2, 1, 3}, []int{1023, 3600, 7236, 429}},
}

// residualChain is one frame of n codes for each of residualBooks, drawn
// from its bins' counts, coded with its code lengths.
func residualChain(n int) ([][]byte, error) {
	rng := rand.New(rand.NewSource(11))
	var blobs [][]byte
	var d Decoder
	for _, book := range residualBooks {
		total := 0
		for _, c := range book.counts {
			total += c
		}
		syms := make([]uint32, n)
		for i := range syms {
			k, r := 0, rng.Intn(total)
			for ; r >= book.counts[k]; k++ {
				r -= book.counts[k]
			}
			syms[i] = uint32(1<<15 + book.bins[k])
		}
		blob := Encode(syms)
		if _, _, err := d.parseCodebook(blob); err != nil {
			return nil, err
		}
		for i, c := range d.codes {
			if int(c.len) != book.lens[i] {
				return nil, fmt.Errorf("codebook %v: lengths %v drawn", book.lens, d.codes)
			}
		}
		blobs = append(blobs, blob)
	}
	return blobs, nil
}

// BenchmarkHuffmanDecodeResidualChain decodes a residual frame of each of
// the delta archive's seven commonest codebooks (residualBooks) in turn,
// an op a round, on one Decoder, as a reader's pooled decoder meets them:
// the same few codebooks over and over. It reports ns/frame.
func BenchmarkHuffmanDecodeResidualChain(b *testing.B) {
	blobs, err := residualChain(32 << 10)
	if err != nil {
		b.Fatal(err)
	}
	var d Decoder
	var out []uint32
	round := func() {
		for _, blob := range blobs {
			if out, err = d.AppendDecode(out[:0], blob); err != nil {
				b.Fatal(err)
			}
		}
	}
	round() // the cache fills
	b.SetBytes(int64(4 * len(blobs) * (32 << 10)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blobs)), "ns/frame")
}

// BenchmarkHuffmanEncodeWide is the encode twin of
// BenchmarkHuffmanDecodeWide at the size of one archive frame (≈26 k
// symbols): the per-frame work — histogram, tree build, canonical order,
// emit table — is a fixed cost here, not amortised over 2^18 symbols as in
// BenchmarkHuffmanEncode.
func BenchmarkHuffmanEncodeWide(b *testing.B) {
	syms := wideQuantStream(26 << 10)
	var e Encoder
	dst := e.AppendEncode(nil, syms)
	b.SetBytes(int64(4 * len(syms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.AppendEncode(dst[:0], syms)
	}
	b.ReportMetric(float64(8*len(dst))/float64(len(syms)), "bit/sym")
}

// BenchmarkHuffmanEncodeFrame encodes one frame-sized stream shaped like
// the writer's (encodeFrameStream), so the per-frame count and codebook
// build weigh in ns/op as they do in the writer, and reports them alone:
// count-ns (the histogram and its collection in symbol order) and
// build-ns (code lengths, canonical codes, header and emit table).
func BenchmarkHuffmanEncodeFrame(b *testing.B) {
	syms := encodeFrameStream(32 << 10)
	var e Encoder
	dst := e.AppendEncode(nil, syms)
	b.SetBytes(int64(4 * len(syms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.AppendEncode(dst[:0], syms)
	}
	b.StopTimer()
	const rounds = 1000
	start := time.Now()
	for i := 0; i < rounds; i++ {
		e.count(syms)
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/rounds, "count-ns")
	start = time.Now()
	for i := 0; i < rounds; i++ {
		e.build(len(syms))
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/rounds, "build-ns")
	b.ReportMetric(float64(8*len(dst))/float64(len(syms)), "bit/sym")
}
