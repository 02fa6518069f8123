package sz

import (
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/grid"
)

// litOffsets answers from the codebook where it can (no code for 0, the
// literal marker: every offset is zero) and from a scan of the code stream
// where it cannot. The tests here hold the first answer to the second on
// every payload the package has, and pin the word unseal leaves for it —
// Decoder.noLits — to the one call it is meant for.

// shortcutEqualsScan unseals blob, if it is a batch payload that unseals,
// and asks litOffsets twice: with unseal's word on the codebook, then —
// the first call having taken the word back — by the scan. It reports
// whether the codebook had the answer.
func shortcutEqualsScan[T grid.Float](tb testing.TB, what string, blob []byte) (short bool) {
	tb.Helper()
	info, err := PeekBatch(blob)
	if err != nil {
		return false
	}
	kind := kindBatch
	if info.Delta {
		kind = kindBatchDelta
	}
	var d Decoder[T]
	hdr, codes, lits, err := d.unseal(blob, kind)
	if err != nil {
		if d.noLits {
			tb.Fatalf("%s: unseal failed (%v) and left its word behind", what, err)
		}
		return false
	}
	bd, count, err := hdr.geometry()
	if err != nil {
		return false
	}
	short = d.noLits
	if short && slices.Contains(codes, 0) {
		tb.Fatalf("%s: a codebook without symbol 0 decoded to a stream holding one", what)
	}
	got, gotErr := d.litOffsets(codes, bd.Count(), count, lits)
	got = slices.Clone(got)
	if d.noLits {
		tb.Fatalf("%s: unseal's word survived the litOffsets call it was for", what)
	}
	want, wantErr := d.litOffsets(codes, bd.Count(), count, lits)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		tb.Fatalf("%s: from the codebook: error %v, from the scan: %v", what, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		tb.Fatalf("%s: offsets from the codebook %v, from the scan %v", what, got, want)
	}
	return short
}

// withCodeSection returns payload (written with DisableLossless) with its
// code section replaced.
func withCodeSection(tb testing.TB, payload, code []byte) []byte {
	tb.Helper()
	_, rest, err := parseHeader(payload)
	if err != nil {
		tb.Fatal(err)
	}
	_, _, lits := sections(tb, payload)
	out := slices.Clone(payload[:len(payload)-len(rest)])
	return bitio.AppendBytes(bitio.AppendBytes(out, code), lits)
}

func TestLitOffsetsShortcutEqualsScan(t *testing.T) {
	payloads := map[string][]byte{
		"parent intra fixture": fixture(t, "parent_intra.hex"),
		"parent delta fixture": fixture(t, "parent_delta.hex"),
	}
	for i, s := range fuzzSeeds(t) {
		payloads["fuzz seed "+string(rune('0'+i))] = s
	}
	for name, blob := range parentWide(t) {
		payloads["parent wide fixture "+name] = blob
	}
	// The golden payloads, both ways: one block in a hundred cells is a
	// literal. And a smooth batch, which has none.
	for name, opts := range map[string]Options{"golden raw": {ErrorBound: 0.1, DisableLossless: true}, "golden": {ErrorBound: 0.1}} {
		blob, _, err := CompressBlocks(testBlocks(4, 4, 1), opts)
		if err != nil {
			t.Fatal(err)
		}
		payloads[name] = blob
	}
	smooth := grid.NewBlocks[float32](grid.Dims{X: 8, Y: 8, Z: 8}, 20)
	for b, g := range smooth {
		for i := range g.Data {
			g.Data[i] = float32(b) + float32(i%8)/4
		}
	}
	blob, st, err := CompressBlocks(smooth, Options{ErrorBound: 0.125})
	if err != nil || st.Literals != 0 {
		t.Fatalf("smooth batch: %d literals, %v", st.Literals, err)
	}
	payloads["smooth"] = blob

	shorts := 0
	for name, p := range payloads {
		if shortcutEqualsScan[float32](t, name, p) {
			shorts++
		}
		shortcutEqualsScan[float64](t, name+" as float64", p)
	}
	if !shortcutEqualsScan[float32](t, "smooth", blob) || shorts == len(payloads) {
		t.Fatalf("%d of %d payloads answered from the codebook: want the smooth one, and not all", shorts, len(payloads))
	}
}

// TestLitOffsetsHostile is the rows no encoder writes.
func TestLitOffsetsHostile(t *testing.T) {
	d, n := grid.Dims{X: 2, Y: 2, Z: 2}, 3
	per := d.Count()
	dims := []grid.Dims{d, {X: n}}
	opts := Options{QuantBits: 16, DisableLossless: true}
	codes := make([]uint32, n*per)
	for i := range codes {
		codes[i] = 5 + uint32(i%3)
	}

	// No symbol 0, and a literal pool nothing owns: accepted, offsets zero,
	// without a scan.
	pool := make([]byte, 12)
	blob := seal[float32](t, kindBatch, dims, len(codes), 0.5, opts, codes, pool)
	if !shortcutEqualsScan[float32](t, "unowned pool", blob) {
		t.Fatal("unowned pool: a codebook without symbol 0 did not answer")
	}
	var dec Decoder[float32]
	if err := dec.DecompressBlocksInto(grid.NewBlocks[float32](d, n), blob); err != nil {
		t.Fatalf("unowned pool: %v", err)
	}

	// A codebook with a code for 0 that the stream never uses — two
	// one-bit codes, 0 and 5, and a stream of ones: the scan, as before.
	code := bitio.AppendBytes(nil, []byte{byte(len(codes)), 2, 0, 1, 5, 1})
	code = append(code, 0xff, 0xff, 0xff)
	unused := withCodeSection(t, blob, code)
	if shortcutEqualsScan[float32](t, "unused zero code", unused) {
		t.Fatal("unused zero code: answered from a codebook that has symbol 0")
	}
	b, err := dec.openBatch(unused, kindBatch)
	if err != nil || slices.Contains(b.codes, 0) || slices.ContainsFunc(b.litOff, func(o int) bool { return o != 0 }) {
		t.Fatalf("unused zero code: offsets %v, %v", b.litOff, err)
	}

	// A decoder that never unsealed anything scans (the kernel tests build
	// batches this way), and so does one whose last unseal had no literals
	// once litOffsets has taken that word back.
	codes[1], codes[per] = 0, 0
	want := []int{0, 4, 8, 8}
	for name, dec := range map[string]*Decoder[float32]{"fresh": {}, "after a batch without literals": &dec} {
		if name != "fresh" {
			if err := dec.DecompressBlocksInto(grid.NewBlocks[float32](d, n), blob); err != nil {
				t.Fatal(err)
			}
		}
		got, err := dec.litOffsets(codes, per, n, pool)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s decoder: offsets %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := dec.litOffsets(codes, per, n, pool[:4]); err == nil {
		t.Fatal("a pool one literal short was accepted")
	}

	// No blocks at all.
	for _, word := range []bool{false, true} {
		dec.noLits = word
		if got, err := dec.litOffsets(nil, per, 0, nil); err != nil || !slices.Equal(got, []int{0}) {
			t.Fatalf("empty stream, word %v: offsets %v, %v", word, got, err)
		}
	}
}

// TestStaleDecoderAcrossLiterals runs one decoder over a batch with
// literals, one without and the first again: each must decode as a fresh
// decoder decodes it, whatever the call before left behind.
func TestStaleDecoderAcrossLiterals(t *testing.T) {
	with := testBlocks(20, 8, 3)
	without := grid.NewBlocks[float32](with[0].Dim, len(with))
	for b, g := range without {
		for i := range g.Data {
			g.Data[i] = float32(b) - float32(i%8)/4
		}
	}
	var blobs [2][]byte
	for i, blocks := range [][]*grid.Grid3[float32]{with, without} {
		blob, st, err := CompressBlocks(blocks, Options{ErrorBound: 0.125})
		if err != nil || (st.Literals > 0) != (i == 0) {
			t.Fatalf("batch %d: %d literals, %v", i, st.Literals, err)
		}
		blobs[i] = blob
	}
	var dec Decoder[float32]
	for step, i := range []int{0, 1, 1, 0, 1, 0} {
		want, err := DecompressBlocks[float32](blobs[i])
		if err != nil {
			t.Fatal(err)
		}
		got := grid.NewBlocks[float32](with[0].Dim, len(with))
		if err := dec.DecompressBlocksInto(got, blobs[i]); err != nil {
			t.Fatal(err)
		}
		if dec.noLits {
			t.Fatalf("step %d: the decoder kept unseal's word past the call", step)
		}
		sameBits(t, "reused decoder", got, want)
	}
}
