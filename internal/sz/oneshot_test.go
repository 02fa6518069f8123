package sz

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/grid"
)

// Entry points only the tests call: the one-shot forms of the pooled
// Decoder's batch decoders, of CompressBlocksDelta and of the payload
// seal/unseal, and the ratio of a Stats.

// Ratio returns the compression ratio against the stream's uncompressed
// storage at its actual element width — 4 bytes for float32 streams (the
// accounting the paper uses for Nyx data), 8 for float64, so
// double-precision streams no longer report half their true ratio.
func (s Stats) Ratio() float64 {
	if s.CompressedLen == 0 {
		return 0
	}
	eb := s.ElemBytes
	if eb == 0 {
		eb = 4
	}
	return float64(eb*s.N) / float64(s.CompressedLen)
}

// DecompressBlocks inverts CompressBlocks.
func DecompressBlocks[T grid.Float](blob []byte) ([]*grid.Grid3[T], error) {
	var d Decoder[T]
	return d.DecompressBlocks(blob)
}

// seal assembles a payload, lossless stage off, from a code stream and a
// literal pool taken as they are. The Encoder's seal builds the pool from
// the values coded; this one seals the codes over zeros and puts lits in
// place of the pool, so that a test can seal the oracles' pools and pools
// no encoder writes (short ones, unowned ones).
func seal[T grid.Float](tb testing.TB, kind int, dims []grid.Dims, n int, eb float64, opts Options, codes []uint32, lits []byte) []byte {
	tb.Helper()
	if !opts.DisableLossless {
		tb.Fatal("seal: sections are put in place raw; disable the lossless stage")
	}
	var e Encoder[T]
	blob, _, err := e.sealWithin(0, kind, dims, n, eb, opts, codes, []*grid.Grid3[T]{{Data: make([]T, len(codes))}})
	if err != nil {
		tb.Fatal(err)
	}
	_, rest, err := parseHeader(blob)
	if err != nil {
		tb.Fatal(err)
	}
	r := bitio.NewReader(rest)
	code := r.Bytes()
	if err := r.Err(); err != nil {
		tb.Fatal(err)
	}
	head := len(blob) - len(rest)
	return bitio.AppendBytes(bitio.AppendBytes(blob[:head:head], code), lits)
}

// unseal parses a payload and returns the header, code stream and literal
// pool (one-shot entry point; the Decoder method is the implementation).
func unseal(blob []byte, wantKind int) (header, []uint32, []byte, error) {
	var d Decoder[float32] // T is irrelevant to section parsing
	return d.unseal(blob, wantKind)
}

// CompressBlocksDelta is the one-shot form of Encoder.CompressBlocksDelta.
func CompressBlocksDelta[T grid.Float](blocks, refs []*grid.Grid3[T], opts Options) ([]byte, Stats, error) {
	var e Encoder[T]
	return e.CompressBlocksDelta(blocks, refs, opts, nil)
}

// DecompressBlocksDelta is the one-shot form of
// Decoder.DecompressBlocksDelta.
func DecompressBlocksDelta[T grid.Float](blob []byte, refs []*grid.Grid3[T]) ([]*grid.Grid3[T], error) {
	var d Decoder[T]
	return d.DecompressBlocksDelta(blob, refs)
}
