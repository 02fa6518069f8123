package archive

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/replica"
)

// benchCampaign is a K=4 campaign at a frame size like the corpus the
// repo's benchmark runs on (64³ finest, 8³ unit blocks, 64-block frames —
// 32k symbols a frame), opened for extraction.
func benchCampaign(b *testing.B) (*Reader, grid.Dims) {
	snaps := campaignOf(b, 64, 8, 4)
	blob := buildDeltaArchiveBatch(b, snaps, 4, 64)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		b.Fatal(err)
	}
	return r, snaps[0].FinestDims()
}

// BenchmarkExtractRegion pulls an eighth of the volume out of the intra
// member: every touched frame is entropy-decoded whole, but only the
// wanted blocks should be reconstructed and nothing per frame allocated.
func BenchmarkExtractRegion(b *testing.B) {
	r, fd := benchCampaign(b)
	roi := grid.Region{X0: 8, Y0: 16, Z0: 24, X1: 8 + fd.X/2, Y1: 16 + fd.Y/2, Z1: 24 + fd.Z/2}
	part, err := r.ExtractRegion(0, roi)
	if err != nil {
		b.Fatal(err)
	}
	stored := 0
	for _, l := range part.Levels {
		stored += l.StoredCells()
	}
	b.SetBytes(int64(stored) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ExtractRegion(0, roi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractMember extracts one intra member of the same campaign
// three ways: from a plain archive, from a digest-carrying one (per-frame
// CRC32C and footer self-digest, verified on every read), and from that
// one behind a healthy two-source replica.Multi. The last two against the
// first are what verification and the failover layer cost a read.
func BenchmarkExtractMember(b *testing.B) {
	snaps := campaignOf(b, 64, 8, 4)
	plain := buildArchive(b, snaps, codec.Config{ErrorBound: testEB}, 64)
	summed := buildV4(b, snaps, 64) // FooterSum implies Checksums
	multi, err := replica.New(replica.Config{},
		replica.Reader(bytes.NewReader(summed), "primary"),
		replica.Reader(bytes.NewReader(summed), "replica"))
	if err != nil {
		b.Fatal(err)
	}
	for _, src := range []struct {
		name string
		ra   io.ReaderAt
		size int
	}{
		{"plain", bytes.NewReader(plain), len(plain)},
		{"summed", bytes.NewReader(summed), len(summed)},
		{"replica", multi, len(summed)},
	} {
		b.Run(src.name, func(b *testing.B) {
			r, err := Open(src.ra, int64(src.size))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(snaps[1].OriginalBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Extract(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtractDeltaChain extracts the member at chain depth 3: four
// frames decoded per batch, which should cost four entropy decodes and
// one set of blocks, not four.
func BenchmarkExtractDeltaChain(b *testing.B) {
	r, _ := benchCampaign(b)
	const deepest = 3
	if m := r.Members()[deepest]; !m.IsDelta() {
		b.Fatalf("member %d is not delta-coded", deepest)
	}
	ds, err := r.Extract(deepest)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(ds.OriginalBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Extract(deepest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveWriteCampaign writes what the repo's benchmark times on
// its delta archive: a 6-step campaign at Keyframe=4, checksummed, 64³
// finest with 8³ unit blocks in 64-block frames. Run it at -cpu 1,2: the
// writer's fan-out is cfg.Workers = -1.
func BenchmarkArchiveWriteCampaign(b *testing.B) {
	snaps := campaignOf(b, 64, 8, 6)
	var raw int64
	for _, ds := range snaps {
		raw += int64(ds.OriginalBytes())
	}
	var buf bytes.Buffer
	b.SetBytes(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w, err := NewWriter(&buf)
		if err != nil {
			b.Fatal(err)
		}
		w.BatchBlocks = 64
		w.Keyframe = 4
		w.Checksums = true
		for _, ds := range snaps {
			if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB, Workers: -1}); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
