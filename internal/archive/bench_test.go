package archive

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/replica"
	"repro/internal/sim"
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

// allocCheck holds what an extraction benchmark allocates per operation to
// what it allocated before frames could park, plus what parking may add.
// Bytes: the levels returned and 64 KiB of planning around them, then a
// slab with its headers for every frame parked. Allocations: the count
// measured at the commit before (parentAllocs), then three for every
// frame parked and the growth of one list per level.
type allocCheck struct {
	r      *Reader
	ms     runtime.MemStats
	parked int64
}

func startAllocCheck(b *testing.B, r *Reader) *allocCheck {
	c := &allocCheck{r: r, parked: r.parked.Load()}
	runtime.ReadMemStats(&c.ms)
	b.ResetTimer()
	return c
}

func (c *allocCheck) done(b *testing.B, returned []*amr.Level, parentAllocs float64) {
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := float64(b.N)
	parked := float64(c.r.parked.Load()-c.parked) / n
	b.ReportMetric(parked, "parked/op")
	if b.N < 100 || runtime.GOMAXPROCS(0) > 2 {
		// A cold decoder pool is still being paid for; and parentAllocs was
		// measured at -cpu 1,2: every further worker is a decoder more for
		// the collector to drop from the pool between operations.
		return
	}
	levels := 64 << 10
	for _, l := range returned {
		levels += 4*len(l.Grid.Data) + l.Mask.PackedLen()
	}
	idx := &c.r.Members()[0].Levels[0]
	slab := idx.BatchBlocks * (4*idx.unitDims().Count() + 64)
	if got, most := float64(ms.TotalAlloc-c.ms.TotalAlloc)/n, float64(levels)+parked*float64(slab); got > most {
		b.Errorf("%.0f B/op with %.2f frames parked an operation: more than the %.0f that allows", got, parked, most)
	}
	if got, most := float64(ms.Mallocs-c.ms.Mallocs)/n, parentAllocs+3*parked+4*float64(len(returned)); got > most {
		b.Errorf("%.1f allocs/op with %.2f frames parked an operation: more than the %.1f that allows", got, parked, most)
	}
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
	check := startAllocCheck(b, r)
	for i := 0; i < b.N; i++ {
		if _, err := r.ExtractRegion(0, roi); err != nil {
			b.Fatal(err)
		}
	}
	check.done(b, part.Levels, 46)
}

// BenchmarkExtractMember extracts one intra member of the same campaign
// three ways: with the frames' digests dropped from the index, as a legacy
// archive without them is read; verifying every frame read against its
// CRC32C; and from the archive behind a healthy two-source replica.Multi.
// The last two against the first are what verification and the failover
// layer cost a read.
func BenchmarkExtractMember(b *testing.B) {
	snaps := campaignOf(b, 64, 8, 4)
	summed := buildArchive(b, snaps, codec.Config{ErrorBound: testEB}, 64)
	multi, err := replica.New(
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
		{"plain", bytes.NewReader(summed), len(summed)},
		{"summed", bytes.NewReader(summed), len(summed)},
		{"replica", multi, len(summed)},
	} {
		b.Run(src.name, func(b *testing.B) {
			r, err := Open(src.ra, int64(src.size))
			if err != nil {
				b.Fatal(err)
			}
			if src.name == "plain" {
				for mi := range r.members {
					for li := range r.members[mi].Levels {
						r.members[mi].Levels[li].Sums = nil
					}
				}
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
	check := startAllocCheck(b, r)
	for i := 0; i < b.N; i++ {
		if _, err := r.Extract(deepest); err != nil {
			b.Fatal(err)
		}
	}
	check.done(b, ds.Levels, 196)
}

// coldArchive writes snaps, intra-coded in 64-block frames, to a file.
func coldArchive(b *testing.B, snaps []*amr.Dataset) string {
	path := filepath.Join(b.TempDir(), "cold.taca")
	if err := os.WriteFile(path, buildArchive(b, snaps, codec.Config{ErrorBound: testEB}, 64), 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkColdOpen is what every cold operation pays before its first
// frame: OpenFile — trailer, footer digest, the index of 16 members with
// an inflated mask per level — and Close.
func BenchmarkColdOpen(b *testing.B) {
	path := coldArchive(b, campaignOf(b, 64, 8, 16))
	b.ReportAllocs()
	for b.Loop() {
		fr, err := OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(fr.Members()) != 16 {
			b.Fatalf("%d members", len(fr.Members()))
		}
		fr.Close()
	}
}

// BenchmarkOpen is Open on an index shaped like the benchmark's intra
// archive: ten members of three levels, the two fields of each of five
// snapshots sharing their masks. The archive is in memory, so what it
// times is the trailer, the footer digest and the footer's decode.
func BenchmarkOpen(b *testing.B) {
	var snaps []*amr.Dataset
	for s := range 5 {
		fine := 0.1 + 0.1*float64(s)
		spec := sim.Spec{
			Name: fmt.Sprintf("snap%d", s), FinestN: 64, Levels: 3, UnitBlock: 4,
			Seed: int64(300 + s), LeafFractions: []float64{fine, 0.3, 0.7 - fine},
		}
		for _, field := range []sim.Field{sim.BaryonDensity, sim.Temperature} {
			ds, err := sim.Generate(spec, field)
			if err != nil {
				b.Fatal(err)
			}
			snaps = append(snaps, ds)
		}
	}
	blob := buildArchive(b, snaps, codec.Config{ErrorBound: testEB}, 64)
	b.ReportAllocs()
	for b.Loop() {
		r, err := Open(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Members()) != len(snaps) {
			b.Fatalf("%d members", len(r.Members()))
		}
	}
}

// BenchmarkExtractLevelCold is one `tacc extract -level 0` on two workers:
// open, the finest level of a 128³ snapshot (an 8 MB grid to clear beside
// some forty frames to decode), close. parked/op is the frames that were
// decoded while the grid was being cleared.
func BenchmarkExtractLevelCold(b *testing.B) {
	snaps := campaignOf(b, 128, 8, 1)
	path := coldArchive(b, snaps)
	b.SetBytes(int64(snaps[0].Levels[0].StoredCells()) * 4)
	b.ReportAllocs()
	parked := int64(0)
	for b.Loop() {
		fr, err := OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		fr.Workers = 2
		if _, err := fr.ExtractLevel(0, 0); err != nil {
			b.Fatal(err)
		}
		parked += fr.parked.Load()
		fr.Close()
	}
	b.ReportMetric(float64(parked)/float64(b.N), "parked/op")
}

// BenchmarkArchiveWriteCampaign writes what the repo's benchmark times on
// its delta archive: a 6-step campaign at Keyframe=4, 64³
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
