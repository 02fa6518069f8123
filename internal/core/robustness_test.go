package core

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/amr"
	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sz"
)

// TestHostileSkeletonIsRefused: 29 bytes that claim one stored 8192³ block
// (2 TiB of float32) over a one-byte body used to reach
// Skeleton.NewDataset and kill the process with an out-of-memory fatal
// error no recover can catch. Every codec must now refuse them at once,
// having allocated nothing sized by the dims.
func TestHostileSkeletonIsRefused(t *testing.T) {
	m := grid.NewMask(grid.Dims{X: 1, Y: 1, Z: 1})
	m.Fill(true)
	ids := []byte{ID, baseline.IDNaive1D, baseline.IDZMesh, baseline.IDUniform3D}
	for i, c := range allCodecs() {
		// EncodeContainer refuses the level: it writes the skeleton's head
		// with no level, and the level record is appended after it.
		blob, err := codec.EncodeContainer(ids[i], codec.Skeleton{Name: "h", Field: "f", Ratio: 2}, nil)
		if err == nil {
			blob[len(blob)-1] = 1 // the level count
			blob, err = codec.AppendLevel(blob, grid.Dims{X: 8192, Y: 8192, Z: 8192}, 8192, m)
		}
		if err != nil {
			t.Fatal(err)
		}
		blob = append(blob, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err = c.Decompress(blob)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: decoded a %d-byte container claiming 8192³ cells", c.Name(), len(blob))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 || took > time.Second {
			t.Fatalf("%s: refusing %d bytes took %v and %d bytes of allocation", c.Name(), len(blob), took, grew)
		}
	}
}

// TestSparseHierarchyAtHighRatioDecodes pins the reason the skeleton bound
// counts stored cells and not level cells: a four-level hierarchy refined
// around one patch (the shape of Run2_T4), coded at a bound that leaves a
// constant code stream, is a valid payload whose level grids hold more
// cells than 8·1032 for each of its bytes. It must read back.
func TestSparseHierarchyAtHighRatioDecodes(t *testing.T) {
	ds := &amr.Dataset{Name: "patch", Field: "f", Ratio: 2}
	cells := 0
	for li := 0; li < 4; li++ {
		n, p := 192>>li, 8>>li
		l := amr.NewLevel(grid.Dims{X: n, Y: n, Z: n}, 4)
		if li == 3 {
			l.Mask.Fill(true)
		} else {
			l.Mask.FillRegion(grid.Region{X0: p, Y0: p, Z0: p, X1: p + 2, Y1: p + 2, Z1: p + 2}, true)
		}
		if li > 0 {
			l.Mask.Set(p, p, p, false) // refined: the level above stores it
		}
		for i := range l.Grid.Data {
			l.Grid.Data[i] = 1
		}
		ds.Levels = append(ds.Levels, l)
		cells += l.Grid.Dim.Count()
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: 1})
	if err != nil {
		t.Fatal(err)
	}
	if 8*1032*len(blob) >= cells {
		t.Fatalf("%d bytes for %d level cells no longer shows a payload under one bit a level cell", len(blob), cells)
	}
	got, err := TAC{}.Decompress(blob)
	if err != nil {
		t.Fatalf("a valid %d-byte payload over %d level cells was refused: %v", len(blob), cells, err)
	}
	dist, err := metrics.DatasetDistortion(ds, got)
	if err != nil {
		t.Fatal(err)
	}
	if dist.MaxErr > 1 {
		t.Fatalf("max error %v exceeds bound", dist.MaxErr)
	}
}

// TestCorruptionNeverPanics flips random bytes of a valid TAC payload and
// requires Decompress to either error or return a structurally valid
// dataset — never panic. This guards every parser layer (container,
// sections, SZ payloads, Huffman, flate).
func TestCorruptionNeverPanics(t *testing.T) {
	ds := testDataset(t, 0.3, 20)
	blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), blob...)
		flips := rng.Intn(4) + 1
		for f := 0; f < flips; f++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: Decompress panicked: %v", trial, r)
				}
			}()
			got, err := TAC{}.Decompress(mut)
			if err == nil && got != nil {
				// A lucky mutation may still parse (e.g. flipped value
				// bits); the structure must remain coherent.
				if len(got.Levels) != len(ds.Levels) {
					t.Fatalf("trial %d: silent structural corruption", trial)
				}
			}
		}()
	}
}

// TestTruncationNeverPanics truncates a payload at every length and
// requires a clean error.
func TestTruncationNeverPanics(t *testing.T) {
	ds := testDataset(t, 0.3, 21)
	blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	step := len(blob)/97 + 1 // sample lengths; all of them is slow
	for cut := 0; cut < len(blob); cut += step {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cut %d: panic: %v", cut, r)
				}
			}()
			if _, err := (TAC{}).Decompress(blob[:cut]); err == nil {
				t.Fatalf("cut %d decoded successfully", cut)
			}
		}()
	}
}

// TestQuickPipelineProperty: for random two-level datasets and random
// bounds, the full TAC pipeline round-trips within bound with a sane
// compression ratio.
func TestQuickPipelineProperty(t *testing.T) {
	f := func(seed int64, fineFrac, ebExp uint8) bool {
		frac := 0.05 + float64(fineFrac%80)/100 // 5%..84%
		ds, err := sim.Generate(sim.Spec{
			Name: "q", FinestN: 16, Levels: 2, UnitBlock: 2, Seed: seed,
			LeafFractions: []float64{frac, 1 - frac},
		}, sim.BaryonDensity)
		if err != nil {
			return false
		}
		eb := 1e8 * float64(uint64(1)<<(ebExp%10)) // 1e8 .. ~5e10
		blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: eb})
		if err != nil {
			return false
		}
		got, err := TAC{}.Decompress(blob)
		if err != nil {
			return false
		}
		dist, err := metrics.DatasetDistortion(ds, got)
		if err != nil {
			return false
		}
		return dist.MaxErr <= eb*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicPayload: compressing the same dataset twice yields
// identical bytes (required for the mask-replay decompression scheme and
// for reproducible experiments).
func TestDeterministicPayload(t *testing.T) {
	ds := testDataset(t, 0.4, 22)
	for _, cfg := range []codec.Config{
		{ErrorBound: 1e9},
		{ErrorBound: 1e9, Strategy: codec.GSP},
		{ErrorBound: 1e9, LevelScales: []float64{3, 1}},
	} {
		a, err := TAC{}.Compress(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := TAC{}.Compress(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("cfg %+v: payload lengths differ", cfg)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cfg %+v: payloads differ at byte %d", cfg, i)
			}
		}
	}
}

// coarseAsFine is a 3D-baseline container whose coarse level is as large
// as its finest: the restriction would read the uniform grid at twice the
// finest extent.
func coarseAsFine(t testing.TB) []byte {
	t.Helper()
	cube := grid.Dims{X: 4, Y: 4, Z: 4}
	full := grid.NewMask(grid.Dims{X: 1, Y: 1, Z: 1})
	full.Fill(true)
	sk := codec.Skeleton{Name: "u", Field: "f", Ratio: 2, Levels: []codec.LevelInfo{
		{Dims: cube, UnitBlock: 4, Mask: grid.NewMask(grid.Dims{X: 1, Y: 1, Z: 1})},
		{Dims: cube, UnitBlock: 4, Mask: full},
	}}
	body, _, err := sz.Compress3D(grid.New[amr.Value](cube), sz.Options{ErrorBound: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.EncodeContainer(baseline.IDUniform3D, sk, body)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestUniform3DRefusesNonHierarchy: the 3D baseline's restriction indexes
// the uniform grid by every level's dims times its scale, so level dims
// that are not the finest's divided by Ratio^li must be refused first — on
// its own and through TAC, which routes 3D-baseline payloads there.
func TestUniform3DRefusesNonHierarchy(t *testing.T) {
	blob := coarseAsFine(t)
	for _, c := range []codec.Codec{baseline.Uniform3D{}, TAC{}} {
		if _, err := c.Decompress(blob); err == nil {
			t.Fatalf("%s decoded a 3D-baseline container whose coarse level is as large as its finest", c.Name())
		}
	}
}
