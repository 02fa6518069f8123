package codec

import (
	"math"
	"testing"

	"repro/internal/amr"
	"repro/internal/grid"
)

// fuzzContainer builds a small valid container so the fuzzer starts from a
// structurally plausible input; the same seed is checked in under
// testdata/fuzz for deterministic CI runs.
func fuzzContainer(tb testing.TB) []byte {
	tb.Helper()
	ds := &amr.Dataset{Name: "fuzz", Field: "f", Ratio: 2}
	fine := amr.NewLevel(grid.Dims{X: 8, Y: 8, Z: 8}, 4)
	fine.Mask.Set(0, 0, 0, true)
	fine.Mask.Set(1, 1, 1, true)
	coarse := amr.NewLevel(grid.Dims{X: 4, Y: 4, Z: 4}, 4)
	coarse.Mask.Fill(true)
	coarse.Mask.Set(0, 0, 0, false)
	ds.Levels = []*amr.Level{fine, coarse}
	blob, err := EncodeContainer(7, SkeletonOf(ds), []byte("body"))
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// FuzzDecodeContainer fuzzes the shared container parser: corrupt payloads
// must error out instead of panicking or allocating implausible skeletons.
func FuzzDecodeContainer(f *testing.F) {
	seed := fuzzContainer(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	mut := append([]byte(nil), seed...)
	mut[len(mut)/4] ^= 0x80
	f.Add(mut)
	f.Add(hostileContainer(f, 7))
	f.Add(maskBombContainer(7))
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, body, err := DecodeContainer(data, 7)
		if err != nil {
			return
		}
		for li, l := range sk.Levels {
			ub := uint64(l.UnitBlock)
			if stored := uint64(l.Mask.Count()) * ub * ub * ub; stored > 8*1032*uint64(len(body)) {
				t.Fatalf("DecodeContainer accepted level %d storing %d cells over a %d-byte body", li, stored, len(body))
			}
			if l.UnitBlock <= 0 || l.Dims.Count() <= 0 || l.Dims.Count() > min(1<<40, math.MaxInt) ||
				l.Dims.X > 1<<20 || l.Dims.Y > 1<<20 || l.Dims.Z > 1<<20 ||
				l.Dims.X%l.UnitBlock != 0 || l.Dims.Y%l.UnitBlock != 0 || l.Dims.Z%l.UnitBlock != 0 {
				t.Fatalf("DecodeContainer accepted implausible level %d geometry %+v", li, l)
			}
			if l.Mask.Dim != l.Dims.Div(l.UnitBlock) {
				t.Fatalf("level %d mask dims %v for level dims %v / %d", li, l.Mask.Dim, l.Dims, l.UnitBlock)
			}
			if err := amr.CheckLevel(l.Dims, l.UnitBlock); err != nil {
				t.Fatalf("DecodeContainer accepted level %d: %v", li, err)
			}
		}
	})
}
