package sz

import (
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// saltedGrid is smoothGrid with signed zeros and ±1e6 outliers scattered
// through it: the zeros reach the boundary predictors' signed-zero cases,
// the outliers the literal pool.
func saltedGrid(d grid.Dims, seed int64) *grid.Grid3[float32] {
	g := smoothGrid(d)
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Data {
		switch r := rng.Float64(); {
		case r < 0.04:
			g.Data[i] = float32(math.Copysign(0, -1))
		case r < 0.08:
			g.Data[i] = 0
		case r < 0.10:
			g.Data[i] = float32(math.Copysign(1e6, rng.Float64()-0.5))
		}
	}
	return g
}

// relBound is rel of g's value range as an absolute bound, as
// codec.Config resolves a relative one.
func relBound(g *grid.Grid3[float32], rel float64) float64 {
	lo, hi := g.MinMax()
	return rel * (float64(hi) - float64(lo))
}

// TestCompressSlicesGolden pins the bytes of CompressSlices payloads over
// slice counts that reach every batch kernel — groups of sixteen (the
// vector path where there is one), fours, and single slices — on smooth,
// salted and one-slice fields, at fixed bounds and at bounds taken from
// the field's range, at a narrow QuantBits, with and without the lossless
// stage, and at both element widths.
func TestCompressSlicesGolden(t *testing.T) {
	field2D := grid.New[float32](grid.Dims{X: 40, Y: 28, Z: 1})
	copy(field2D.Data, smooth2D(40, 28))
	salted64 := grid.New[float64](grid.Dims{X: 6, Y: 5, Z: 17})
	for i, v := range saltedGrid(salted64.Dim, 5).Data {
		salted64.Data[i] = float64(v)
	}
	salted := saltedGrid(grid.Dims{X: 9, Y: 7, Z: 21}, 1)
	cases := []struct {
		name string
		run  func() ([]byte, Stats, error)
		want string
	}{
		{"smooth-10", func() ([]byte, Stats, error) {
			return CompressSlices(smoothGrid(grid.Dims{X: 16, Y: 12, Z: 10}), Options{ErrorBound: 0.05})
		}, "3718c6009c5fe7a2b391ac00ac7092a97459aa1541f9745a1bde26c4849e35bf"},
		{"smooth-rel-8", func() ([]byte, Stats, error) {
			g := smoothGrid(grid.Dims{X: 8, Y: 8, Z: 8})
			return CompressSlices(g, Options{ErrorBound: relBound(g, 1e-3)})
		}, "b2d49b7f6160283dbc279fa72d8f068eefadbc81895421b0714821bbfaa702ba"},
		{"smooth-32", func() ([]byte, Stats, error) {
			return CompressSlices(smoothGrid(grid.Dims{X: 32, Y: 32, Z: 32}), Options{ErrorBound: 0.01})
		}, "28ad1921929d5361d687b52fa92201ccfd476afa49b46aef53ab9f736dbff7b3"},
		{"field2d-1", func() ([]byte, Stats, error) {
			return CompressSlices(field2D, Options{ErrorBound: 0.01})
		}, "a3ba495676970b16814128a5c84f295b45a060df3c6e6adfd30e224363cab16e"},
		{"salted-21", func() ([]byte, Stats, error) {
			return CompressSlices(salted, Options{ErrorBound: 0.05})
		}, "68a6994b68707cf5d70da7aea616cd117e730c4998faf1e04b976ba7be05ad78"},
		{"salted-21-raw", func() ([]byte, Stats, error) {
			return CompressSlices(salted, Options{ErrorBound: 0.05, DisableLossless: true})
		}, "d8c5edd9f619749048254856fb1a2e980100cee9b5dd81daf58afb0619e7cd87"},
		{"salted-rel-q4-21", func() ([]byte, Stats, error) {
			return CompressSlices(salted, Options{ErrorBound: relBound(salted, 1e-3), QuantBits: 4})
		}, "3cd8862a65f041df2ea7b82e5c306c5c987c96e8cee4bc8385a1be7af19ef62c"},
		{"salted-3", func() ([]byte, Stats, error) {
			return CompressSlices(saltedGrid(grid.Dims{X: 5, Y: 6, Z: 3}, 2), Options{ErrorBound: 0.05, DisableLossless: true})
		}, "7c552c037d4ab34f648b00ce2e6496d1c877c7e2cbd94663dae7742b38048790"},
		{"salted64-17", func() ([]byte, Stats, error) {
			return CompressSlices(salted64, Options{ErrorBound: 0.05, DisableLossless: true})
		}, "53b38a79b1f114f1673240ac3234a7e6c1fb2d11ff52ac85323564b2eec798ae"},
	}
	for _, c := range cases {
		blob, _, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(sha256sum(blob)); got != c.want {
			t.Errorf("%s: payload hash %s, want %s", c.name, got, c.want)
		}
	}
}
