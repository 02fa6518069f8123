package sz

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grid"
)

// The literal pool against the commit before the seal took over building
// it. testdata/parent_literals.txt holds, one line a case, the payload that
// commit wrote for each of the literal-heavy inputs below and the literal
// count its Stats reported: "name literals hex". Every case is coded here
// on the vector kernels and held off them, each twice on one encoder (the
// second time on scratch the first left behind), and must come out byte
// for byte as the parent wrote it, with Stats.Literals the number of
// literal markers (code 0) in the payload's code stream. Never rewrite the
// file with the current encoder: it is the parent's word, not this one's.

// litEB is the absolute bound of every case.
const litEB = 0.05

// litField fills data with a smooth ramp, phase shifting it: a field every
// predictor codes in a few bins.
func litField[T grid.Float](data []T, phase float64) {
	for i := range data {
		data[i] = T(10*math.Sin(float64(i)/9+phase) + phase)
	}
}

// litSpikes sets each cell of data, with probability 1/every, to a value
// no prediction comes near: a literal, and under the Lorenzo predictor
// literals at the cells predicted from it.
func litSpikes[T grid.Float](rng *rand.Rand, data []T, every int) {
	for i := range data {
		if rng.Intn(every) == 0 {
			data[i] = T(rng.NormFloat64() * 1e9)
		}
	}
}

// litJitter adds uniform noise of up to amp bounds to every cell of data.
func litJitter[T grid.Float](rng *rand.Rand, data []T, amp float64) {
	for i := range data {
		data[i] += T((rng.Float64()*2 - 1) * amp * litEB)
	}
}

// litBatch returns n blocks of dims d, block b the field at phase b.
func litBatch[T grid.Float](d grid.Dims, n int) []*grid.Grid3[T] {
	blocks := grid.NewBlocks[T](d, n)
	for b, g := range blocks {
		litField(g.Data, float64(b))
	}
	return blocks
}

// cloneBlocks returns a deep copy of blocks.
func cloneBlocks[T grid.Float](blocks []*grid.Grid3[T]) []*grid.Grid3[T] {
	out := grid.NewBlocks[T](blocks[0].Dim, len(blocks))
	for i, g := range blocks {
		copy(out[i].Data, g.Data)
	}
	return out
}

// litCase is one input and the coding it goes through. code runs it on a
// fresh encoder, the vector kernels held off if scalar is set, and reports
// whether the payload is a delta one. Of a CompressBlocksEither case,
// candidates gives the literal count of each coding on its own, delta
// which one must win, and litsInWinner where the literals must be.
type litCase struct {
	name         string
	code         func(tb testing.TB, scalar bool) ([]byte, bool, Stats)
	delta        bool
	candidates   func(tb testing.TB) (spatial, temporal int)
	litsInWinner bool
}

// twice runs compress, which codes on one encoder, twice and returns the
// second result, whose payload must equal the first's.
func twice(tb testing.TB, compress func() ([]byte, bool, Stats, error)) ([]byte, bool, Stats) {
	tb.Helper()
	first, _, _, err := compress()
	if err != nil {
		tb.Fatal(err)
	}
	blob, delta, st, err := compress()
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(blob, first) {
		tb.Fatal("a warm encoder wrote another payload than a fresh one")
	}
	return blob, delta, st
}

func literalCases() []litCase {
	return append(litCasesOf[float32]("f32"), litCasesOf[float64]("f64")...)
}

func litCasesOf[T grid.Float](typ string) []litCase {
	opts := Options{ErrorBound: litEB}
	rng := rand.New(rand.NewSource(int64(len(typ) + literalSize[T]())))
	var cases []litCase
	add := func(name string, code func(e *Encoder[T]) ([]byte, bool, Stats, error)) {
		cases = append(cases, litCase{name: name + "/" + typ, code: func(tb testing.TB, scalar bool) ([]byte, bool, Stats) {
			e := &Encoder[T]{scalar: scalar}
			return twice(tb, func() ([]byte, bool, Stats, error) { return code(e) })
		}})
	}

	values := make([]T, 3000)
	litField(values, 0)
	litSpikes(rng, values, 8)
	add("1d", func(e *Encoder[T]) ([]byte, bool, Stats, error) {
		blob, st, err := e.Compress1D(values, opts)
		return blob, false, st, err
	})

	g := grid.New[T](grid.Dims{X: 9, Y: 7, Z: 5})
	litField(g.Data, 0.5)
	litSpikes(rng, g.Data, 10)
	add("3d", func(e *Encoder[T]) ([]byte, bool, Stats, error) {
		blob, st, err := e.Compress3D(g, opts)
		return blob, false, st, err
	})

	// 39 blocks: two groups of sixteen on the vector kernel, a quad and
	// three single blocks; 60 cells a block, not a multiple of eight.
	spatial := litBatch[T](grid.Dims{X: 5, Y: 4, Z: 3}, 39)
	for _, b := range spatial {
		litSpikes(rng, b.Data, 10)
	}
	add("batch", func(e *Encoder[T]) ([]byte, bool, Stats, error) {
		blob, st, err := e.CompressBlocks(spatial, opts)
		return blob, false, st, err
	})

	// 105 cells a block: thirteen units of eight and one cell in Go.
	refs := litBatch[T](grid.Dims{X: 3, Y: 5, Z: 7}, 39)
	cur := cloneBlocks(refs)
	for b := range cur {
		litJitter(rng, cur[b].Data, 3)
		litSpikes(rng, cur[b].Data, 10)
	}
	add("temporal", func(e *Encoder[T]) ([]byte, bool, Stats, error) {
		blob, st, err := e.CompressBlocksDelta(cur, refs, opts, nil)
		return blob, true, st, err
	})
	cases[len(cases)-1].delta = true

	// CompressBlocksEither, literals in one candidate only: spikes in the
	// current batch are literals of the spatial coding alone when the
	// reference has them too, spikes in the reference literals of the
	// temporal one alone. Jitter of half a bound makes the temporal coding
	// the smaller one, of two thousand bounds the spatial one.
	either := func(name string, temporalWins, spikeCur bool) {
		cur := litBatch[T](grid.Dims{X: 4, Y: 4, Z: 4}, 39)
		if spikeCur {
			for _, b := range cur {
				litSpikes(rng, b.Data, 200)
			}
		}
		refs := cloneBlocks(cur)
		amp := 2000.0
		if temporalWins {
			amp = 0.5
		}
		for _, b := range refs {
			litJitter(rng, b.Data, amp)
			if !spikeCur {
				litSpikes(rng, b.Data, 200)
			}
		}
		recon := grid.NewBlocks[T](cur[0].Dim, len(cur))
		add(name, func(e *Encoder[T]) ([]byte, bool, Stats, error) {
			return e.CompressBlocksEither(cur, refs, opts, recon)
		})
		c := &cases[len(cases)-1]
		c.delta, c.litsInWinner = temporalWins, temporalWins != spikeCur
		c.candidates = func(tb testing.TB) (int, int) {
			var e Encoder[T]
			_, sst, err := e.CompressBlocks(cur, opts)
			if err != nil {
				tb.Fatal(err)
			}
			_, tst, err := e.CompressBlocksDelta(cur, refs, opts, nil)
			if err != nil {
				tb.Fatal(err)
			}
			return sst.Literals, tst.Literals
		}
	}
	either("either/temporal-wins/literals-in-winner", true, false)
	either("either/temporal-wins/literals-in-loser", true, true)
	either("either/spatial-wins/literals-in-winner", false, true)
	either("either/spatial-wins/literals-in-loser", false, false)
	return cases
}

// parentLiterals reads testdata/parent_literals.txt.
func parentLiterals(tb testing.TB) map[string]struct {
	lits int
	blob []byte
} {
	tb.Helper()
	text, err := os.ReadFile("testdata/parent_literals.txt")
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string]struct {
		lits int
		blob []byte
	}{}
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			tb.Fatalf("fixture line %q: want name, literals, hex", line)
		}
		lits, err := strconv.Atoi(f[1])
		if err != nil {
			tb.Fatal(err)
		}
		blob, err := hex.DecodeString(f[2])
		if err != nil {
			tb.Fatal(err)
		}
		out[f[0]] = struct {
			lits int
			blob []byte
		}{lits, blob}
	}
	return out
}

func TestLiteralPoolsMatchParent(t *testing.T) {
	want := parentLiterals(t)
	cases := literalCases()
	if len(want) != len(cases) {
		t.Fatalf("%d fixtures for %d cases", len(want), len(cases))
	}
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Fatalf("%s: no fixture", c.name)
		}
		for _, scalar := range []bool{false, true} {
			what := fmt.Sprintf("%s, scalar=%v", c.name, scalar)
			blob, delta, st := c.code(t, scalar)
			if !bytes.Equal(blob, w.blob) {
				t.Fatalf("%s: payload of %d bytes differs from the parent's %d", what, len(blob), len(w.blob))
			}
			if delta != c.delta {
				t.Fatalf("%s: delta %v, want %v", what, delta, c.delta)
			}
			codes, err := ExtractCodes(blob)
			if err != nil {
				t.Fatal(err)
			}
			zeros := 0
			for _, code := range codes {
				if code == 0 {
					zeros++
				}
			}
			if st.Literals != zeros || st.Literals != w.lits {
				t.Fatalf("%s: Stats.Literals %d, the code stream holds %d markers, the parent counted %d", what, st.Literals, zeros, w.lits)
			}
			if zeros == 0 && c.candidates == nil {
				t.Fatalf("%s: no literals in a literal case", what)
			}
		}
		if c.candidates == nil {
			continue
		}
		s, tm := c.candidates(t)
		win, lose := s, tm
		if c.delta {
			win, lose = tm, s
		}
		if c.litsInWinner != (win > 0) || c.litsInWinner == (lose > 0) {
			t.Fatalf("%s: %d literals in the winning coding, %d in the losing one", c.name, win, lose)
		}
	}
}
