package amr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// writeOracle is Dataset.Write as it stood before the stream encoder: a
// bufio.Writer, binary.Write per header word, MaskedValues into a level-
// sized slice and one PutUint32 per cell. It stays here as the reference
// the format's one writer is held to, byte for byte.
func writeOracle(ds *Dataset, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	writeU32 := func(v uint32) error { return binary.Write(bw, binary.LittleEndian, v) }
	writeStr := func(s string) error {
		if err := writeU32(uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeU32(fileVersion); err != nil {
		return err
	}
	if err := writeStr(ds.Name); err != nil {
		return err
	}
	if err := writeStr(ds.Field); err != nil {
		return err
	}
	if err := writeU32(uint32(ds.Ratio)); err != nil {
		return err
	}
	if err := writeU32(uint32(len(ds.Levels))); err != nil {
		return err
	}
	for _, l := range ds.Levels {
		d := l.Grid.Dim
		for _, v := range []uint32{uint32(d.X), uint32(d.Y), uint32(d.Z), uint32(l.UnitBlock)} {
			if err := writeU32(v); err != nil {
				return err
			}
		}
		packed := l.Mask.AppendPacked(make([]byte, 0, l.Mask.PackedLen()))
		if _, err := bw.Write(packed); err != nil {
			return err
		}
		vals := l.MaskedValues(nil)
		if err := writeU32(uint32(len(vals))); err != nil {
			return err
		}
		buf := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// randomLevel is a level of the given shape with every cell random
// (including cells outside the mask, which the stream must not carry) and
// each block occupied with probability density.
func randomLevel(rng *rand.Rand, d grid.Dims, ub int, density float64) *Level {
	l := NewLevel(d, ub)
	for i := range l.Grid.Data {
		l.Grid.Data[i] = math.Float32frombits(rng.Uint32())
	}
	for i := 0; i < l.Mask.Len(); i++ {
		l.Mask.SetIndex(i, rng.Float64() < density)
	}
	return l
}

func oracleDatasets() map[string]*Dataset {
	rng := rand.New(rand.NewSource(14))
	return map[string]*Dataset{
		"single level": {Name: "one", Field: "rho", Ratio: 2, Levels: []*Level{
			randomLevel(rng, grid.Dims{X: 16, Y: 8, Z: 24}, 4, 0.5)}},
		// Names of lengths that leave every later field unaligned.
		"three levels": {Name: "Run1_Z10", Field: "baryon_density_x", Ratio: 2, Levels: []*Level{
			randomLevel(rng, grid.Dims{X: 32, Y: 32, Z: 32}, 8, 0.3),
			randomLevel(rng, grid.Dims{X: 16, Y: 16, Z: 16}, 4, 0.6),
			randomLevel(rng, grid.Dims{X: 8, Y: 8, Z: 8}, 2, 0.9)}},
		"empty mask": {Name: "", Field: "f", Ratio: 2, Levels: []*Level{
			randomLevel(rng, grid.Dims{X: 8, Y: 8, Z: 8}, 2, 0),
			randomLevel(rng, grid.Dims{X: 4, Y: 4, Z: 4}, 2, 1)}},
		// 1024 blocks of 512 cells: more than one gather chunk.
		"full mask": {Name: "full", Field: "temperature", Ratio: 4, Levels: []*Level{
			randomLevel(rng, grid.Dims{X: 128, Y: 64, Z: 64}, 8, 1)}},
		// One block larger than a whole gather chunk.
		"huge block": {Name: "huge", Field: "f", Ratio: 2, Levels: []*Level{
			randomLevel(rng, grid.Dims{X: 128, Y: 128, Z: 128}, 128, 1)}},
		"no levels": {Name: "void", Field: "f", Ratio: 2},
	}
}

// TestWriteMatchesOracle: the stream encoder's bytes equal the old
// writer's, the Len functions predict them, and reading them back gives
// the dataset that was written.
func TestWriteMatchesOracle(t *testing.T) {
	for name, ds := range oracleDatasets() {
		var want, got bytes.Buffer
		if err := writeOracle(ds, &want); err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if err := ds.Write(&got); err != nil {
			t.Fatalf("%s: Write: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: Write differs from the old writer (%d vs %d bytes)", name, got.Len(), want.Len())
		}
		n := StreamHeaderLen(ds.Name, ds.Field)
		for _, l := range ds.Levels {
			n += LevelPrologueLen(l.Mask) + LevelPayloadLen(l.Mask, l.UnitBlock)
		}
		if n != got.Len() {
			t.Fatalf("%s: Len functions say %d bytes, stream has %d", name, n, got.Len())
		}
		if len(ds.Levels) == 0 {
			continue // ReadFrom refuses a stream without levels
		}
		back, err := ReadFrom(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadFrom(Write): %v", name, err)
		}
		if back.Name != ds.Name || back.Field != ds.Field || back.Ratio != ds.Ratio || len(back.Levels) != len(ds.Levels) {
			t.Fatalf("%s: header read back as %q %q %d, %d levels", name, back.Name, back.Field, back.Ratio, len(back.Levels))
		}
		for li, l := range ds.Levels {
			b := back.Levels[li]
			if b.Grid.Dim != l.Grid.Dim || b.UnitBlock != l.UnitBlock || !b.Mask.Equal(l.Mask) {
				t.Fatalf("%s level %d: geometry read back differs", name, li)
			}
			if !bytes.Equal(loopBytes(b.MaskedValues(nil)), loopBytes(l.MaskedValues(nil))) {
				t.Fatalf("%s level %d: stored cells read back differ", name, li)
			}
		}
		// A second trip is a fixed point: what was read writes the same bytes.
		var again bytes.Buffer
		if err := back.Write(&again); err != nil || !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Fatalf("%s: Write(ReadFrom(Write)) differs (err %v)", name, err)
		}
	}
}

// failAfter fails every write once n bytes have been taken.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		return 0, io.ErrShortWrite
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteReportsSinkErrors: a sink failing in the prologue or in the
// payload fails Write.
func TestWriteReportsSinkErrors(t *testing.T) {
	ds := oracleDatasets()["three levels"]
	var full bytes.Buffer
	if err := ds.Write(&full); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 40, full.Len() / 2, full.Len() - 1} {
		if err := ds.Write(&failAfter{n: n}); err == nil {
			t.Fatalf("sink failing after %d bytes: Write reported success", n)
		}
	}
	if err := ds.Write(&failAfter{n: full.Len()}); err != nil {
		t.Fatalf("sink with exactly enough room: %v", err)
	}
}
