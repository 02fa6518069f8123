package render

import (
	"bytes"
	"image"
	"image/png"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/grid"
)

func gradGrid(n int) *grid.Grid3[float32] {
	g := grid.NewCube[float32](n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				g.Set(x, y, z, float32(x+y+z))
			}
		}
	}
	return g
}

func TestSlice(t *testing.T) {
	g := gradGrid(8)
	s, nx, ny, err := Slice(g, 3)
	if err != nil || nx != 8 || ny != 8 {
		t.Fatalf("Slice: %v (%d×%d)", err, nx, ny)
	}
	if s[2*8+5] != float64(2+5+3) {
		t.Fatalf("slice value %v", s[2*8+5])
	}
	if _, _, _, err := Slice(g, 8); err == nil {
		t.Fatal("out-of-range slice should error")
	}
	if _, _, _, err := Slice(g, -1); err == nil {
		t.Fatal("negative slice should error")
	}
}

func TestErrorSlice(t *testing.T) {
	a := gradGrid(4)
	b := a.Clone()
	b.Set(1, 2, 0, b.At(1, 2, 0)+3)
	e, _, ny, err := ErrorSlice(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e[1*ny+2] != 3 {
		t.Fatalf("error cell = %v, want 3", e[1*ny+2])
	}
	if e[0] != 0 {
		t.Fatalf("unchanged cell error = %v", e[0])
	}
	if _, _, _, err := ErrorSlice(a, gradGrid(8), 0); err == nil {
		t.Fatal("dims mismatch should error")
	}
}

func TestGrayPNGValidImage(t *testing.T) {
	field := []float64{0, 1, 2, 3, 4, 5}
	var buf bytes.Buffer
	if err := GrayPNG(&buf, field, 2, 3); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("output is not a valid PNG: %v", err)
	}
	b := img.Bounds()
	if b.Dx() != 3 || b.Dy() != 2 {
		t.Fatalf("image is %dx%d, want 3x2", b.Dx(), b.Dy())
	}
}

func TestGrayPNGLogMapping(t *testing.T) {
	// log(1+v/max·1000)/log(1001): the maximum is white, zero and negative
	// values black, and a value a thousandth of the maximum already a tenth
	// of the way up (linear would leave it black).
	field := make([]float64, 16)
	field[0] = 1000
	field[1] = 1
	field[2] = -5
	var buf bytes.Buffer
	if err := GrayPNG(&buf, field, 4, 4); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		x    int
		want uint8
	}{{0, 255}, {1, uint8(math.Log1p(1) / math.Log1p(1000) * 255)}, {2, 0}, {3, 0}} {
		if got := img.(*image.Gray).GrayAt(c.x, 0).Y; got != c.want {
			t.Errorf("value %v maps to gray %d, want %d", field[c.x], got, c.want)
		}
	}
}

func TestGrayPNGRejectsBadGeometry(t *testing.T) {
	if err := GrayPNG(&bytes.Buffer{}, make([]float64, 5), 2, 3); err == nil {
		t.Fatal("bad geometry should error")
	}
}

func TestWriteErrorMapAndFieldMap(t *testing.T) {
	dir := t.TempDir()
	a := gradGrid(8)
	b := a.Clone()
	b.Data[10] += 5
	emap := filepath.Join(dir, "err.png")
	if err := WriteErrorMap(emap, a, b, 0); err != nil {
		t.Fatal(err)
	}
	fmap := filepath.Join(dir, "field.png")
	if err := WriteFieldMap(fmap, a, 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{emap, fmap} {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := png.Decode(f); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		f.Close()
	}
}
