// Package render produces the visual error-map comparisons of the paper's
// Figs. 7 and 12: grayscale PNG slices where brighter means larger
// reconstruction error, plus log-scaled field slices for inspecting the
// synthetic datasets.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"

	"repro/internal/grid"
)

// Slice extracts the z=k plane of a grid as a row-major []float64
// (x varies along image rows, y along columns).
func Slice[T grid.Float](g *grid.Grid3[T], k int) ([]float64, int, int, error) {
	d := g.Dim
	if k < 0 || k >= d.Z {
		return nil, 0, 0, fmt.Errorf("render: slice %d out of range [0,%d)", k, d.Z)
	}
	out := make([]float64, d.X*d.Y)
	for x := 0; x < d.X; x++ {
		for y := 0; y < d.Y; y++ {
			out[x*d.Y+y] = float64(g.At(x, y, k))
		}
	}
	return out, d.X, d.Y, nil
}

// ErrorSlice returns the absolute per-cell error of the z=k plane.
func ErrorSlice[T grid.Float](orig, recon *grid.Grid3[T], k int) ([]float64, int, int, error) {
	if orig.Dim != recon.Dim {
		return nil, 0, 0, fmt.Errorf("render: dims %v vs %v", orig.Dim, recon.Dim)
	}
	a, nx, ny, err := Slice(orig, k)
	if err != nil {
		return nil, 0, 0, err
	}
	b, _, _, err := Slice(recon, k)
	if err != nil {
		return nil, 0, 0, err
	}
	for i := range a {
		a[i] = math.Abs(a[i] - b[i])
	}
	return a, nx, ny, nil
}

// GrayPNG renders a row-major nx×ny field to a grayscale PNG, mapping
// log(1+v/max·K) for contrast on heavy-tailed data, where max is the field
// maximum. Brighter is larger, matching the paper's "brighter means higher
// compression error" convention.
func GrayPNG(w io.Writer, field []float64, nx, ny int) error {
	if nx*ny != len(field) {
		return fmt.Errorf("render: %d×%d does not cover %d values", nx, ny, len(field))
	}
	maxVal := 0.0
	for _, v := range field {
		if v > maxVal {
			maxVal = v
		}
	}
	if maxVal <= 0 {
		maxVal = 1
	}
	img := image.NewGray(image.Rect(0, 0, ny, nx))
	const logK = 1000
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			v := field[x*ny+y]
			if v < 0 {
				v = 0
			}
			t := math.Log1p(v/maxVal*logK) / math.Log1p(logK)
			if t > 1 {
				t = 1
			}
			img.SetGray(y, x, color.Gray{Y: uint8(t * 255)})
		}
	}
	return png.Encode(w, img)
}

// WriteErrorMap renders the z=k error slice of (orig, recon) to a PNG
// file, log-scaled for contrast — one frame of a Fig. 7/12-style
// comparison.
func WriteErrorMap[T grid.Float](path string, orig, recon *grid.Grid3[T], k int) error {
	e, nx, ny, err := ErrorSlice(orig, recon, k)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := GrayPNG(f, e, nx, ny); err != nil {
		return fmt.Errorf("render: %s: %w", path, err)
	}
	return f.Close()
}

// WriteFieldMap renders the z=k plane of a field to a log-scaled PNG file
// (useful for eyeballing the synthetic datasets).
func WriteFieldMap[T grid.Float](path string, g *grid.Grid3[T], k int) error {
	s, nx, ny, err := Slice(g, k)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := GrayPNG(f, s, nx, ny); err != nil {
		return fmt.Errorf("render: %s: %w", path, err)
	}
	return f.Close()
}
