package metrics

import (
	"math"
	"testing"

	"repro/internal/grid"
)

func TestCompressionRatioAndBitRate(t *testing.T) {
	if got := CompressionRatio(400, 100); got != 4 {
		t.Fatalf("CR = %v", got)
	}
	if !math.IsInf(CompressionRatio(400, 0), 1) {
		t.Fatal("CR with zero compressed size should be +Inf")
	}
	// 4 bytes/value at no compression = 32 bits/value.
	if got := BitRate(400, 100); got != 32 {
		t.Fatalf("BitRate = %v", got)
	}
	if BitRate(100, 0) != 0 {
		t.Fatal("BitRate with zero values should be 0")
	}
	// product identity: CR × bitrate = 32 for single precision
	cr := CompressionRatio(4*1000, 500)
	br := BitRate(500, 1000)
	if math.Abs(cr*br-32) > 1e-12 {
		t.Fatalf("CR×bitrate = %v, want 32", cr*br)
	}
}

func TestPSNRKnownValue(t *testing.T) {
	// Range 100, uniform error 1 on half the points: MSE = 0.5.
	d := Distortion{N: 10, Range: 100, MSE: 0.5, MaxErr: 1}
	want := 20*math.Log10(100) - 10*math.Log10(0.5)
	if math.Abs(d.PSNR()-want) > 1e-12 {
		t.Fatalf("PSNR = %v, want %v", d.PSNR(), want)
	}
	if !math.IsInf(Distortion{Range: 1}.PSNR(), 1) {
		t.Fatal("zero MSE should give +Inf PSNR")
	}
}

func TestGridDistortion(t *testing.T) {
	a := grid.New[float32](grid.Dims{X: 2, Y: 2, Z: 2})
	copy(a.Data, []float32{0, 1, 2, 3, 4, 5, 6, 7})
	b := a.Clone()
	b.Data[3] += 2
	d, err := GridDistortion(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 8 || d.Range != 7 || d.MaxErr != 2 {
		t.Fatalf("distortion: %+v", d)
	}
	if math.Abs(d.MSE-0.5) > 1e-12 {
		t.Fatalf("MSE = %v, want 0.5", d.MSE)
	}
	if _, err := GridDistortion(a, grid.New[float32](grid.Dims{X: 1, Y: 2, Z: 2})); err == nil {
		t.Fatal("dims mismatch should error")
	}
}

func TestRatePointString(t *testing.T) {
	p := RatePoint{ErrorBound: 1e9, BitRate: 2.5, PSNR: 60.1, Ratio: 12.8}
	if s := p.String(); s == "" {
		t.Fatal("empty String()")
	}
}
