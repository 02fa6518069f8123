// Package metrics computes the generic evaluation metrics of the TAC
// paper's Sec. 4.2: compression ratio, bit-rate, PSNR, and
// rate-distortion sweeps.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/amr"
	"repro/internal/grid"
)

// CompressionRatio is original bytes over compressed bytes.
func CompressionRatio(originalBytes, compressedBytes int) float64 {
	if compressedBytes == 0 {
		return math.Inf(1)
	}
	return float64(originalBytes) / float64(compressedBytes)
}

// BitRate is the amortized storage cost in bits per stored value; for
// single-precision data bitRate × compressionRatio = 32 (Sec. 4.2
// metric 1).
func BitRate(compressedBytes, values int) float64 {
	if values == 0 {
		return 0
	}
	return 8 * float64(compressedBytes) / float64(values)
}

// Distortion summarizes reconstruction error statistics.
type Distortion struct {
	N      int
	Range  float64 // value range of the original data
	MaxErr float64
	MSE    float64
}

// PSNR returns the peak signal-to-noise ratio in dB (Sec. 4.2 metric 2):
// 20·log10(range) − 10·log10(MSE).
func (d Distortion) PSNR() float64 {
	if d.MSE == 0 {
		return math.Inf(1)
	}
	return 20*math.Log10(d.Range) - 10*math.Log10(d.MSE)
}

// accumulate folds one (original, reconstructed) pair into the statistics.
type accumulator struct {
	n        int
	lo, hi   float64
	sumSqErr float64
	maxErr   float64
	started  bool
}

func (a *accumulator) add(orig, recon float64) {
	if !a.started {
		a.lo, a.hi = orig, orig
		a.started = true
	}
	if orig < a.lo {
		a.lo = orig
	}
	if orig > a.hi {
		a.hi = orig
	}
	e := math.Abs(orig - recon)
	if e > a.maxErr {
		a.maxErr = e
	}
	a.sumSqErr += e * e
	a.n++
}

func (a *accumulator) distortion() Distortion {
	d := Distortion{N: a.n, Range: a.hi - a.lo, MaxErr: a.maxErr}
	if a.n > 0 {
		d.MSE = a.sumSqErr / float64(a.n)
	}
	return d
}

// GridDistortion compares two uniform grids.
func GridDistortion[T grid.Float](orig, recon *grid.Grid3[T]) (Distortion, error) {
	if orig.Dim != recon.Dim {
		return Distortion{}, fmt.Errorf("metrics: dims %v vs %v", orig.Dim, recon.Dim)
	}
	var a accumulator
	for i := range orig.Data {
		a.add(float64(orig.Data[i]), float64(recon.Data[i]))
	}
	return a.distortion(), nil
}

// DatasetDistortion compares two AMR datasets over their stored cells
// (level-wise, aggregated), the distortion the rate-distortion figures
// plot. The value range is taken over all stored cells of the original.
func DatasetDistortion(orig, recon *amr.Dataset) (Distortion, error) {
	if len(orig.Levels) != len(recon.Levels) {
		return Distortion{}, fmt.Errorf("metrics: level counts %d vs %d", len(orig.Levels), len(recon.Levels))
	}
	var a accumulator
	for li := range orig.Levels {
		ov := orig.Levels[li].MaskedValues(nil)
		rv := recon.Levels[li].MaskedValues(nil)
		if len(ov) != len(rv) {
			return Distortion{}, fmt.Errorf("metrics: level %d stored cells %d vs %d", li, len(ov), len(rv))
		}
		for i := range ov {
			a.add(float64(ov[i]), float64(rv[i]))
		}
	}
	return a.distortion(), nil
}

// RatePoint is one point of a rate-distortion curve.
type RatePoint struct {
	ErrorBound float64
	BitRate    float64
	PSNR       float64
	Ratio      float64
}

// String formats the point as the experiment tables print it.
func (p RatePoint) String() string {
	return fmt.Sprintf("eb=%.3g bitrate=%.3f psnr=%.2f cr=%.1f", p.ErrorBound, p.BitRate, p.PSNR, p.Ratio)
}
