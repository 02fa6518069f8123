package analysis

import (
	"fmt"
	"sort"

	"repro/internal/grid"
)

// Halo is one over-density found by the halo finder: its total mass (sum
// of cell values), cell count, and center of mass.
type Halo struct {
	Mass    float64
	Cells   int
	X, Y, Z float64 // center of mass in cell coordinates
}

// The two criteria of Sec. 4.2 metric 6: a cell is a halo candidate when
// its value exceeds thresholdFactor × mean (the paper's factor), and a
// connected component of candidates is a halo when it has at least minCells
// cells, low enough that halos exist at every catalog scale.
const (
	thresholdFactor = 81.66
	minCells        = 4
)

// FindHalos labels 6-connected components of cells above the threshold and
// returns the halos sorted by descending mass.
func FindHalos[T grid.Float](rho *grid.Grid3[T]) []Halo {
	thr := thresholdFactor * rho.Mean()
	d := rho.Dim

	// Flood fill with an explicit stack (fields can have large halos).
	visited := make([]bool, d.Count())
	var halos []Halo
	var stack []int
	for start := range rho.Data {
		if visited[start] || float64(rho.Data[start]) <= thr {
			continue
		}
		var h Halo
		stack = append(stack[:0], start)
		visited[start] = true
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v := float64(rho.Data[i])
			x, y, z := d.Coords(i)
			h.Mass += v
			h.Cells++
			h.X += v * float64(x)
			h.Y += v * float64(y)
			h.Z += v * float64(z)
			for _, nb := range [6][3]int{{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}} {
				nx, ny, nz := x+nb[0], y+nb[1], z+nb[2]
				if !d.Contains(nx, ny, nz) {
					continue
				}
				j := d.Index(nx, ny, nz)
				if !visited[j] && float64(rho.Data[j]) > thr {
					visited[j] = true
					stack = append(stack, j)
				}
			}
		}
		if h.Cells >= minCells {
			if h.Mass > 0 {
				h.X /= h.Mass
				h.Y /= h.Mass
				h.Z /= h.Mass
			}
			halos = append(halos, h)
		}
	}
	sort.Slice(halos, func(i, j int) bool {
		if halos[i].Mass != halos[j].Mass {
			return halos[i].Mass > halos[j].Mass
		}
		return halos[i].Cells > halos[j].Cells
	})
	return halos
}

// HaloDiff compares the biggest halo of the original and reconstructed
// fields — the quantities the paper's Table 3 reports.
type HaloDiff struct {
	Count, CountRecon int
	RelMassDiff       float64
	CellNumDiff       int
}

// CompareHalos runs the finder on both fields and diffs the biggest halo.
func CompareHalos[T grid.Float](orig, recon *grid.Grid3[T]) (HaloDiff, error) {
	ho := FindHalos(orig)
	hr := FindHalos(recon)
	if len(ho) == 0 {
		return HaloDiff{}, fmt.Errorf("analysis: no halos in original field")
	}
	d := HaloDiff{Count: len(ho), CountRecon: len(hr)}
	if len(hr) == 0 {
		d.RelMassDiff = 1
		d.CellNumDiff = ho[0].Cells
		return d, nil
	}
	big, bigR := ho[0], hr[0]
	d.RelMassDiff = abs(big.Mass-bigR.Mass) / big.Mass
	d.CellNumDiff = absInt(big.Cells - bigR.Cells)
	return d, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
