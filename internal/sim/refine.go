package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/amr"
	"repro/internal/grid"
)

// Spec describes one synthetic AMR dataset to generate.
type Spec struct {
	// Name identifies the dataset (e.g. "Run1_Z10").
	Name string
	// FinestN is the finest-level cube edge in cells (a power of two).
	FinestN int
	// Levels is the number of refinement levels (≥ 1).
	Levels int
	// UnitBlock is the refinement granularity in cells per level.
	UnitBlock int
	// LeafFractions is the target volume fraction of the domain stored at
	// each level, fine to coarse — exactly the "Density of Each Level"
	// column of the paper's Table 1. Must sum to ~1.
	LeafFractions []float64
	// Seed drives all randomness; the same seed with different
	// LeafFractions models successive timesteps of one run (refinement
	// deepens as structure grows, Sec. 4.1).
	Seed int64
}

// ratio is the refinement ratio between adjacent levels, as in every
// dataset of the paper's Table 1.
const ratio = 2

// driverCorr is the correlation between the refinement-driver field and the
// baryon-density field. Real AMR refinement tracks the density imperfectly
// (lagged criteria, block-granular decisions), which keeps part of the value
// range on the coarse levels — the regime GSP targets.
const driverCorr = 0.8

func (s Spec) withDefaults() Spec {
	if s.UnitBlock == 0 {
		s.UnitBlock = 8
	}
	return s
}

func (s Spec) validate() error {
	if s.FinestN <= 0 || s.FinestN&(s.FinestN-1) != 0 {
		return fmt.Errorf("sim: FinestN %d must be a power of two", s.FinestN)
	}
	if s.Levels < 1 {
		return fmt.Errorf("sim: Levels must be ≥ 1, got %d", s.Levels)
	}
	if len(s.LeafFractions) != s.Levels {
		return fmt.Errorf("sim: %d leaf fractions for %d levels", len(s.LeafFractions), s.Levels)
	}
	if s.UnitBlock < 1 {
		return fmt.Errorf("sim: UnitBlock must be positive, got %d", s.UnitBlock)
	}
	coarsestCells := s.FinestN
	for i := 1; i < s.Levels; i++ {
		coarsestCells /= ratio
	}
	if coarsestCells < s.UnitBlock || coarsestCells%s.UnitBlock != 0 {
		return fmt.Errorf("sim: coarsest level (%d cells) is not a whole number of unit blocks of %d", coarsestCells, s.UnitBlock)
	}
	var sum float64
	for _, f := range s.LeafFractions {
		if f < 0 {
			return fmt.Errorf("sim: negative leaf fraction %v", f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 0.05 {
		return fmt.Errorf("sim: leaf fractions sum to %v, want ≈1", sum)
	}
	return nil
}

// Generate builds the AMR dataset for one field of the spec. All fields of
// a spec share the same refinement structure (driven by the baryon-density
// GRF, as Nyx refines on density), so compressing different fields of one
// snapshot exercises the same masks.
func Generate(spec Spec, field Field) (*amr.Dataset, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	// Every GRF comes from the shared cache, and the grids it hands out
	// are other callers' too: Generate only reads driver, indep and raw
	// (synthesize and buildMasks write fresh grids), never writes them.
	//
	// Refinement driver: the baryon-density structure field.
	driver, err := shared.get(spec.FinestN, spec.Seed)
	if err != nil {
		return nil, err
	}
	var raw *grid.Grid3[float64]
	if off := fieldSeedOffset(field); off == 0 {
		// The density field correlates with, but does not equal, the
		// refinement driver: mix in an independent component so some
		// high-value structure remains on coarse levels. The weight is
		// a float64 product at run time, as a constant expression would
		// fold it exactly and land one ulp away.
		rho := driverCorr
		indep, err := shared.get(spec.FinestN, spec.Seed+101)
		if err != nil {
			return nil, err
		}
		raw = grid.New[float64](driver.Dim)
		w := math.Sqrt(1 - rho*rho)
		for i := range raw.Data {
			raw.Data[i] = rho*driver.Data[i] + w*indep.Data[i]
		}
	} else if raw, err = shared.get(spec.FinestN, spec.Seed+off); err != nil {
		return nil, err
	}
	phys := synthesize(field, raw)

	masks := buildMasks(spec, driver)
	ds := &amr.Dataset{Name: spec.Name, Field: string(field), Ratio: ratio}
	fine64 := phys
	for li := 0; li < spec.Levels; li++ {
		if li > 0 {
			fine64 = fine64.Downsample(ratio)
		}
		l := amr.NewLevel(fine64.Dim, spec.UnitBlock)
		l.Mask.CopyFrom(masks[li])
		// Copy values into occupied unit blocks only; unoccupied blocks
		// stay zero, as in the stored AMR representation.
		md := l.Mask.Dim
		for bx := 0; bx < md.X; bx++ {
			for by := 0; by < md.Y; by++ {
				for bz := 0; bz < md.Z; bz++ {
					if !l.Mask.At(bx, by, bz) {
						continue
					}
					r := l.BlockRegion(bx, by, bz)
					for x := r.X0; x < r.X1; x++ {
						for y := r.Y0; y < r.Y1; y++ {
							si := fine64.Dim.Index(x, y, r.Z0)
							di := l.Grid.Dim.Index(x, y, r.Z0)
							for z := 0; z < r.Z1-r.Z0; z++ {
								l.Grid.Data[di+z] = amr.Value(fine64.Data[si+z])
							}
						}
					}
				}
			}
		}
		ds.Levels = append(ds.Levels, l)
	}
	return ds, nil
}

// buildMasks carves the domain into per-level leaf masks. Working from the
// coarsest level down, each level refines the blocks with the highest
// driver-field maxima (the paper's "refine a block when its maximum value
// is larger than a threshold"), choosing the count so that the volume
// passed to finer levels matches the target leaf fractions.
func buildMasks(spec Spec, driver *grid.Grid3[float64]) []*grid.Mask {
	L := spec.Levels
	r := ratio
	ub := spec.UnitBlock

	// blockMax[li] holds, at level li's block granularity, the maximum of
	// the driver field over each block's physical region. Built as a
	// max-pool pyramid from the finest blocks up.
	blockMax := make([]*grid.Grid3[float64], L)
	fineBlocks := driver.Dim.Div(ub)
	bm := grid.New[float64](fineBlocks)
	for bx := 0; bx < fineBlocks.X; bx++ {
		for by := 0; by < fineBlocks.Y; by++ {
			for bz := 0; bz < fineBlocks.Z; bz++ {
				bm.Set(bx, by, bz, regionMax(driver, grid.BlockRegion(bx, by, bz, ub)))
			}
		}
	}
	blockMax[0] = bm
	for li := 1; li < L; li++ {
		prev := blockMax[li-1]
		cd := prev.Dim.Div(r)
		cur := grid.New[float64](cd)
		for bx := 0; bx < cd.X; bx++ {
			for by := 0; by < cd.Y; by++ {
				for bz := 0; bz < cd.Z; bz++ {
					m := math.Inf(-1)
					for dx := 0; dx < r; dx++ {
						for dy := 0; dy < r; dy++ {
							for dz := 0; dz < r; dz++ {
								if v := prev.At(bx*r+dx, by*r+dy, bz*r+dz); v > m {
									m = v
								}
							}
						}
					}
					cur.Set(bx, by, bz, m)
				}
			}
		}
		blockMax[li] = cur
	}

	masks := make([]*grid.Mask, L)
	for li := range masks {
		masks[li] = grid.NewMask(blockMax[li].Dim)
	}

	// existing marks which blocks of the current level are covered by it
	// (i.e. not captured by a coarser leaf). The coarsest level covers
	// everything.
	existing := make([]bool, blockMax[L-1].Dim.Count())
	for i := range existing {
		existing[i] = true
	}
	for li := L - 1; li >= 1; li-- {
		bd := blockMax[li].Dim
		// Volume (domain fraction) of one block at this level.
		bvf := 1 / float64(bd.Count())
		var sumFiner float64
		for j := 0; j < li; j++ {
			sumFiner += spec.LeafFractions[j]
		}
		refineCount := int(math.Round(sumFiner / bvf))
		if sumFiner > 0 && refineCount == 0 {
			refineCount = 1
		}
		// Rank existing blocks by driver maximum, refine the top ones.
		type cand struct {
			idx   int
			score float64
		}
		var cands []cand
		for i, ex := range existing {
			if ex {
				cands = append(cands, cand{i, blockMax[li].Data[i]})
			}
		}
		if refineCount > len(cands) {
			refineCount = len(cands)
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].score != cands[b].score {
				return cands[a].score > cands[b].score
			}
			return cands[a].idx < cands[b].idx
		})
		refined := make(map[int]bool, refineCount)
		for _, c := range cands[:refineCount] {
			refined[c.idx] = true
		}
		for _, c := range cands[refineCount:] {
			masks[li].SetIndex(c.idx, true) // leaf at this level
		}
		// Children of refined blocks exist at the next finer level.
		fd := blockMax[li-1].Dim
		nextExisting := make([]bool, fd.Count())
		for i := range refined {
			bx, by, bz := bd.Coords(i)
			for dx := 0; dx < r; dx++ {
				for dy := 0; dy < r; dy++ {
					for dz := 0; dz < r; dz++ {
						nextExisting[fd.Index(bx*r+dx, by*r+dy, bz*r+dz)] = true
					}
				}
			}
		}
		existing = nextExisting
	}
	// Everything still existing at the finest level is a leaf there.
	for i, ex := range existing {
		if ex {
			masks[0].SetIndex(i, true)
		}
	}
	return masks
}

func regionMax(g *grid.Grid3[float64], r grid.Region) float64 {
	m := math.Inf(-1)
	for x := r.X0; x < r.X1; x++ {
		for y := r.Y0; y < r.Y1; y++ {
			base := g.Dim.Index(x, y, r.Z0)
			for _, v := range g.Data[base : base+(r.Z1-r.Z0)] {
				if v > m {
					m = v
				}
			}
		}
	}
	return m
}
