// Package baseline implements the three comparison codecs of the TAC
// paper's evaluation (Sec. 4.1): the naive 1D baseline (each level
// compressed separately as a 1D stream), zMesh (cross-level locality
// reordering into one 1D stream, per Luo et al. IPDPS'21 as characterized
// in the paper's Fig. 16), and the 3D baseline (up-sample coarse levels,
// merge to uniform resolution, compress once in 3D).
package baseline

import (
	"fmt"

	"repro/internal/amr"
	"repro/internal/bitio"
	"repro/internal/codec"
	"repro/internal/sz"
)

// Codec IDs used in the shared container format.
const (
	IDNaive1D   = 2
	IDZMesh     = 3
	IDUniform3D = 4
)

// Naive1D compresses each AMR level's stored values as an independent 1D
// stream.
type Naive1D struct{}

// Name implements codec.Codec.
func (Naive1D) Name() string { return "1D" }

// Compress implements codec.Codec.
func (Naive1D) Compress(ds *amr.Dataset, cfg codec.Config) ([]byte, error) {
	cfg = cfg.WithDefaults()
	var body []byte
	for li, l := range ds.Levels {
		vals := l.MaskedValues(nil)
		var blob []byte
		if len(vals) > 0 {
			eb := cfg.LevelEB(li, l)
			var err error
			blob, _, err = sz.Compress1D(vals, sz.Options{ErrorBound: eb, QuantBits: cfg.QuantBits})
			if err != nil {
				return nil, fmt.Errorf("baseline: 1D level %d: %w", li, err)
			}
		}
		body = bitio.AppendBytes(body, blob)
	}
	return codec.EncodeContainer(IDNaive1D, codec.SkeletonOf(ds), body)
}

// Decompress implements codec.Codec.
func (Naive1D) Decompress(blob []byte) (*amr.Dataset, error) {
	sk, body, err := codec.DecodeContainer(blob, IDNaive1D)
	if err != nil {
		return nil, err
	}
	ds := sk.NewDataset()
	r := bitio.NewReader(body)
	for li, l := range ds.Levels {
		sec := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("baseline: 1D level %d section: %w", li, err)
		}
		if len(sec) == 0 {
			continue
		}
		vals, err := sz.Decompress1D[amr.Value](sec)
		if err != nil {
			return nil, fmt.Errorf("baseline: 1D level %d: %w", li, err)
		}
		if len(vals) != l.StoredCells() {
			return nil, fmt.Errorf("baseline: 1D level %d: %d values, want %d", li, len(vals), l.StoredCells())
		}
		l.SetMaskedValues(vals)
	}
	return ds, nil
}

// ZMesh reorders all levels' stored values into a single 1D stream by
// walking the coarsest level's layout and descending into refined regions
// in place, so points that are geometric neighbors across levels sit close
// in the stream (the tree-structured-AMR interpretation of zMesh in the
// paper's Fig. 16a), then compresses the stream in 1D.
type ZMesh struct{}

// Name implements codec.Codec.
func (ZMesh) Name() string { return "zMesh" }

// Walk visits every stored cell in zMesh order — the coarsest level's
// layout, descending into refined regions in place — calling fn with the
// owning level and the cell's linear index in that level's grid.
func Walk(sk codec.Skeleton, fn func(level, cellIdx int)) {
	L := len(sk.Levels)
	ratio := sk.Ratio
	var descend func(li, x, y, z int)
	descend = func(li, x, y, z int) {
		info := sk.Levels[li]
		ub := info.UnitBlock
		if info.Mask.At(x/ub, y/ub, z/ub) {
			fn(li, info.Dims.Index(x, y, z))
			return
		}
		if li == 0 {
			// Validated datasets cannot reach here: the finest level owns
			// every cell not owned above it.
			panic(fmt.Sprintf("baseline: cell (%d,%d,%d) unowned at finest level", x, y, z))
		}
		for dx := 0; dx < ratio; dx++ {
			for dy := 0; dy < ratio; dy++ {
				for dz := 0; dz < ratio; dz++ {
					descend(li-1, x*ratio+dx, y*ratio+dy, z*ratio+dz)
				}
			}
		}
	}
	cd := sk.Levels[L-1].Dims
	for x := 0; x < cd.X; x++ {
		for y := 0; y < cd.Y; y++ {
			for z := 0; z < cd.Z; z++ {
				descend(L-1, x, y, z)
			}
		}
	}
}

// Compress implements codec.Codec.
func (ZMesh) Compress(ds *amr.Dataset, cfg codec.Config) ([]byte, error) {
	cfg = cfg.WithDefaults()
	sk := codec.SkeletonOf(ds)
	stream := make([]amr.Value, 0, ds.StoredCells())
	Walk(sk, func(li, idx int) {
		stream = append(stream, ds.Levels[li].Grid.Data[idx])
	})
	blob, _, err := sz.Compress1D(stream, sz.Options{ErrorBound: cfg.ValuesEB(stream), QuantBits: cfg.QuantBits})
	if err != nil {
		return nil, fmt.Errorf("baseline: zMesh: %w", err)
	}
	return codec.EncodeContainer(IDZMesh, sk, blob)
}

// Decompress implements codec.Codec.
func (ZMesh) Decompress(blob []byte) (*amr.Dataset, error) {
	sk, body, err := codec.DecodeContainer(blob, IDZMesh)
	if err != nil {
		return nil, err
	}
	ds := sk.NewDataset()
	// Walk descends until a level owns the cell, which only a hierarchy
	// guarantees.
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: zMesh: %w", err)
	}
	stream, err := sz.Decompress1D[amr.Value](body)
	if err != nil {
		return nil, fmt.Errorf("baseline: zMesh: %w", err)
	}
	pos := 0
	Walk(sk, func(li, idx int) {
		if pos < len(stream) {
			ds.Levels[li].Grid.Data[idx] = stream[pos]
		}
		pos++
	})
	if pos != len(stream) {
		return nil, fmt.Errorf("baseline: zMesh stream holds %d values, Walk visited %d", len(stream), pos)
	}
	return ds, nil
}

// Uniform3D is the 3D baseline: up-sample every coarse level by piecewise-
// constant injection, merge into one uniform grid at the finest
// resolution, and compress that grid in 3D. Its compression ratio is
// charged against the original AMR cell count, so the redundant up-sampled
// cells are exactly the overhead Sec. 2.3.2 describes.
type Uniform3D struct{}

// Name implements codec.Codec.
func (Uniform3D) Name() string { return "3D" }

// Compress implements codec.Codec.
func (Uniform3D) Compress(ds *amr.Dataset, cfg codec.Config) ([]byte, error) {
	cfg = cfg.WithDefaults()
	uni := ds.FlattenToUniform()
	blob, _, err := sz.Compress3D(uni, sz.Options{ErrorBound: cfg.ValuesEB(uni.Data), QuantBits: cfg.QuantBits})
	if err != nil {
		return nil, fmt.Errorf("baseline: 3D: %w", err)
	}
	return codec.EncodeContainer(IDUniform3D, codec.SkeletonOf(ds), blob)
}

// Decompress implements codec.Codec.
func (Uniform3D) Decompress(blob []byte) (*amr.Dataset, error) {
	sk, body, err := codec.DecodeContainer(blob, IDUniform3D)
	if err != nil {
		return nil, err
	}
	ds := sk.NewDataset()
	// The restriction below reads the uniform grid at every level's cells
	// times its scale: the dims rule keeps that inside the finest grid.
	if err := ds.ValidateDims(); err != nil {
		return nil, fmt.Errorf("baseline: 3D: %w", err)
	}
	uni, err := sz.Decompress3D[amr.Value](body)
	if err != nil {
		return nil, fmt.Errorf("baseline: 3D: %w", err)
	}
	want := ds.FinestDims()
	if uni.Dim != want {
		return nil, fmt.Errorf("baseline: 3D grid %v, want %v", uni.Dim, want)
	}
	// Restrict the uniform grid back onto each level: a stored coarse cell
	// is the mean of its injection region (each decompressed cell is
	// within the bound, so the mean is too).
	for li, l := range ds.Levels {
		s := ds.LevelScale(li)
		md := l.Mask.Dim
		inv := 1.0 / float64(s*s*s)
		for bx := 0; bx < md.X; bx++ {
			for by := 0; by < md.Y; by++ {
				for bz := 0; bz < md.Z; bz++ {
					if !l.Mask.At(bx, by, bz) {
						continue
					}
					r := l.BlockRegion(bx, by, bz)
					for x := r.X0; x < r.X1; x++ {
						for y := r.Y0; y < r.Y1; y++ {
							for z := r.Z0; z < r.Z1; z++ {
								var sum float64
								for dx := 0; dx < s; dx++ {
									for dy := 0; dy < s; dy++ {
										base := uni.Dim.Index(x*s+dx, y*s+dy, z*s)
										for _, v := range uni.Data[base : base+s] {
											sum += float64(v)
										}
									}
								}
								l.Grid.Set(x, y, z, amr.Value(sum*inv))
							}
						}
					}
				}
			}
		}
	}
	return ds, nil
}

var _ codec.Codec = Naive1D{}
var _ codec.Codec = ZMesh{}
var _ codec.Codec = Uniform3D{}
