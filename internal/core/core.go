// Package core implements TAC, the paper's primary contribution: level-wise
// 3D error-bounded lossy compression of tree-structured AMR data with a
// density-driven hybrid of three pre-process strategies (Sec. 3):
//
//   - density < T1 (50%): OpST — optimized sparse-tensor extraction of
//     maximal non-empty cubes (Algorithm 1);
//   - T1 ≤ density < T2 (60%): AKDTree — adaptive k-d tree extraction
//     (Algorithm 2);
//   - density ≥ T2: GSP — ghost-shell padding of the few empty blocks
//     (Algorithm 3), compressing the whole level grid.
//
// Extracted sub-blocks of equal shape are merged into one multi-block SZ
// stream (the paper's "4D arrays"). Per-level error bounds support the
// adaptive tuning of Sec. 4.5, and the optional Sec. 4.4 outer switch hands
// the entire dataset to the 3D baseline when the finest level is dense.
//
// Every extraction is a pure function of the occupancy mask, which the
// container stores; decompression replays it, so no coordinates are
// serialized.
//
// Both directions plan every level into units — one per independently
// decodable sz payload — and hand them, heaviest first, to one fan-out
// whose workers each draw Encoder/Decoder scratch from process-wide pools.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/amr"
	"repro/internal/baseline"
	"repro/internal/bitio"
	"repro/internal/codec"
	"repro/internal/fanout"
	"repro/internal/kdtree"
	"repro/internal/preprocess"
	"repro/internal/sz"
)

// ID is TAC's codec identifier in the shared container format.
const ID = 1

// encoders and decoders hold warm sz scratch — including the Huffman
// encode arenas and the decode-side lookup tables — one per unit in
// flight, so no caller pays per-call allocation once the process is warm.
var (
	encoders sz.EncoderPool[amr.Value]
	decoders sz.DecoderPool[amr.Value]
)

// TAC is the hybrid level-wise 3D AMR codec. The zero value is ready to
// use; compression configuration travels in codec.Config.
type TAC struct {
	// Workers bounds how many payload units (see plan) decode at once: -1
	// uses all CPUs, 0 or 1 decodes serially, n>1 uses n goroutines
	// (codec.ResolveWorkers). The compress side reads codec.Config.Workers
	// instead, which arrives with the dataset.
	Workers int
}

// Name implements codec.Codec.
func (TAC) Name() string { return "TAC" }

// PickStrategy applies the density filter of Sec. 3.4.
func PickStrategy(density float64, cfg codec.Config) codec.Strategy {
	cfg = cfg.WithDefaults()
	if cfg.Strategy != codec.Auto {
		return cfg.Strategy
	}
	switch {
	case density < cfg.T1:
		return codec.OpST
	case density < cfg.T2:
		return codec.AKD
	default:
		return codec.GSP
	}
}

// unit is one independently decodable sz payload of a level, the grain
// both directions run in parallel: the whole level grid under ZF and GSP,
// one shape group of extracted sub-blocks under the sparse strategies.
type unit struct {
	li    int
	l     *amr.Level
	st    codec.Strategy
	group *preprocess.Group // nil: the whole level grid
	cells int               // the unit's weight
	blob  []byte            // its payload: compress writes it, decompress reads it
}

// tag names the unit in an error.
func (u *unit) tag(err error) error {
	if u.group == nil {
		return fmt.Errorf("core: level %d (%s): %w", u.li, u.st, err)
	}
	return fmt.Errorf("core: level %d (%s): group %v: %w", u.li, u.st, u.group.Shape, err)
}

// levelPlan is one level's strategy and its units in stream order.
type levelPlan struct {
	st    codec.Strategy
	units []unit
}

func dense(st codec.Strategy) bool { return st == codec.ZF || st == codec.GSP }

// plan lists the units of level li under strategy st. Both directions
// derive it from the occupancy mask alone, which is why no coordinates are
// serialized.
func plan(li int, l *amr.Level, st codec.Strategy) (levelPlan, error) {
	var boxes []kdtree.Box
	switch st {
	case codec.ZF, codec.GSP:
		return levelPlan{st, []unit{{li: li, l: l, st: st, cells: l.Grid.Dim.Count()}}}, nil
	case codec.NaST:
		boxes = preprocess.NaST(l.Mask)
	case codec.OpST:
		boxes = preprocess.OpST(l.Mask)
	case codec.AKD:
		boxes, _ = kdtree.Adaptive(l.Mask)
	case codec.ClassicKD:
		boxes, _ = kdtree.Classic(l.Mask)
	default:
		return levelPlan{}, fmt.Errorf("core: level %d: unknown strategy %s", li, st)
	}
	groups := preprocess.GroupBoxes(boxes)
	units := make([]unit, len(groups))
	block := l.UnitBlock * l.UnitBlock * l.UnitBlock
	for gi := range groups {
		g := &groups[gi]
		units[gi] = unit{li: li, l: l, st: st, group: g, cells: len(g.Boxes) * g.Shape.Count() * block}
	}
	return levelPlan{st, units}, nil
}

// section serializes the level: strategy byte, the group count of a sparse
// level, then each unit's payload.
func (p levelPlan) section() []byte {
	sec := []byte{byte(p.st)}
	if !dense(p.st) {
		sec = bitio.AppendUvarint(sec, uint64(len(p.units)))
	}
	for i := range p.units {
		sec = bitio.AppendBytes(sec, p.units[i].blob)
	}
	return sec
}

// split inverts section: it plans level li from the strategy byte and the
// mask, and hands every unit its payload.
func split(li int, l *amr.Level, sec []byte) (levelPlan, error) {
	if len(sec) == 0 {
		return levelPlan{}, fmt.Errorf("core: level %d: empty level section", li)
	}
	p, err := plan(li, l, codec.Strategy(sec[0]))
	if err != nil {
		return p, err
	}
	r := bitio.NewReader(sec[1:])
	if !dense(p.st) {
		if ngroups := r.Uvarint(math.MaxUint64); r.Err() == nil && ngroups != uint64(len(p.units)) {
			return p, fmt.Errorf("core: level %d (%s): payload has %d groups, mask implies %d", li, p.st, ngroups, len(p.units))
		}
	}
	for i := range p.units {
		p.units[i].blob = r.Bytes()
	}
	if err := r.Err(); err != nil {
		return p, fmt.Errorf("core: level %d (%s): %w", li, p.st, err)
	}
	return p, nil
}

// run calls fn on every unit of every level over at most workers
// goroutines, heaviest unit first (ties in stream order): a level that is
// one payload starts at once and the small groups fill in behind it. The
// order does not depend on workers, so neither does the error reported.
func run(plans []levelPlan, workers int, fn func(u *unit) error) error {
	var order []*unit
	for _, p := range plans {
		for i := range p.units {
			order = append(order, &p.units[i])
		}
	}
	slices.SortStableFunc(order, func(a, b *unit) int { return cmp.Compare(b.cells, a.cells) })
	return fanout.Run(len(order), workers, func(i int) error {
		if err := fn(order[i]); err != nil {
			return order[i].tag(err)
		}
		return nil
	})
}

// Compress implements codec.Codec.
func (TAC) Compress(ds *amr.Dataset, cfg codec.Config) ([]byte, error) {
	cfg = cfg.WithDefaults()
	if cfg.AdaptiveBaseline && ds.Levels[0].Density() >= cfg.T2 {
		// Sec. 4.4: a dense finest level means the dataset is close to
		// uniform resolution; the 3D baseline then wins on smoothness and
		// redundancy is negligible.
		return baseline.Uniform3D{}.Compress(ds, cfg)
	}
	plans := make([]levelPlan, len(ds.Levels))
	ebs := make([]float64, len(ds.Levels))
	for li, l := range ds.Levels {
		var err error
		if plans[li], err = plan(li, l, PickStrategy(l.Density(), cfg)); err != nil {
			return nil, err
		}
		ebs[li] = cfg.LevelEB(li, l)
	}
	if err := compress(plans, ebs, cfg); err != nil {
		return nil, err
	}
	var body []byte
	for _, p := range plans {
		body = bitio.AppendBytes(body, p.section())
	}
	return codec.EncodeContainer(ID, codec.SkeletonOf(ds), body)
}

// compress codes every unit of plans, level li under the absolute bound
// ebs[li]. Each worker codes on pooled scratch with the serial sz entry
// points, and sections are assembled afterwards in stream order, so the
// bytes do not depend on cfg.Workers.
func compress(plans []levelPlan, ebs []float64, cfg codec.Config) error {
	return run(plans, codec.ResolveWorkers(cfg.Workers), func(u *unit) error {
		enc := encoders.Get()
		defer encoders.Put(enc)
		opts := sz.Options{ErrorBound: ebs[u.li], QuantBits: cfg.QuantBits}
		var err error
		if u.group != nil {
			u.blob, _, err = enc.CompressBlocks(preprocess.Gather(u.l.Grid, u.group.Boxes, u.l.UnitBlock), opts)
			return err
		}
		g := u.l.Grid.Clone()
		preprocess.ZeroUnmasked(g, u.l.Mask, u.l.UnitBlock)
		if u.st == codec.GSP {
			preprocess.GSP(g, u.l.Mask, u.l.UnitBlock, cfg.GSP)
		}
		u.blob, _, err = enc.Compress3D(g, opts)
		return err
	})
}

// Decompress implements codec.Codec. It transparently handles payloads the
// AdaptiveBaseline switch routed to the 3D baseline.
func (t TAC) Decompress(blob []byte) (*amr.Dataset, error) {
	if _, _, err := codec.DecodeContainer(blob, baseline.IDUniform3D); err == nil {
		return baseline.Uniform3D{}.Decompress(blob)
	}
	sk, body, err := codec.DecodeContainer(blob, ID)
	if err != nil {
		return nil, err
	}
	ds := sk.NewDataset()
	plans := make([]levelPlan, len(ds.Levels))
	r := bitio.NewReader(body)
	for li, l := range ds.Levels {
		sec := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("core: level %d section: %w", li, err)
		}
		if plans[li], err = split(li, l, sec); err != nil {
			return nil, err
		}
	}
	if err := decompress(plans, codec.ResolveWorkers(t.Workers)); err != nil {
		return nil, err
	}
	return ds, nil
}

// decompress decodes every unit of plans into its level. Units of one
// level write disjoint cells of its grid, so they need no ordering.
func decompress(plans []levelPlan, workers int) error {
	return run(plans, workers, func(u *unit) error {
		dec := decoders.Get()
		defer decoders.Put(dec)
		if u.group != nil {
			grids, err := dec.DecompressBlocks(u.blob)
			if err != nil {
				return err
			}
			return preprocess.Scatter(u.l.Grid, u.group.Boxes, u.l.UnitBlock, grids)
		}
		// Decode straight into the level grid: every cell is overwritten,
		// and the dims check is the geometry validation.
		if err := dec.Decompress3DInto(u.l.Grid, u.blob); err != nil {
			return err
		}
		if u.st == codec.GSP {
			// The padding positions are implied by the mask, so padded
			// cells are restored to exact zeros — the "saved padding
			// information" of Algorithm 3 with no explicit metadata.
			preprocess.ZeroUnmasked(u.l.Grid, u.l.Mask, u.l.UnitBlock)
		}
		// ZF is the naive strawman of Sec. 3.1: it ships no knowledge of
		// the empty regions, so their reconstructed near-zero noise stays.
		return nil
	})
}

// Engine is TAC, under the name bench/ holds it by, its only holder: a
// private sz Encoder/Decoder pair measured no faster than the pools
// (EXPERIMENTS.md), so there is nothing for it to add.
type Engine = TAC

// NewEngine returns an Engine; workers bounds the decompress-side fan-out
// exactly like TAC.Workers.
func NewEngine(workers int) *Engine { return &Engine{Workers: workers} }

// CompressLevel compresses one AMR level with an explicit strategy and
// absolute error bound. It is the unit the Fig. 7/11/12 experiments
// measure; TAC.Compress does the same for every level at once.
func CompressLevel(l *amr.Level, st codec.Strategy, eb float64, cfg codec.Config) ([]byte, error) {
	p, err := plan(0, l, st)
	if err != nil {
		return nil, err
	}
	if err := compress([]levelPlan{p}, []float64{eb}, cfg); err != nil {
		return nil, err
	}
	return p.section(), nil
}

// DecompressLevel inverts CompressLevel, filling l.Grid (unmasked blocks
// are zero).
func DecompressLevel(l *amr.Level, sec []byte) error {
	p, err := split(0, l, sec)
	if err != nil {
		return err
	}
	return decompress([]levelPlan{p}, 1)
}

var _ codec.Codec = TAC{}
