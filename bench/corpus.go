package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sz"
)

const (
	keyframe      = 4  // delta-chain bound of the campaign archive
	batchBlocks   = 64 // unit blocks per frame
	campaignSteps = 6
)

// corpusSpecs are the catalog snapshots the corpus draws: finest-level
// densities 23/58/64/63 % put levels on each side of the OpST / AKDTree /
// GSP thresholds, and Run2_T3 adds a deep, sparse three-level hierarchy.
// Run2_T4 is left out: it alone costs 11 s of sim.Generate.
var corpusSpecs = []string{"Run1_Z10", "Run1_Z5", "Run1_Z3", "Run1_Z2", "Run2_T3"}

// campaignBase is the snapshot the drifting campaign evolves from.
const campaignBase = "Run1_Z5"

// snapshot is one dataset plus the configuration it is compressed with.
type snapshot struct {
	ds  *amr.Dataset
	cfg codec.Config
}

func (s snapshot) rawBytes() int64 { return int64(s.ds.OriginalBytes()) }

// corpus is everything set-up synthesizes from the seed before any
// product code runs.
type corpus struct {
	snaps    []snapshot // catalog snapshots × {baryon_density, temperature}
	campaign []snapshot // campaignSteps drifting steps of one snapshot
	genS     float64    // seconds spent generating it, scaled to the reference machine
}

// fieldConfig is the compression configuration of a field: an absolute
// bound for baryon density, a range-relative one for temperature, whose
// values are too small for any shared absolute bound to mean anything.
func fieldConfig(f sim.Field) codec.Config {
	if f == sim.Temperature {
		return codec.Config{ErrorBound: 1e-3, Mode: sz.Rel, Workers: -1}
	}
	return codec.Config{ErrorBound: 1e9, Workers: -1}
}

// generateCorpus builds the corpus at the given catalog scale. The catalog
// snapshots are the same for every seed: re-seeding sim moves
// stored_ratio by 7 % and PSNR by 5 % between seeds (quartile spread over
// ten seeds), which would drown the half-percent effects those two
// metrics exist to show. seed drives the campaign's drift here, and the
// order, placement and mix of every request in the workloads — a second
// seed is a different campaign and a different request sequence over the
// same catalog.
func generateCorpus(scale int, seed int64) (*corpus, error) {
	fields := []sim.Field{sim.BaryonDensity, sim.Temperature}
	c := &corpus{snaps: make([]snapshot, len(corpusSpecs)*len(fields))}
	errs := make([]error, len(c.snaps))
	// One calibrated step per catalog snapshot, its fields side by side: a
	// second of sim code between two probes.
	var steps calibratedSteps
	for si, name := range corpusSpecs {
		spec, err := sim.SpecByName(name, scale)
		if err != nil {
			return nil, err
		}
		c.genS += steps.step(func() {
			var wg sync.WaitGroup
			for fi, f := range fields {
				wg.Add(1)
				go func(i int, f sim.Field) {
					defer wg.Done()
					ds, err := sim.Generate(spec, f)
					c.snaps[i], errs[i] = snapshot{ds, fieldConfig(f)}, err
				}(si*len(fields)+fi, f)
			}
			wg.Wait()
		})
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generating corpus: %w", err)
		}
	}
	for _, s := range c.snaps {
		if s.ds.Name == campaignBase && s.ds.Field == string(sim.BaryonDensity) {
			c.genS += steps.step(func() { c.campaign = driftCampaign(s, seed) })
		}
	}
	return c, nil
}

// driftCampaign derives the drifting campaign from base: identical AMR
// structure throughout, values moved per unit block by a few error bounds
// per step plus sub-bound jitter — the slowly evolving regime temporal
// coding exists for.
func driftCampaign(base snapshot, seed int64) []snapshot {
	eb := base.cfg.ErrorBound
	rng := rand.New(rand.NewSource(seed*104729 + 1202))
	steps := make([]snapshot, campaignSteps)
	first := base.ds.Clone()
	first.Name = base.ds.Name + "_t0"
	steps[0] = snapshot{first, base.cfg}
	for s := 1; s < campaignSteps; s++ {
		ds := steps[s-1].ds.Clone()
		ds.Name = fmt.Sprintf("%s_t%d", base.ds.Name, s)
		for _, l := range ds.Levels {
			for _, ord := range l.Mask.OccupiedIndices() {
				bx, by, bz := l.Mask.Dim.Coords(ord)
				r := l.BlockRegion(bx, by, bz)
				drift := amr.Value((rng.Float64()*2 - 1) * 3 * eb)
				for x := r.X0; x < r.X1; x++ {
					for y := r.Y0; y < r.Y1; y++ {
						row := l.Grid.Data[l.Grid.Dim.Index(x, y, r.Z0) : l.Grid.Dim.Index(x, y, r.Z1-1)+1]
						for i := range row {
							row[i] += drift + amr.Value((rng.Float64()*2-1)*eb/4)
						}
					}
				}
			}
		}
		steps[s] = snapshot{ds, base.cfg}
	}
	return steps
}

func rawBytesOf(snaps []snapshot) int64 {
	var n int64
	for _, s := range snaps {
		n += s.rawBytes()
	}
	return n
}

// archiveKind selects the writer settings of the two archives every
// workload is built on.
type archiveKind int

const (
	intraArchive archiveKind = iota // catalog snapshots, no temporal coding
	deltaArchive                    // the campaign, Keyframe=4
)

func (k archiveKind) String() string {
	if k == deltaArchive {
		return "delta"
	}
	return "intra"
}

// newArchiveWriter starts a checksummed TACA archive on w with the
// settings of kind.
func newArchiveWriter(w io.Writer, kind archiveKind) (*archive.Writer, error) {
	aw, err := archive.NewWriter(w)
	if err != nil {
		return nil, err
	}
	aw.BatchBlocks = batchBlocks
	aw.Checksums = true
	aw.FooterSum = true
	if kind == deltaArchive {
		aw.Keyframe = keyframe
	}
	return aw, nil
}

// writeArchiveFile archives snaps into path and returns the file size.
// It is the set-up path of the read workloads; campaign_write runs the
// same calls with a stopwatch around each.
func writeArchiveFile(path string, kind archiveKind, snaps []snapshot) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	aw, err := newArchiveWriter(f, kind)
	if err != nil {
		return 0, err
	}
	for _, s := range snaps {
		if err := aw.AddDataset(s.ds, s.cfg); err != nil {
			return 0, fmt.Errorf("%s: adding %s/%s: %w", path, s.ds.Name, s.ds.Field, err)
		}
	}
	if err := aw.Close(); err != nil {
		return 0, err
	}
	size := aw.Stats().BytesWritten
	return size, f.Close()
}

// archiveSet is the archives built from one corpus, indexed by
// archiveKind; a kind that was not built has no path and no snapshots.
type archiveSet struct {
	path  [2]string
	size  [2]int64
	snaps [2][]snapshot
}

// storedRatio is raw field bytes over archive bytes, all archives of the
// set together.
func (a *archiveSet) storedRatio() float64 {
	raw := rawBytesOf(a.snaps[intraArchive]) + rawBytesOf(a.snaps[deltaArchive])
	return ratio(float64(raw), float64(a.size[intraArchive]+a.size[deltaArchive]))
}

// buildArchives writes the archives of the given kinds under dir: A_intra
// from the catalog snapshots, A_delta from the campaign.
func buildArchives(dir string, c *corpus, kinds ...archiveKind) (*archiveSet, error) {
	a := &archiveSet{}
	for _, kind := range kinds {
		a.snaps[kind] = c.snaps
		if kind == deltaArchive {
			a.snaps[kind] = c.campaign
		}
		a.path[kind] = filepath.Join(dir, kind.String()+".taca")
		size, err := writeArchiveFile(a.path[kind], kind, a.snaps[kind])
		if err != nil {
			return nil, err
		}
		a.size[kind] = size
	}
	return a, nil
}

// fidelity accumulates the distortion of decoded members against their
// originals.
type fidelity struct {
	psnrs []float64 // one per member, dB
}

// checkMember compares a decoded member against its original: every
// stored cell must lie within the level's effective error bound. It
// returns the number of cells that violate it.
func (f *fidelity) checkMember(orig snapshot, recon *amr.Dataset) (int64, error) {
	if len(recon.Levels) != len(orig.ds.Levels) {
		return 0, fmt.Errorf("%s: decoded %d levels, original has %d", orig.ds.Name, len(recon.Levels), len(orig.ds.Levels))
	}
	d, err := metrics.DatasetDistortion(orig.ds, recon)
	if err != nil {
		return 0, err
	}
	if p := d.PSNR(); !math.IsInf(p, 0) && !math.IsNaN(p) {
		f.psnrs = append(f.psnrs, p)
	}
	var bad int64
	for li, l := range orig.ds.Levels {
		// One part in a million of slack: the bound is enforced in float64
		// on float32 data, so the last ulp of a float32 may poke over it.
		eb := orig.cfg.LevelEB(li, l) * (1 + 1e-6)
		bad += cellsBeyond(l, recon.Levels[li], eb)
	}
	return bad, nil
}

// cellsBeyond counts stored cells of orig whose reconstruction in recon
// is further than eb away.
func cellsBeyond(orig, recon *amr.Level, eb float64) int64 {
	if recon.Grid.Dim != orig.Grid.Dim {
		return int64(orig.StoredCells())
	}
	var bad int64
	a, b := orig.MaskedValues(nil), recon.MaskedValues(nil)
	if len(a) != len(b) {
		return int64(len(a))
	}
	for i := range a {
		if math.Abs(float64(a[i])-float64(b[i])) > eb {
			bad++
		}
	}
	return bad
}

// psnr is the mean PSNR of the members checked so far. Fields differ in
// unit and range by orders of magnitude, so PSNR is taken per member and
// averaged, never pooled over cells of different fields.
func (f *fidelity) psnr() float64 {
	if len(f.psnrs) == 0 {
		return 0
	}
	var sum float64
	for _, p := range f.psnrs {
		sum += p
	}
	return sum / float64(len(f.psnrs))
}

// hashValues folds float32 values into a 64-bit FNV-1a style digest, one
// multiply per value. It only has to tell a wrong reconstruction from
// the reference one, cheaply enough to run inside a measured window.
func hashValues(h uint64, vs []amr.Value) uint64 {
	for _, v := range vs {
		h = (h ^ uint64(math.Float32bits(v))) * 1099511628211
	}
	return h
}

const hashSeed = 14695981039346656037

// hashDataset digests every level grid of a decoded dataset together
// with how many unit blocks each level claims to hold.
func hashDataset(ds *amr.Dataset) uint64 {
	h := uint64(hashSeed)
	for _, l := range ds.Levels {
		h = (h ^ uint64(l.Mask.Count())) * 1099511628211
		h = hashValues(h, l.Grid.Data)
	}
	return h
}

// storedBytes is the raw field data a decoded (possibly partial)
// dataset carries: four bytes per cell of every block its masks mark.
func storedBytes(ds *amr.Dataset) int64 { return int64(ds.StoredCells()) * amr.ValueBytes }
