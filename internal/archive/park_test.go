package archive

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/amr"
	"repro/internal/codec"
	"repro/internal/grid"
)

// foldDataset folds every cell of every level, bit for bit, and every mask
// into 64 bits.
func foldDataset(levels []*amr.Level) uint64 {
	h := fnv.New64a()
	var w [4]byte
	for _, l := range levels {
		for _, v := range l.Grid.Data {
			u := math.Float32bits(v)
			w = [4]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24)}
			h.Write(w[:])
		}
		h.Write(l.Mask.AppendPacked(nil))
	}
	return h.Sum64()
}

// planFrames counts the frames extract planned for p: the batches holding
// a wanted block.
func planFrames(p *levelPlan) int {
	n := 0
	for b := range p.idx.Batches {
		lo, hi := p.idx.BatchSpan(b)
		if p.want == nil || slices.ContainsFunc(p.idx.Ords()[lo:hi], p.want.AtIndex) {
			n++
		}
	}
	return n
}

// holdAllocations makes every level allocation of r wait until the other
// workers have parked every other frame of the level, or as many as a plan
// holds: the schedule place exists for, taken to its end. It returns the
// longest parked list an allocating worker found.
func holdAllocations(t *testing.T, r *Reader) (longest func() int) {
	var mu sync.Mutex
	most := 0
	r.levelAlloc = func(p *levelPlan) {
		if r.Workers == 1 {
			return // jobs run inline: nobody else to park one
		}
		target := min(maxParked, planFrames(p)-1)
		for {
			p.mu.Lock()
			n := len(p.parked)
			p.mu.Unlock()
			if n > maxParked {
				t.Errorf("level %d: %d frames parked, the bound is %d", p.li, n, maxParked)
			}
			if n >= target {
				mu.Lock()
				most = max(most, n)
				mu.Unlock()
				return
			}
			runtime.Gosched()
		}
	}
	return func() int { return most }
}

// extractions runs every extraction the reader offers on every member —
// the member, each level, three regions — and returns a name and a fold
// for each.
func extractions(t *testing.T, r *Reader, fd grid.Dims, ub int) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for mi, m := range r.Members() {
		ds, err := r.Extract(mi)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("member %d", mi)] = foldDataset(ds.Levels)
		for li := range m.Levels {
			l, err := r.ExtractLevel(mi, li)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("member %d level %d", mi, li)] = foldDataset([]*amr.Level{l})
		}
		for name, roi := range testROIs(fd, ub) {
			part, err := r.ExtractRegion(mi, roi)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("member %d region %s", mi, name)] = foldDataset(part.Levels)
		}
	}
	return out
}

// TestParkedScatterBitIdentical holds every extraction of an intra and a
// Keyframe=4 archive, at 2, 4 and 8 workers and with every level
// allocation held until the frames that can park have parked, to what one
// worker extracts: which worker scatters a frame, and when, must not show.
// The finest level has more frames than a plan parks, so the bound is
// reached and a worker waits at it. Run under -race, this is the proof
// that a parked frame's scratch is no longer its worker's.
func TestParkedScatterBitIdentical(t *testing.T) {
	snaps := testCampaign(t, 6)
	fd, ub := snaps[0].FinestDims(), snaps[0].Levels[0].UnitBlock
	for _, keyframe := range []int{0, 4} {
		blob := buildDeltaArchiveBatch(t, snaps, keyframe, 8)
		r, err := Open(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			t.Fatal(err)
		}
		if n := len(r.Members()[0].Levels[0].Batches); n <= maxParked+1 {
			t.Fatalf("finest level has %d frames: too few to fill a parked list of %d", n, maxParked)
		}
		r.Workers = 1
		want := extractions(t, r, fd, ub)
		if n := r.parked.Load(); n != 0 {
			t.Fatalf("one worker parked %d frames", n)
		}
		longest := holdAllocations(t, r)
		for _, workers := range []int{1, 2, 4, 8} {
			r.Workers = workers
			before := r.parked.Load()
			for what, got := range extractions(t, r, fd, ub) {
				if got != want[what] {
					t.Errorf("keyframe %d, %d workers: %s folds to %016x, one worker's to %016x", keyframe, workers, what, got, want[what])
				}
			}
			if parked := r.parked.Load() - before; (parked > 0) != (workers > 1) {
				t.Errorf("keyframe %d, %d workers: %d frames parked", keyframe, workers, parked)
			}
		}
		if n := longest(); n != maxParked {
			t.Errorf("keyframe %d: the longest parked list held %d frames, want the bound, %d", keyframe, n, maxParked)
		}
	}
}

// TestCorruptFrameWhileSiblingsParked damages a late frame of the finest
// level of a checksummed archive and holds the level's allocation until
// that frame is being read, so that it fails its CRC with earlier frames
// of the level parked: the extraction must fail with the error one worker
// reports, and the scratch it parked and the decoders it used must be fit
// for the next extraction, of the undamaged member beside it. The level's
// frames are read as one run before any is decoded, so the allocation is
// held until the frames before the damaged one have parked.
func TestCorruptFrameWhileSiblingsParked(t *testing.T) {
	snaps := testCampaign(t, 2)
	blob := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 8)
	clean, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	clean.Workers = 1
	want, err := clean.Extract(1)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 5 // frames 1–4 are decoded, and parked, before it fails
	rec := clean.Members()[0].Levels[0].Batches[victim]
	damaged := slices.Clone(blob)
	damaged[rec.Offset+rec.Length/2] ^= 0x10

	var wantErr error
	for _, workers := range []int{1, 2, 4} {
		r, err := Open(bytes.NewReader(damaged), int64(len(damaged)))
		if err != nil {
			t.Fatal(err)
		}
		r.Workers = workers
		var first sync.Once
		if workers > 1 {
			r.levelAlloc = func(p *levelPlan) {
				first.Do(func() {
					for n := 0; n < victim-1; runtime.Gosched() {
						p.mu.Lock()
						n = len(p.parked)
						p.mu.Unlock()
					}
				})
			}
		}
		_, err = r.ExtractLevel(0, 0)
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrIO) {
			t.Fatalf("%d workers: extraction over a damaged frame returned %v", workers, err)
		}
		if wantErr == nil {
			wantErr = err
		} else if err.Error() != wantErr.Error() {
			t.Fatalf("%d workers: error %q, one worker reports %q", workers, err, wantErr)
		}
		if parked := r.parked.Load(); (parked > 0) != (workers > 1) {
			t.Fatalf("%d workers: %d frames parked when the damaged frame was read", workers, parked)
		}
		got, err := r.Extract(1)
		if err != nil {
			t.Fatalf("%d workers: the member beside the damaged one: %v", workers, err)
		}
		if foldDataset(got.Levels) != foldDataset(want.Levels) {
			t.Fatalf("%d workers: the extraction after a failed one differs from a clean reader's", workers)
		}
	}
}
