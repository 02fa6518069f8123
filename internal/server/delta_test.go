package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/sim"
)

const deltaEB = 1e9

// driftSnap derives the next campaign snapshot from ds: same AMR
// structure, values moved by a smooth per-block drift of a few error
// bounds — the regime where delta members win.
func driftSnap(ds *amr.Dataset, name string, seed int64) *amr.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := ds.Clone()
	out.Name = name
	for _, l := range out.Levels {
		for _, ord := range l.Mask.OccupiedIndices() {
			bx, by, bz := l.Mask.Dim.Coords(ord)
			r := l.BlockRegion(bx, by, bz)
			drift := amr.Value((rng.Float64()*2 - 1) * 3 * deltaEB)
			for x := r.X0; x < r.X1; x++ {
				for y := r.Y0; y < r.Y1; y++ {
					for z := r.Z0; z < r.Z1; z++ {
						i := l.Grid.Dim.Index(x, y, z)
						l.Grid.Data[i] += drift + amr.Value((rng.Float64()*2-1)*deltaEB/4)
					}
				}
			}
		}
	}
	return out
}

// campaignArchiveBytes writes a drifting campaign with the given keyframe
// interval and returns the archive bytes plus the source snapshots.
func campaignArchiveBytes(t testing.TB, steps, keyframe, batchBlocks int) ([]byte, []*amr.Dataset) {
	t.Helper()
	base, err := sim.Generate(sim.Spec{
		Name: "c0", FinestN: 32, Levels: 2, UnitBlock: 4,
		Seed: 41, LeafFractions: []float64{0.3, 0.7},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	return campaignFrom(t, base, steps, keyframe, batchBlocks)
}

// campaignFrom is campaignArchiveBytes drifting from a given first
// snapshot.
func campaignFrom(t testing.TB, base *amr.Dataset, steps, keyframe, batchBlocks int) ([]byte, []*amr.Dataset) {
	t.Helper()
	snaps := []*amr.Dataset{base}
	for i := 1; i < steps; i++ {
		snaps = append(snaps, driftSnap(snaps[i-1], fmt.Sprintf("c%d", i), int64(i)))
	}
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = batchBlocks
	w.Keyframe = keyframe
	for _, ds := range snaps {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: deltaEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snaps
}

// totalBatches counts the frames of one member across all levels.
func totalBatches(m *archive.Member) int {
	n := 0
	for li := range m.Levels {
		n += len(m.Levels[li].Batches)
	}
	return n
}

// TestServedDeltaChainByteIdentity serves the deepest member of a
// keyframe/delta campaign and asserts (a) the cache-assembled payload is
// byte-identical to direct extraction, (b) resolving the reference chain
// decoded each chain member exactly once — every intermediate landed in
// the cache under its own key, so (c) a later request for an intermediate
// member is pure cache hits, zero new decodes.
func TestServedDeltaChainByteIdentity(t *testing.T) {
	const steps = 5
	blob, _ := campaignArchiveBytes(t, steps, steps, 8) // one keyframe, chain depth steps-1
	s, r := newTestServer(t, blob, Config{})
	members := r.Members()
	if len(members) != steps {
		t.Fatalf("archive has %d members, want %d", len(members), steps)
	}
	for mi := 1; mi < steps; mi++ {
		if members[mi].Ref != mi-1 {
			t.Fatalf("member %d: Ref %d, want %d (chain intact)", mi, members[mi].Ref, mi-1)
		}
	}

	last := steps - 1
	for li := range members[last].Levels {
		g, _, err := s.LevelContext(context.Background(), "test", last, li)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.ExtractLevel(last, li)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Data {
			if math.Float32bits(g.Data[i]) != math.Float32bits(want.Grid.Data[i]) {
				t.Fatalf("level %d cell %d: served %g, direct %g", li, i, g.Data[i], want.Grid.Data[i])
			}
		}
	}

	// The chain covers every member once: extracting the tip decoded
	// steps × batches-per-member frames, not more (no re-decode of shared
	// ancestors across batches) and not fewer.
	st := s.Cache().Stats()
	wantDecodes := int64(0)
	for mi := range members {
		wantDecodes += int64(totalBatches(&members[mi]))
	}
	if st.Decodes != wantDecodes {
		t.Fatalf("chain extraction decoded %d frames, want %d (stats %+v)", st.Decodes, wantDecodes, st)
	}

	// Intermediates were cached by the chain walk: serving one now costs
	// zero decodes.
	if _, _, err := s.LevelContext(context.Background(), "test", last/2, 0); err != nil {
		t.Fatal(err)
	}
	if st2 := s.Cache().Stats(); st2.Decodes != wantDecodes {
		t.Fatalf("intermediate member re-decoded: %d decodes, want still %d", st2.Decodes, wantDecodes)
	}
}

// TestIngestDeltaChain runs the write path in campaign mode: with
// ArchiveSpec.Keyframe set, ingested snapshots delta-code against the
// archive's committed tail, keyframes cut the chain at the configured
// interval, and every served member stays within the error bound of its
// own source snapshot.
func TestIngestDeltaChain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.taca")

	base, err := sim.Generate(sim.Spec{
		Name: "c0", FinestN: 32, Levels: 2, UnitBlock: 4,
		Seed: 41, LeafFractions: []float64{0.3, 0.7},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddDataset(base, codec.Config{ErrorBound: deltaEB}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	if _, err := s.Add("live", ArchiveSpec{Primary: path, Append: true, Keyframe: 3, Ingest: codec.Config{ErrorBound: deltaEB, Workers: 2}}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Ingest three drift steps: with K=3 and the committed tail as chain
	// root, members 1 and 2 ride the chain and member 3 is a keyframe.
	snaps := []*amr.Dataset{base}
	for i := 1; i <= 3; i++ {
		ds := driftSnap(snaps[i-1], fmt.Sprintf("c%d", i), int64(100+i))
		snaps = append(snaps, ds)
		var wire bytes.Buffer
		if err := ds.Write(&wire); err != nil {
			t.Fatal(err)
		}
		rec := post(t, h, "/v1/a/live/ingest", wire.Bytes())
		if rec.Code != http.StatusCreated {
			t.Fatalf("ingest %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	// Every ingested member must be served within the bound of its OWN
	// snapshot — per-member guarantee, no accumulation down the chain.
	for mi := 1; mi <= 3; mi++ {
		for li, l := range snaps[mi].Levels {
			g, _, err := s.LevelContext(context.Background(), "live", mi, li)
			if err != nil {
				t.Fatal(err)
			}
			for _, ord := range l.Mask.OccupiedIndices() {
				bx, by, bz := l.Mask.Dim.Coords(ord)
				r := l.BlockRegion(bx, by, bz)
				for x := r.X0; x < r.X1; x++ {
					for y := r.Y0; y < r.Y1; y++ {
						for z := r.Z0; z < r.Z1; z++ {
							i := l.Grid.Dim.Index(x, y, z)
							if d := math.Abs(float64(g.Data[i]) - float64(l.Grid.Data[i])); d > deltaEB {
								t.Fatalf("member %d level %d cell %d: error %g > bound %g", mi, li, i, d, deltaEB)
							}
						}
					}
				}
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold reopen: the dependency links the ingester wrote are the
	// keyframe schedule we asked for.
	fr, err := archive.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	wantRef := []int{-1, 0, 1, -1} // K=3: tail chain 0 -> delta, delta, keyframe
	ms := fr.Members()
	if len(ms) != len(wantRef) {
		t.Fatalf("reopened archive has %d members, want %d", len(ms), len(wantRef))
	}
	for mi, want := range wantRef {
		if ms[mi].Ref != want {
			t.Fatalf("member %d: Ref %d, want %d", mi, ms[mi].Ref, want)
		}
	}
}

// TestServedCountsEachBatchOnce holds the block cache's counters to one
// lookup a batch. A cold level counts one miss for every frame it decodes,
// its own and its reference chain's, and no hit; the same level again
// counts one hit a batch and no miss; and so does the .amr route over a
// member whose every batch is resident.
func TestServedCountsEachBatchOnce(t *testing.T) {
	blob, _ := campaignArchiveBytes(t, 4, 4, 8) // a keyframe and three delta members
	s, r := newTestServer(t, blob, Config{})
	h := s.Handler()
	members := r.Members()
	last := len(members) - 1
	for li := range members[last].Levels {
		nb := int64(len(members[last].Levels[li].Batches))
		chain := int64(0)
		for b := range members[last].Levels[li].Batches {
			for mi := last; ; mi = members[mi].Ref {
				chain++
				if !members[mi].Levels[li].IsDelta(b) {
					break
				}
			}
		}
		if chain == nb {
			t.Fatalf("level %d: no delta batch, so no reference chain to count", li)
		}
		url := fmt.Sprintf("/v1/a/test/snap/%d/level/%d", last, li)
		st0 := s.Cache().Stats()
		if rec := get(t, h, url); rec.Code != http.StatusOK {
			t.Fatalf("level %d: status %d", li, rec.Code)
		}
		st1 := s.Cache().Stats()
		if st1.Hits != st0.Hits || st1.Misses-st0.Misses != chain || st1.Decodes-st0.Decodes != chain {
			t.Fatalf("level %d cold: %d hits, %d misses, %d decodes; want 0, %d, %d", li,
				st1.Hits-st0.Hits, st1.Misses-st0.Misses, st1.Decodes-st0.Decodes, chain, chain)
		}
		if rec := get(t, h, url); rec.Code != http.StatusOK {
			t.Fatalf("level %d again: status %d", li, rec.Code)
		}
		st2 := s.Cache().Stats()
		if st2.Hits-st1.Hits != nb || st2.Misses != st1.Misses || st2.Decodes != st1.Decodes {
			t.Fatalf("level %d warm: %d hits, %d misses, %d decodes; want %d, 0, 0", li,
				st2.Hits-st1.Hits, st2.Misses-st1.Misses, st2.Decodes-st1.Decodes, nb)
		}
	}
	st0 := s.Cache().Stats()
	if rec := get(t, h, fmt.Sprintf("/v1/a/test/snap/%d/amr", last)); rec.Code != http.StatusOK {
		t.Fatalf(".amr: status %d", rec.Code)
	}
	st1 := s.Cache().Stats()
	if st1.Hits-st0.Hits != int64(totalBatches(&members[last])) || st1.Misses != st0.Misses {
		t.Fatalf(".amr of a resident member: %d hits, %d misses; want %d, 0",
			st1.Hits-st0.Hits, st1.Misses-st0.Misses, totalBatches(&members[last]))
	}
}
