package archive

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/amr"
	"repro/internal/bitio"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/sim"
)

// driftDataset derives the next snapshot of a campaign from ds: identical
// AMR structure, values moved by a smooth per-unit-block drift of a few
// error bounds plus sub-bound jitter — the slowly-evolving regime delta
// coding targets.
func driftDataset(ds *amr.Dataset, name string, eb float64, seed int64) *amr.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := ds.Clone()
	out.Name = name
	for _, l := range out.Levels {
		for _, ord := range l.Mask.OccupiedIndices() {
			bx, by, bz := l.Mask.Dim.Coords(ord)
			r := l.BlockRegion(bx, by, bz)
			drift := amr.Value((rng.Float64()*2 - 1) * 3 * eb)
			for x := r.X0; x < r.X1; x++ {
				for y := r.Y0; y < r.Y1; y++ {
					for z := r.Z0; z < r.Z1; z++ {
						i := l.Grid.Dim.Index(x, y, z)
						l.Grid.Data[i] += drift + amr.Value((rng.Float64()*2-1)*eb/4)
					}
				}
			}
		}
	}
	return out
}

// testCampaign generates steps correlated snapshots of one field at a
// shared AMR structure.
func testCampaign(t testing.TB, steps int) []*amr.Dataset {
	return campaignOf(t, 32, 4, steps)
}

// campaignOf is testCampaign at a chosen finest edge and unit block.
func campaignOf(t testing.TB, finestN, unitBlock, steps int) []*amr.Dataset {
	t.Helper()
	base, err := sim.Generate(sim.Spec{
		Name: "t0", FinestN: finestN, Levels: 2, UnitBlock: unitBlock,
		Seed: 7, LeafFractions: []float64{0.3, 0.7},
	}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	snaps := []*amr.Dataset{base}
	for s := 1; s < steps; s++ {
		snaps = append(snaps, driftDataset(snaps[s-1], fmt.Sprintf("t%d", s), testEB, int64(s)))
	}
	return snaps
}

// buildDeltaArchive writes the snapshots with the given keyframe interval.
func buildDeltaArchive(t testing.TB, snaps []*amr.Dataset, keyframe int) []byte {
	return buildDeltaArchiveBatch(t, snaps, keyframe, 16)
}

// buildDeltaArchiveBatch is buildDeltaArchive at a chosen frame size.
func buildDeltaArchiveBatch(t testing.TB, snaps []*amr.Dataset, keyframe, batchBlocks int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = batchBlocks
	w.Keyframe = keyframe
	for _, ds := range snaps {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaArchiveRoundTrip is the campaign-mode acceptance test: a
// 6-snapshot campaign at keyframe interval 4 must produce a markedly
// smaller archive than intra coding, carry the expected keyframe/delta member
// pattern, and reconstruct EVERY chain member within the error bound —
// residuals are taken against reconstructed predecessors, so depth never
// compounds error.
func TestDeltaArchiveRoundTrip(t *testing.T) {
	const keyframe = 4
	snaps := testCampaign(t, 6)
	delta := buildDeltaArchive(t, snaps, keyframe)
	intra := buildDeltaArchive(t, snaps, 0)
	if len(delta) >= len(intra) {
		t.Fatalf("delta archive %d bytes, intra %d — campaign coding did not pay", len(delta), len(intra))
	}
	// This campaign stores 1.84× smaller in campaign mode; the floor is
	// that less a tenth, so a writer that quietly stops choosing the
	// temporal coding fails here, not only one that grows the archive.
	if gain := float64(len(intra)) / float64(len(delta)); gain < 1.66 {
		t.Fatalf("campaign coding stores %.2f× smaller than intra, want >= 1.66×", gain)
	}

	r, err := Open(bytes.NewReader(delta), int64(len(delta)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Members()); got != len(snaps) {
		t.Fatalf("archive holds %d members, want %d", got, len(snaps))
	}
	for i := range snaps {
		m := &r.Members()[i]
		wantRef := i - 1
		if i%keyframe == 0 {
			wantRef = -1 // keyframes bound every chain
		}
		if m.Ref != wantRef {
			t.Fatalf("member %d references %d, want %d", i, m.Ref, wantRef)
		}
		if m.Gen != 0 {
			t.Fatalf("member %d generation %d, want 0", i, m.Gen)
		}
	}

	for i, ds := range snaps {
		recon, err := r.Extract(i)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range ds.Levels {
			if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > testEB {
				t.Fatalf("member %d level %d max err %.4g > bound %.4g", i, li, worst, testEB)
			}
		}
	}
}

// TestDeltaOffByteIdentity pins the format-stability contract of campaign
// mode: with Keyframe ON, a campaign whose snapshots never share an AMR
// structure codes fully intra and writes the identical bytes the writer
// writes with Keyframe off.
func TestDeltaOffByteIdentity(t *testing.T) {
	snaps := testSnapshots(t) // structures differ between timesteps
	intra := buildArchive(t, snaps, codec.Config{ErrorBound: testEB}, 16)

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 16
	w.Keyframe = 4
	for _, ds := range snaps {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), intra) {
		t.Fatalf("keyframe-on writer emitted %d bytes differing from the keyframe-off output (%d bytes) on a structure-mismatched campaign", buf.Len(), len(intra))
	}

	r, err := Open(bytes.NewReader(intra), int64(len(intra)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Members() {
		if m := &r.Members()[i]; m.Ref != -1 || m.IsDelta() {
			t.Fatalf("intra member %d decoded with Ref=%d", i, m.Ref)
		}
	}
}

// TestDeltaAppendContinuesChain appends to a committed delta archive and
// checks the chain crosses the generation boundary: the appender primes
// its reference by decoding the committed tail, so the first appended
// member may delta-code against the last committed one.
func TestDeltaAppendContinuesChain(t *testing.T) {
	const keyframe = 4
	snaps := testCampaign(t, 4)
	path := filepath.Join(t.TempDir(), "campaign.taca")

	fl, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(fl)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 16
	w.Keyframe = keyframe
	for _, ds := range snaps[:2] {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fl.Close()

	w2, fl2, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.BatchBlocks = 16
	w2.Keyframe = keyframe
	for _, ds := range snaps[2:] {
		if err := w2.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	fl2.Close()

	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wantRef := []int{-1, 0, 1, 2}
	wantGen := []int{0, 0, 1, 1}
	for i := range snaps {
		m := &r.Members()[i]
		if m.Ref != wantRef[i] {
			t.Fatalf("member %d references %d, want %d (chain should cross the append boundary)", i, m.Ref, wantRef[i])
		}
		if m.Gen != wantGen[i] {
			t.Fatalf("member %d generation %d, want %d", i, m.Gen, wantGen[i])
		}
	}
	for i, ds := range snaps {
		recon, err := r.Extract(i)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range ds.Levels {
			if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > testEB {
				t.Fatalf("member %d level %d max err %.4g > bound %.4g", i, li, worst, testEB)
			}
		}
	}
}

// TestDeltaChainCutAcrossAppends writes a Keyframe-3 campaign in three
// generations and checks that chains are cut at Keyframe across them: the
// appender reads a primed reference's depth from the committed links, so a
// member whose reference sits at depth Keyframe−1 is a keyframe, whether
// that reference was committed by an earlier generation or sealed by the
// same one.
func TestDeltaChainCutAcrossAppends(t *testing.T) {
	snaps := testCampaign(t, 7)
	path := filepath.Join(t.TempDir(), "campaign.taca")
	fl, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(fl)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for gen, n := range []int{2, 2, 3} {
		if gen > 0 {
			if w, fl, err = OpenAppendFile(path); err != nil {
				t.Fatal(err)
			}
		}
		w.BatchBlocks = 16
		w.Keyframe = 3
		for _, ds := range snaps[next : next+n] {
			if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
				t.Fatal(err)
			}
		}
		next += n
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		fl.Close()
	}

	r, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var refs, gens []int
	for _, m := range r.Members() {
		refs, gens = append(refs, m.Ref), append(gens, m.Gen)
	}
	if want := []int{-1, 0, 1, -1, 3, 4, -1}; !slices.Equal(refs, want) {
		t.Fatalf("Ref = %v, want %v", refs, want)
	}
	if want := []int{0, 0, 1, 1, 2, 2, 2}; !slices.Equal(gens, want) {
		t.Fatalf("Gen = %v, want %v", gens, want)
	}
	for i, ds := range snaps {
		recon, err := r.Extract(i)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range ds.Levels {
			if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > testEB {
				t.Fatalf("member %d level %d max err %.4g > bound %.4g", i, li, worst, testEB)
			}
		}
	}
}

// rawV2Member appends one hand-built v2 footer member record: one level
// of dims edge³ at unit block 4, a full occupancy mask, and nb batches
// whose delta flags are taken from flags. It exists so the hostile-link
// tests can emit footers the production encoder refuses to.
func rawV2Member(t *testing.T, out []byte, name string, refPlus1, gen uint64, edge, batchBlocks int, flags []uint64) []byte {
	t.Helper()
	out = bitio.AppendBytes(out, []byte(name))
	out = bitio.AppendBytes(out, []byte("f"))
	out = bitio.AppendUvarint(out, 2) // ratio
	out = bitio.AppendUvarint(out, math.Float64bits(1e9))
	out = bitio.AppendUvarint(out, 0)  // mode
	out = bitio.AppendUvarint(out, 16) // quant bits
	out = bitio.AppendUvarint(out, refPlus1)
	out = bitio.AppendUvarint(out, gen)
	out = bitio.AppendUvarint(out, 0) // no level scales
	out = bitio.AppendUvarint(out, 1) // one level
	out = bitio.AppendUvarint(out, uint64(edge))
	out = bitio.AppendUvarint(out, uint64(edge))
	out = bitio.AppendUvarint(out, uint64(edge))
	out = bitio.AppendUvarint(out, 4) // unit block
	mask := grid.NewMask(grid.Dims{X: edge / 4, Y: edge / 4, Z: edge / 4})
	mask.Fill(true)
	comp, err := codec.EncodeMask(mask)
	if err != nil {
		t.Fatal(err)
	}
	out = bitio.AppendBytes(out, comp)
	out = bitio.AppendUvarint(out, uint64(batchBlocks))
	nb := (mask.Count() + batchBlocks - 1) / batchBlocks
	out = bitio.AppendUvarint(out, uint64(nb))
	for b := 0; b < nb; b++ {
		out = bitio.AppendUvarint(out, uint64(headerLen+b*10)) // offset
		out = bitio.AppendUvarint(out, 10)                     // length
	}
	if len(flags) != nb {
		t.Fatalf("rawV2Member: %d flags for %d batches", len(flags), nb)
	}
	for _, fl := range flags {
		out = bitio.AppendUvarint(out, fl)
	}
	return out
}

// TestHostileDependencyLinks drives decodeFooter with hand-built v2
// footers carrying every malformed dependency shape: self and forward
// references (which subsume cycles — valid links always point strictly
// backward), delta batches without a reference, mode flags outside the
// known set, and references at a mismatched AMR structure. All must
// error; none may hang, panic, or allocate unboundedly.
func TestHostileDependencyLinks(t *testing.T) {
	intra := []uint64{0}
	delta := []uint64{1}
	cases := []struct {
		name   string
		footer func(t *testing.T) []byte
	}{
		{"self reference", func(t *testing.T) []byte {
			out := bitio.AppendUvarint(nil, 1)
			return rawV2Member(t, out, "m0", 1, 0, 4, 64, intra) // refPlus1=1 → ref 0 == own index
		}},
		{"forward reference", func(t *testing.T) []byte {
			out := bitio.AppendUvarint(nil, 2)
			out = rawV2Member(t, out, "m0", 2, 0, 4, 64, delta) // ref 1 > own index 0
			return rawV2Member(t, out, "m1", 0, 0, 4, 64, intra)
		}},
		{"ref at or past member count", func(t *testing.T) []byte {
			out := bitio.AppendUvarint(nil, 1)
			return rawV2Member(t, out, "m0", 9, 0, 4, 64, delta)
		}},
		{"delta batch without reference", func(t *testing.T) []byte {
			out := bitio.AppendUvarint(nil, 1)
			return rawV2Member(t, out, "m0", 0, 0, 4, 64, delta)
		}},
		{"unknown mode flags", func(t *testing.T) []byte {
			out := bitio.AppendUvarint(nil, 2)
			out = rawV2Member(t, out, "m0", 0, 0, 4, 64, intra)
			return rawV2Member(t, out, "m1", 1, 0, 4, 64, []uint64{2})
		}},
		{"structure mismatch", func(t *testing.T) []byte {
			out := bitio.AppendUvarint(nil, 2)
			out = rawV2Member(t, out, "m0", 0, 0, 8, 64, intra) // 8³ reference
			return rawV2Member(t, out, "m1", 1, 0, 4, 64, delta)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeFooter(tc.footer(t), 2); err == nil {
				t.Fatalf("hostile footer (%s) decoded without error", tc.name)
			}
		})
	}

	// Positive control: the same hand-rolled layout with a well-formed
	// backward link decodes, proving the cases above fail on the hostile
	// links rather than on the raw encoding.
	out := bitio.AppendUvarint(nil, 2)
	out = rawV2Member(t, out, "m0", 0, 0, 4, 64, intra)
	out = rawV2Member(t, out, "m1", 1, 0, 4, 64, delta)
	members, err := decodeFooter(out, 2)
	if err != nil {
		t.Fatalf("well-formed raw footer rejected: %v", err)
	}
	if len(members) != 2 || members[1].Ref != 0 || !members[1].Levels[0].IsDelta(0) {
		t.Fatalf("well-formed raw footer decoded wrong: %+v", members)
	}
}

// TestTornDeltaTail crashes an append mid-delta-member and checks both
// recovery paths: Open serves the last committed generation, and
// OpenAppend truncates the wreckage and can continue the campaign.
func TestTornDeltaTail(t *testing.T) {
	const keyframe = 4
	snaps := testCampaign(t, 3)
	path := filepath.Join(t.TempDir(), "torn.taca")

	fl, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(fl)
	if err != nil {
		t.Fatal(err)
	}
	w.BatchBlocks = 16
	w.Keyframe = keyframe
	for _, ds := range snaps[:2] {
		if err := w.AddDataset(ds, codec.Config{ErrorBound: testEB}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	committed, err := fl.Seek(0, io.SeekEnd)
	if err != nil {
		t.Fatal(err)
	}
	// The crash: frames of a third (delta) member land after the trailer
	// but no footer ever commits them.
	w2, err := OpenAppend(fl)
	if err != nil {
		t.Fatal(err)
	}
	w2.BatchBlocks = 16
	w2.Keyframe = keyframe
	if err := w2.AddDataset(snaps[2], codec.Config{ErrorBound: testEB}); err != nil {
		t.Fatal(err)
	}
	fl.Close() // no Commit — the delta tail is torn

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) <= committed {
		t.Fatal("torn append wrote nothing past the committed generation")
	}
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatalf("recovery from torn delta tail failed: %v", err)
	}
	if r.EndOffset() != committed || len(r.Members()) != 2 {
		t.Fatalf("recovered end %d with %d members, want %d with 2", r.EndOffset(), len(r.Members()), committed)
	}

	// OpenAppend must cut the wreckage and still continue the chain.
	w3, fl3, err := OpenAppendFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w3.BatchBlocks = 16
	w3.Keyframe = keyframe
	if err := w3.AddDataset(snaps[2], codec.Config{ErrorBound: testEB}); err != nil {
		t.Fatal(err)
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	fl3.Close()
	r2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if m := &r2.Members()[2]; m.Ref != 1 {
		t.Fatalf("post-recovery append references %d, want 1", m.Ref)
	}
	recon, err := r2.Extract(2)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range snaps[2].Levels {
		if worst := maskedMaxErr(l, recon.Levels[li], l.Mask); worst > testEB {
			t.Fatalf("level %d max err %.4g > bound %.4g", li, worst, testEB)
		}
	}
}
