package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/sim"
	"repro/internal/sz"
)

// tacHashes returns, for every sim.Catalog(16) dataset × {baryon density,
// temperature} × bound, the SHA-256 of the payload core.TAC{} writes, and
// how many of those datasets' levels went to GSP (the dense-grid path).
func tacHashes(t *testing.T) (map[string]string, int) {
	specs, err := sim.Catalog(16)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []struct {
		name string
		cfg  codec.Config
	}{
		{"abs-1e9", codec.Config{ErrorBound: 1e9}},
		{"rel-1e-3", codec.Config{ErrorBound: 1e-3, Mode: sz.Rel}},
	}
	got := map[string]string{}
	gsp := 0
	for _, spec := range specs {
		for _, f := range []sim.Field{sim.BaryonDensity, sim.Temperature} {
			ds, err := sim.Generate(spec, f)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, f, err)
			}
			for _, b := range bounds {
				for _, l := range ds.Levels {
					if PickStrategy(l.Density(), b.cfg) == codec.GSP {
						gsp++
					}
				}
				blob, err := TAC{}.Compress(ds, b.cfg)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", spec.Name, f, b.name, err)
				}
				sum := sha256.Sum256(blob)
				got[fmt.Sprintf("%s/%s/%s", spec.Name, f, b.name)] = hex.EncodeToString(sum[:])
			}
		}
	}
	return got, gsp
}

// TestTACGolden pins the TAC payloads of the catalog: each must hash to
// what testdata/parent_tac.txt says, written before 1D streams and whole
// grids became one-block batches inside sz. The GSP levels among them are
// the ones coded as one dense grid (sz.Compress3D / Decompress3DInto).
// Never rewrite the file with the current codec.
func TestTACGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/parent_tac.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("fixture line %q: want name, sha256", line)
		}
		want[f[0]] = f[1]
	}
	got, gsp := tacHashes(t)
	if gsp == 0 {
		t.Fatal("no catalog level goes to GSP: the dense-grid path is unpinned")
	}
	if len(want) != len(got) {
		t.Fatalf("%d fixtures for %d payloads", len(want), len(got))
	}
	for name, sum := range got {
		if sum != want[name] {
			t.Errorf("%s: sha256 %s, the parent wrote %s", name, sum, want[name])
		}
	}
}
