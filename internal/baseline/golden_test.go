package baseline

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

// baselineHashes returns, for every sim.Catalog(16) dataset × {baryon
// density, temperature} × baseline codec × bound, the SHA-256 of the
// payload the codec writes.
func baselineHashes(t *testing.T) map[string]string {
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
		{"rel-scales", codec.Config{ErrorBound: 1e-3, Mode: sz.Rel, LevelScales: []float64{3, 1}}},
	}
	got := map[string]string{}
	for _, spec := range specs {
		for _, f := range []sim.Field{sim.BaryonDensity, sim.Temperature} {
			ds, err := sim.Generate(spec, f)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, f, err)
			}
			for _, c := range []codec.Codec{Naive1D{}, ZMesh{}, Uniform3D{}} {
				for _, b := range bounds {
					blob, err := c.Compress(ds, b.cfg)
					if err != nil {
						t.Fatalf("%s/%s %s %s: %v", spec.Name, f, c.Name(), b.name, err)
					}
					sum := sha256.Sum256(blob)
					got[fmt.Sprintf("%s/%s/%s/%s", spec.Name, f, c.Name(), b.name)] = hex.EncodeToString(sum[:])
				}
			}
		}
	}
	return got
}

// TestBaselineGolden pins the 1D, zMesh and 3D payloads the comparison
// exhibits rest on: each must hash to what testdata/parent_baseline.txt
// says, written before sz stopped resolving relative bounds itself. The
// rel-scales rows hold that LevelScales reach the 1D baseline only.
// Never rewrite the file with the current codecs.
func TestBaselineGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/parent_baseline.txt")
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
	got := baselineHashes(t)
	if len(want) != len(got) {
		t.Fatalf("%d fixtures for %d payloads", len(want), len(got))
	}
	for name, sum := range got {
		if sum != want[name] {
			t.Errorf("%s: sha256 %s, the parent wrote %s", name, sum, want[name])
		}
	}
}
