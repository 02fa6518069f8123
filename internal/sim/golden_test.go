package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// generateHashes returns, for every sim.Catalog(16) dataset × Fields(),
// the SHA-256 of the Dataset.Write stream of what Generate builds.
func generateHashes(t *testing.T) map[string]string {
	specs, err := Catalog(16)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, spec := range specs {
		for _, f := range Fields() {
			ds, err := Generate(spec, f)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, f, err)
			}
			h := sha256.New()
			if err := ds.Write(h); err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s/%s", spec.Name, f)] = hex.EncodeToString(h.Sum(nil))
		}
	}
	return got
}

// TestGenerateGolden pins the synthetic corpus every exhibit and
// benchmark number rests on: each scale-16 catalog dataset × field must
// hash to what testdata/parent_generate.txt says, written by the
// generator before its spectrum, ratio and driver-correlation settings
// became constants. Never rewrite the file with the current generator.
func TestGenerateGolden(t *testing.T) {
	text, err := os.ReadFile("testdata/parent_generate.txt")
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
	got := generateHashes(t)
	if len(want) != len(got) {
		t.Fatalf("%d fixtures for %d datasets", len(want), len(got))
	}
	for name, sum := range got {
		if sum != want[name] {
			t.Errorf("%s: sha256 %s, the parent generated %s", name, sum, want[name])
		}
	}
}
