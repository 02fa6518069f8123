package sz

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/grid"
)

// testBlocks builds a deterministic batch of smooth-ish blocks with some
// literal-triggering outliers.
func testBlocks(n, edge int, seed int64) []*grid.Grid3[float32] {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([]*grid.Grid3[float32], n)
	for b := range blocks {
		g := grid.NewCube[float32](edge)
		for x := 0; x < edge; x++ {
			for y := 0; y < edge; y++ {
				for z := 0; z < edge; z++ {
					v := float32(math.Sin(float64(x+b))*10 + float64(y)*0.5 + float64(z)*0.25)
					if rng.Float64() < 0.01 {
						v = float32(rng.NormFloat64() * 1e6) // unpredictable literal
					}
					g.Set(x, y, z, v)
				}
			}
		}
		blocks[b] = g
	}
	return blocks
}

// TestGoldenByteIdentity asserts that every compression path — one-shot,
// pooled Encoder cold, and a reused (warm) Encoder — produces bit-identical
// payloads. This is the contract that lets the pooled path ship without a
// format version bump.
func TestGoldenByteIdentity(t *testing.T) {
	blocks := testBlocks(13, 8, 42)
	opts := Options{ErrorBound: 0.05}

	ref, refStats, err := CompressBlocks(blocks, opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, blob []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(ref, blob) {
			t.Fatalf("%s: payload differs from serial reference (%d vs %d bytes)", name, len(blob), len(ref))
		}
	}

	enc := NewEncoder[float32]()
	blob, st, err := enc.CompressBlocks(blocks, opts)
	check("encoder serial cold", blob, err)
	if st != refStats {
		t.Fatalf("encoder stats %+v != one-shot stats %+v", st, refStats)
	}
	// Warm reuse: scratch now holds stale state from the previous call.
	blob, _, err = enc.CompressBlocks(blocks, opts)
	check("encoder serial warm", blob, err)
	// Interleave a different payload, then re-check the original.
	other := testBlocks(5, 4, 7)
	if _, _, err := enc.CompressBlocks(other, opts); err != nil {
		t.Fatal(err)
	}
	blob, _, err = enc.CompressBlocks(blocks, opts)
	check("encoder serial after interleaved payload", blob, err)
}

// TestGoldenPayloadHash pins the exact bytes of a DisableLossless payload
// (no DEFLATE stage, so the bytes are stable across Go releases). If this
// hash moves, the on-disk format changed and every archive written by
// earlier builds breaks.
func TestGoldenPayloadHash(t *testing.T) {
	blocks := testBlocks(4, 4, 1)
	blob, _, err := CompressBlocks(blocks, Options{ErrorBound: 0.1, DisableLossless: true})
	if err != nil {
		t.Fatal(err)
	}
	// Verified equal to the pre-refactor (PR 1) implementation's output.
	const want = "208dd8c00876bd455b6cbb10af4d3497b144061fece7122f714307e9d9340e91"
	if got := hex.EncodeToString(sha256sum(blob)); got != want {
		t.Fatalf("payload hash %s, want %s — compressed format drifted", got, want)
	}
	// And with the DEFLATE stage on (stable for the Go release in go.mod;
	// pinned to catch accidental level/stage changes, not stdlib drift).
	blob, _, err = CompressBlocks(blocks, Options{ErrorBound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	const wantLossless = "fe1b54c2108ac2146eb874f8c924fc66dc1ac47da55cbfb5e9bde74bf9366d7c"
	if got := hex.EncodeToString(sha256sum(blob)); got != wantLossless {
		t.Fatalf("lossless payload hash %s, want %s — compressed format drifted", got, wantLossless)
	}
}

func sha256sum(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:]
}

// TestPoolConcurrentReuse hammers the Encoder/Decoder pools from many
// goroutines (run with -race): every borrowed engine must produce the
// reference payload and a bound-respecting round trip regardless of what
// the previous borrower left in its scratch.
func TestPoolConcurrentReuse(t *testing.T) {
	opts := Options{ErrorBound: 0.05}
	payloads := make([][]*grid.Grid3[float32], 4)
	refs := make([][]byte, len(payloads))
	for i := range payloads {
		payloads[i] = testBlocks(3+2*i, 4+i, int64(100+i))
		var err error
		refs[i], _, err = CompressBlocks(payloads[i], opts)
		if err != nil {
			t.Fatal(err)
		}
	}

	var encs EncoderPool[float32]
	var decs DecoderPool[float32]
	const goroutines, iters = 8, 6
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				pi := (g + it) % len(payloads)
				enc := encs.Get()
				blob, _, err := enc.CompressBlocks(payloads[pi], opts)
				encs.Put(enc)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(blob, refs[pi]) {
					errCh <- fmt.Errorf("goroutine %d iter %d: payload %d differs after pool reuse", g, it, pi)
					return
				}
				dec := decs.Get()
				got, err := dec.DecompressBlocks(blob)
				decs.Put(dec)
				if err != nil {
					errCh <- err
					return
				}
				for b, gb := range got {
					for j := range gb.Data {
						if diff := math.Abs(float64(gb.Data[j]) - float64(payloads[pi][b].Data[j])); diff > opts.ErrorBound+1e-9 {
							errCh <- fmt.Errorf("goroutine %d iter %d: block %d cell %d error %g exceeds bound", g, it, b, j, diff)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestExtractCodes checks the entropy-stage-only decode: every payload
// kind yields exactly one quantization code per value, with literal
// markers (code 0) matching the reported literal count.
func TestExtractCodes(t *testing.T) {
	blocks := testBlocks(6, 6, 3)
	for _, disable := range []bool{false, true} {
		blob, st, err := CompressBlocks(blocks, Options{ErrorBound: 0.05, DisableLossless: disable})
		if err != nil {
			t.Fatal(err)
		}
		codes, err := ExtractCodes(blob)
		if err != nil {
			t.Fatalf("ExtractCodes(lossless=%v): %v", !disable, err)
		}
		if len(codes) != st.N {
			t.Fatalf("lossless=%v: %d codes for %d values", !disable, len(codes), st.N)
		}
		zeros := 0
		for _, c := range codes {
			if c == 0 {
				zeros++
			}
		}
		if zeros != st.Literals {
			t.Fatalf("lossless=%v: %d literal markers, stats say %d", !disable, zeros, st.Literals)
		}
	}
	if _, err := ExtractCodes([]byte("not a payload")); err == nil {
		t.Fatal("ExtractCodes accepted garbage")
	}
}

// TestStatsElemBytes checks that Ratio accounts for the true element width:
// a float64 stream of the same values must report (about) twice the ratio
// of its float32 twin, not the same number.
func TestStatsElemBytes(t *testing.T) {
	n := 4096
	v32 := make([]float32, n)
	v64 := make([]float64, n)
	for i := range v32 {
		v := math.Sin(float64(i) / 50)
		v32[i] = float32(v)
		v64[i] = v
	}
	_, st32, err := Compress1D(v32, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	_, st64, err := Compress1D(v64, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if st32.ElemBytes != 4 || st64.ElemBytes != 8 {
		t.Fatalf("ElemBytes = %d/%d, want 4/8", st32.ElemBytes, st64.ElemBytes)
	}
	if st64.Ratio() < 1.5*st32.Ratio() {
		t.Fatalf("float64 ratio %.2f not ~2x float32 ratio %.2f", st64.Ratio(), st32.Ratio())
	}
}

// TestEncoderAllPaths round-trips the non-batch entry points through the
// pooled engine.
func TestEncoderAllPaths(t *testing.T) {
	enc := NewEncoder[float32]()
	dec := NewDecoder[float32]()

	vals := make([]float32, 2000)
	for i := range vals {
		vals[i] = float32(math.Cos(float64(i) / 30))
	}
	for round := 0; round < 2; round++ { // second round exercises warm scratch
		blob, _, err := enc.Compress1D(vals, Options{ErrorBound: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decompress1D(blob)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(float64(got[i])-float64(vals[i])) > 1e-3 {
				t.Fatalf("round %d: 1D cell %d out of bound", round, i)
			}
		}

		g := grid.NewCube[float32](12)
		for i := range g.Data {
			g.Data[i] = vals[i%len(vals)]
		}
		blob3, _, err := enc.Compress3D(g, Options{ErrorBound: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		got3, err := dec.Decompress3D(blob3)
		if err != nil {
			t.Fatal(err)
		}
		if got3.Dim != g.Dim {
			t.Fatalf("round %d: 3D dims %v, want %v", round, got3.Dim, g.Dim)
		}
		for i := range got3.Data {
			if math.Abs(float64(got3.Data[i])-float64(g.Data[i])) > 1e-3 {
				t.Fatalf("round %d: 3D cell %d out of bound", round, i)
			}
		}
	}
}
