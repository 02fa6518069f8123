package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/sim"
)

// benchWarmGET times one warm identity GET of path over real loopback HTTP
// on a keep-alive connection: cache lookup, assembly and the response path,
// no codec. The client reads into one buffer, so what is measured is the
// server. Run with -cpu 1,2: at one proc client and server take turns.
func benchWarmGET(b *testing.B, path string) {
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := sim.Generate(sim.Spec{
		Name: "warm", FinestN: 128, Levels: 2, UnitBlock: 8, Seed: 5, LeafFractions: []float64{0.4, 0.6},
	}, sim.BaryonDensity)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.AddDataset(ds, codec.Config{ErrorBound: 1e9}); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	s, _ := newTestServer(b, buf.Bytes(), Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer c.CloseIdleConnections()
	var body bytes.Buffer
	do := func() {
		resp, err := c.Get(ts.URL + path)
		if err != nil {
			b.Fatal(err)
		}
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
	}
	do() // decode everything the path touches
	decodes := s.Cache().Stats().Decodes
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
	b.StopTimer()
	if n := s.Cache().Stats().Decodes - decodes; n != 0 {
		b.Fatalf("the timed GETs decoded %d frames; they were to be warm", n)
	}
}

func BenchmarkServeWarmLevel(b *testing.B) { benchWarmGET(b, "/v1/a/test/snap/0/level/0") }
func BenchmarkServeWarmROI(b *testing.B) {
	benchWarmGET(b, fmt.Sprintf("/v1/a/test/snap/0/level/0?roi=%d:%d,%d:%d,%d:%d", 16, 80, 32, 96, 0, 64))
}
func BenchmarkServeWarmAMR(b *testing.B) { benchWarmGET(b, "/v1/a/test/snap/0/amr") }
