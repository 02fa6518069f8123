package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/codec"
	"repro/internal/grid"
)

// TestEngineMatchesTAC checks that an Engine — fresh, zero-valued, and
// warm — produces byte-identical payloads and identical reconstructions to
// the one-shot TAC codec, serial and parallel.
func TestEngineMatchesTAC(t *testing.T) {
	ds := testDataset(t, 0.3, 11)
	cfg := codec.Config{ErrorBound: 1e9}

	ref, err := TAC{}.Compress(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRecon, err := TAC{}.Decompress(ref)
	if err != nil {
		t.Fatal(err)
	}

	var zero Engine // zero value must be usable, not just NewEngine's
	engines := []*Engine{&zero, NewEngine(0), NewEngine(-1), NewEngine(3)}
	for _, eng := range engines {
		for round := 0; round < 2; round++ { // second round runs on warm scratch
			blob, err := eng.Compress(ds, cfg)
			if err != nil {
				t.Fatalf("Workers=%d round %d: %v", eng.Workers, round, err)
			}
			if !bytes.Equal(blob, ref) {
				t.Fatalf("Workers=%d round %d: engine payload differs from TAC", eng.Workers, round)
			}
			recon, err := eng.Decompress(blob)
			if err != nil {
				t.Fatalf("Workers=%d round %d: %v", eng.Workers, round, err)
			}
			for li := range refRecon.Levels {
				if grid.MaxAbsDiff(recon.Levels[li].Grid, refRecon.Levels[li].Grid) != 0 {
					t.Fatalf("Workers=%d round %d: level %d reconstruction differs from serial TAC", eng.Workers, round, li)
				}
			}
		}
	}
}

// TestParallelDecompressMatchesSerialTAC checks the unit fan-out of
// TAC{Workers} against the serial decoder on every shape of plan.
func TestParallelDecompressMatchesSerialTAC(t *testing.T) {
	for _, c := range workerCases(t) {
		blob, err := TAC{}.Compress(c.ds, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ref, err := TAC{Workers: 1}.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, w := range workerCounts {
			got, err := TAC{Workers: w}.Decompress(blob)
			if err != nil {
				t.Fatalf("%s workers %d: %v", c.name, w, err)
			}
			for li := range ref.Levels {
				if grid.MaxAbsDiff(got.Levels[li].Grid, ref.Levels[li].Grid) != 0 {
					t.Fatalf("%s workers %d: level %d differs from serial", c.name, w, li)
				}
				if !got.Levels[li].Mask.Equal(ref.Levels[li].Mask) {
					t.Fatalf("%s workers %d: level %d mask differs", c.name, w, li)
				}
			}
		}
	}
}

// TestCorruptUnitSameErrorAtEveryWorkerCount spoils payload units in place
// and requires the error to name the level and group, and to be the same
// one whatever the worker count: which unit is reported when several are
// bad is a property of the plan, not of the schedule.
func TestCorruptUnitSameErrorAtEveryWorkerCount(t *testing.T) {
	ds := testDataset(t, 0.25, 17)
	blob, err := TAC{}.Compress(ds, codec.Config{ErrorBound: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	// The units' payloads, as slices of blob.
	sk, body, err := codec.DecodeContainer(blob, ID)
	if err != nil {
		t.Fatal(err)
	}
	var units []*unit
	r := bitio.NewReader(body)
	for li, l := range sk.NewDataset().Levels {
		p, err := split(li, l, r.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.units {
			units = append(units, &p.units[i])
		}
	}
	sparse := units[0]
	if sparse.group == nil || len(units) < 3 {
		t.Fatalf("want a sparse fine level over a second level, got %d units", len(units))
	}

	check := func(spoiled []*unit, want string) {
		t.Helper()
		for _, u := range spoiled {
			u.blob[0] ^= 0xff // the sz magic
		}
		defer func() {
			for _, u := range spoiled {
				u.blob[0] ^= 0xff
			}
		}()
		_, serial := TAC{Workers: 1}.Decompress(blob)
		if serial == nil || !strings.Contains(serial.Error(), want) {
			t.Fatalf("got %v, want an error naming %q", serial, want)
		}
		for _, w := range workerCounts {
			if _, err := (TAC{Workers: w}).Decompress(blob); err == nil || err.Error() != serial.Error() {
				t.Fatalf("workers %d: got %v, want %v", w, err, serial)
			}
		}
	}
	check([]*unit{sparse}, fmt.Sprintf("level 0 (OpST): group %v", sparse.group.Shape))
	check(units, "core: level ")
}
