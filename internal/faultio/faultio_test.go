package faultio

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"
)

// Compose returns a plan that injects the first fault any of the given
// plans scripts for a call. Every plan is evaluated (so their internal
// counters advance in step), but only the first non-nil fault applies.
func Compose(plans ...Plan) Plan {
	return func(call int64, off int64, n int) *Fault {
		var hit *Fault
		for _, p := range plans {
			if ft := p(call, off, n); ft != nil && hit == nil {
				hit = ft
			}
		}
		return hit
	}
}

var errInjected = errors.New("injected I/O error")

func backing() *bytes.Reader {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	return bytes.NewReader(data)
}

func TestPassThroughWithoutPlan(t *testing.T) {
	f := New(backing())
	p := make([]byte, 16)
	n, err := f.ReadAt(p, 32)
	if n != 16 || err != nil {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	for i, b := range p {
		if b != byte(32+i) {
			t.Fatalf("byte %d = %#x, want %#x", i, b, 32+i)
		}
	}
	if f.Calls() != 1 || f.Faults() != 0 {
		t.Fatalf("calls %d faults %d, want 1/0", f.Calls(), f.Faults())
	}
}

func TestFailFirstHeals(t *testing.T) {
	f := New(backing())
	// Burn some clean calls first: FailFirst counts from plan install.
	p := make([]byte, 4)
	for i := 0; i < 3; i++ {
		if _, err := f.ReadAt(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	f.SetPlan(FailFirst(2, errInjected))
	for i := 0; i < 2; i++ {
		if _, err := f.ReadAt(p, 0); !errors.Is(err, errInjected) {
			t.Fatalf("call %d after arming: err = %v, want injected", i, err)
		}
	}
	if _, err := f.ReadAt(p, 0); err != nil {
		t.Fatalf("plan did not heal: %v", err)
	}
	if f.Faults() != 2 {
		t.Fatalf("faults = %d, want 2", f.Faults())
	}
}

func TestFailTouching(t *testing.T) {
	f := New(backing())
	f.SetPlan(FailTouching(100, 110, errInjected))
	p := make([]byte, 16)
	if _, err := f.ReadAt(p, 0); err != nil {
		t.Fatalf("read outside the bad range failed: %v", err)
	}
	if _, err := f.ReadAt(p, 96); !errors.Is(err, errInjected) {
		t.Fatalf("read overlapping the bad range: err = %v", err)
	}
	if _, err := f.ReadAt(p, 110); err != nil {
		t.Fatalf("read starting at hi failed: %v", err)
	}
}

func TestFlipByteLeavesBackingIntact(t *testing.T) {
	f := New(backing())
	f.SetPlan(FlipByte(40, 0xFF))
	p := make([]byte, 16)
	if _, err := f.ReadAt(p, 32); err != nil {
		t.Fatal(err)
	}
	if p[8] != byte(40)^0xFF {
		t.Fatalf("byte at offset 40 = %#x, want flipped", p[8])
	}
	if p[7] != byte(39) || p[9] != byte(41) {
		t.Fatal("flip bled into neighboring bytes")
	}
	// A read not covering the offset is clean.
	if _, err := f.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if p[0] != 0 {
		t.Fatalf("clean read returned %#x", p[0])
	}
}

func TestShortRead(t *testing.T) {
	f := New(backing())
	f.SetPlan(func(int64, int64, int) *Fault { return &Fault{Short: 6} })
	p := make([]byte, 16)
	n, err := f.ReadAt(p, 0)
	if n != 10 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short read = %d, %v; want 10, ErrUnexpectedEOF", n, err)
	}
}

func TestDelayUsesInjectedClock(t *testing.T) {
	f := New(backing())
	var slept []time.Duration
	f.Sleep = func(d time.Duration) { slept = append(slept, d) }
	f.SetPlan(Delay(50 * time.Millisecond))
	p := make([]byte, 4)
	if _, err := f.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 50*time.Millisecond {
		t.Fatalf("slept %v, want one 50ms stall", slept)
	}
}

func TestCompose(t *testing.T) {
	f := New(backing())
	f.SetPlan(Compose(
		FailFirst(1, errInjected),
		FlipByte(2, 0x01),
	))
	p := make([]byte, 4)
	if _, err := f.ReadAt(p, 0); !errors.Is(err, errInjected) {
		t.Fatalf("first call: err = %v, want injected (first plan wins)", err)
	}
	if _, err := f.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if p[2] != byte(2)^0x01 {
		t.Fatal("second plan's flip not applied after the first healed")
	}
}

func TestDelayRespectsContext(t *testing.T) {
	f := New(backing())
	f.SetPlan(Delay(10 * time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	f.SetContext(ctx)
	start := time.Now()
	p := make([]byte, 4)
	_, err := f.ReadAt(p, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delayed read under expired context = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("read slept %v of a 10s injected stall; context should cut it short", el)
	}
	// Disarming the context restores plain sleeps (through the clean path
	// here: plan off, no delay at all).
	f.SetContext(nil)
	f.SetPlan(nil)
	if _, err := f.ReadAt(p, 0); err != nil {
		t.Fatalf("clean read after disarm: %v", err)
	}
}
