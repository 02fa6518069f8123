// Package faultio wraps an io.ReaderAt with a programmable fault plan so
// tests can drive the real archive → server stack through the failure
// modes long-lived storage actually exhibits: hard I/O errors, short
// reads, latency spikes, silent bit flips, and flaky-then-heal episodes.
//
// A Plan is a pure function from (call number, offset, length) to the
// fault to inject — nil for a clean pass-through — so fault scripts are
// deterministic, composable, and safe to evaluate from many goroutines.
// The wrapper is installed once, before the archive is opened; SetPlan
// swaps scripts atomically, letting a test open an archive cleanly and
// only then turn the storage hostile.
//
// Bit flips are applied to the returned buffer, not the backing store:
// faultio simulates a read path that corrupts data in flight (or a read
// of a rotted sector) without mutating the file, so the same wrapper can
// serve both "transient" and "persistent, offset-targeted" corruption by
// scripting which calls flip.
package faultio

import (
	"context"
	"io"
	"sync/atomic"
	"time"
)

// Fault describes what to inject into one ReadAt call. The zero value
// injects nothing; fields compose (a Delay plus an Err models a timeout
// that then fails).
type Fault struct {
	// Err, when non-nil, fails the call outright: no bytes are served.
	Err error

	// Short, when > 0, drops that many bytes from the end of the read;
	// the call returns the truncated count with io.ErrUnexpectedEOF, as
	// the io.ReaderAt contract requires of an incomplete read.
	Short int

	// Delay stalls the call before anything else happens, through the
	// wrapper's Sleep hook so tests can inject a recording clock.
	Delay time.Duration

	// FlipMask, when non-zero, XORs the byte at absolute file offset
	// FlipOffset in the returned data if the read covers it. The backing
	// store is untouched.
	FlipOffset int64
	FlipMask   byte
}

// Plan decides the fault for the call-th ReadAt (0-based, counted across
// the wrapper's lifetime) reading n bytes at off. Returning nil passes
// the call through clean. Plans are evaluated concurrently and must be
// safe for that.
type Plan func(call int64, off int64, n int) *Fault

// ReaderAt wraps R, injecting the faults its current plan scripts.
type ReaderAt struct {
	R io.ReaderAt

	// Sleep, when set, replaces time.Sleep for Delay faults.
	Sleep func(time.Duration)

	plan   atomic.Pointer[Plan]
	ctx    atomic.Pointer[context.Context]
	calls  atomic.Int64
	faults atomic.Int64
}

// New wraps r with no plan installed: every read passes through until
// SetPlan arms a script.
func New(r io.ReaderAt) *ReaderAt { return &ReaderAt{R: r} }

// SetPlan atomically installs the fault script (nil disarms). Call
// counting is not reset: plans that want "first n calls from now" keep
// their own counter, as FailFirst does.
func (f *ReaderAt) SetPlan(p Plan) {
	if p == nil {
		f.plan.Store(nil)
		return
	}
	f.plan.Store(&p)
}

// SetContext arms ctx for Delay faults: an injected stall returns early
// with ctx.Err() the moment the context is done, the way a real kernel
// read returns when the caller's deadline cancels it — so a request
// deadline test is not stuck sleeping out the full scripted latency after
// its 504 already fired. nil disarms. The Sleep hook, when set, still
// wins (recording clocks want the unshortened duration).
func (f *ReaderAt) SetContext(ctx context.Context) {
	if ctx == nil {
		f.ctx.Store(nil)
		return
	}
	f.ctx.Store(&ctx)
}

// Calls returns the number of ReadAt calls seen so far.
func (f *ReaderAt) Calls() int64 { return f.calls.Load() }

// Faults returns the number of calls a plan injected a fault into.
func (f *ReaderAt) Faults() int64 { return f.faults.Load() }

func (f *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	call := f.calls.Add(1) - 1
	var ft *Fault
	if pp := f.plan.Load(); pp != nil {
		ft = (*pp)(call, off, len(p))
	}
	if ft == nil {
		return f.R.ReadAt(p, off)
	}
	f.faults.Add(1)
	if ft.Delay > 0 {
		switch {
		case f.Sleep != nil:
			f.Sleep(ft.Delay)
		default:
			var done <-chan struct{}
			if cp := f.ctx.Load(); cp != nil {
				done = (*cp).Done()
			}
			if done == nil {
				time.Sleep(ft.Delay)
				break
			}
			t := time.NewTimer(ft.Delay)
			select {
			case <-t.C:
			case <-done:
				t.Stop()
				return 0, (*f.ctx.Load()).Err()
			}
			t.Stop()
		}
	}
	if ft.Err != nil {
		return 0, ft.Err
	}
	want := len(p)
	if ft.Short > 0 {
		want -= ft.Short
		if want < 0 {
			want = 0
		}
	}
	n, err := f.R.ReadAt(p[:want], off)
	if ft.FlipMask != 0 && ft.FlipOffset >= off && ft.FlipOffset < off+int64(n) {
		p[ft.FlipOffset-off] ^= ft.FlipMask
	}
	if err == nil && want < len(p) {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// FailFirst returns a plan that fails the next n calls it sees with err,
// then heals — the flaky-then-heal script retry logic is tested against.
// The counter starts when the plan is evaluated, not when the wrapper was
// created, so it composes with a clean open phase.
func FailFirst(n int64, err error) Plan {
	var seen atomic.Int64
	return func(int64, int64, int) *Fault {
		if seen.Add(1) <= n {
			return &Fault{Err: err}
		}
		return nil
	}
}

// FailTouching returns a plan that fails every read overlapping the byte
// range [lo, hi) with err — a bad sector that never heals.
func FailTouching(lo, hi int64, err error) Plan {
	return func(_ int64, off int64, n int) *Fault {
		if off < hi && off+int64(n) > lo {
			return &Fault{Err: err}
		}
		return nil
	}
}

// FlipByte returns a plan that XORs mask into the byte at absolute file
// offset off on every read covering it — persistent, targeted rot.
func FlipByte(off int64, mask byte) Plan {
	return func(_ int64, rOff int64, n int) *Fault {
		if off >= rOff && off < rOff+int64(n) {
			return &Fault{FlipOffset: off, FlipMask: mask}
		}
		return nil
	}
}

// Delay returns a plan that stalls every call by d.
func Delay(d time.Duration) Plan {
	return func(int64, int64, int) *Fault { return &Fault{Delay: d} }
}
