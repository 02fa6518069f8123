package main

import (
	"runtime"
	"sync"
	"time"
)

// This sandbox's speed wanders by a fifth either way, in phases that last
// from seconds to many minutes: the same code, burning the same CPU time,
// moves 145 MB/s in one minute and 210 MB/s in another (README has the
// traces). No statistic taken inside a run removes that — a run sits
// inside one phase — so the timings are calibrated instead: a fixed kernel
// that touches no product code runs between the slices of every measured
// window, and each slice's time is scaled by how fast the kernel ran around
// it. What comes out is the time the slice would have taken on a machine
// on which the kernel takes its reference time; the wander divides out
// (round time ÷ kernel time spread 2–4 % over windows whose round times
// spread 8–13 %), a change to the product does not, because the kernel
// never runs product code. This file holds the kernel for codec work;
// serve.go has the one for HTTP over the loopback.

// referenceProbe is the calibration kernel's time on the reference machine:
// what this sandbox needs for it between the slices of a workload, caches
// full of the workload's data, in an ordinary minute on two cores (alone in
// the process it needs 14 ms). Calibrated timings are those of a machine
// of exactly that speed, so they read about as the raw ones do here.
const referenceProbe = 22 * time.Millisecond

// probeValues is the length of each goroutine's arrays: 12 MB in and 12 MB
// out, past the 4 MiB L2 and into the shared L3 and memory, where the
// codec's grids live too.
const probeValues = 3 << 20

// calibrator holds the kernel's arrays, one set per core: the workloads
// run codec workers and clients on every core, so the kernel does too.
type calibrator struct {
	in, out [][]float32
	hist    [][1024]int32
	sink    float32
}

var theCalibrator = sync.OnceValue(func() *calibrator {
	n := runtime.GOMAXPROCS(0)
	c := &calibrator{in: make([][]float32, n), out: make([][]float32, n), hist: make([][1024]int32, n)}
	for k := range c.in {
		c.in[k], c.out[k] = make([]float32, probeValues), make([]float32, probeValues)
		x := uint32(12345 + k)
		for i := range c.in[k] {
			x = x*1664525 + 1013904223
			c.in[k][i] = float32(x>>8) / (1 << 24)
		}
	}
	return c
})

// codecKernel runs the calibration kernel once on every core and returns
// the machine's speed relative to the reference machine: 1 there, 0.8 where
// the kernel takes a quarter longer. The kernel is the shape of the codec's
// own work: a predict-quantise-histogram pass that streams two arrays, then
// a reconstruction whose every value waits for the one before it.
func codecKernel() float64 {
	c := theCalibrator()
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]float32, len(c.in))
	for k := range c.in {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			in, out, h := c.in[k], c.out[k], &c.hist[k]
			const stride = 128
			for i := stride; i < len(in); i++ {
				pred := 0.5 * (in[i-1] + in[i-stride])
				q := int32((in[i]-pred)*512) + 512
				h[q&1023]++
				out[i] = float32(q-512) / 512
			}
			var acc float32
			for _, d := range out {
				acc = acc*0.5 + d
			}
			sums[k] = acc
		}(k)
	}
	wg.Wait()
	for _, s := range sums {
		c.sink += s
	}
	return float64(referenceProbe) / float64(time.Since(start))
}

// calibratedSteps times set-up work, one step after another with a probe
// before the first and after each: the same chain a measured window is,
// for work that runs once.
type calibratedSteps struct {
	last float64 // machine speed by the probe that followed the latest step
}

// step runs fn and returns its wall time in seconds scaled to the
// reference machine.
func (c *calibratedSteps) step(fn func()) float64 {
	if c.last == 0 {
		c.last = codecKernel()
	}
	start := time.Now()
	fn()
	wall := time.Since(start)
	before := c.last
	c.last = codecKernel()
	return wall.Seconds() * (before + c.last) / 2
}
