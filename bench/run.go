package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// config is what the command line selects.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string
}

// setupRepeats is how many times a run repeats the workload's own set-up;
// setup_s takes the median, so one slow set-up does not read as a
// regression.
const setupRepeats = 3

// sample is one completed operation of a measured window.
type sample struct {
	kind  string
	end   time.Duration // completion, since the window opened
	lat   time.Duration
	bytes int64 // raw field bytes the operation moved
	// background operations (the ingest client's in serve_churn) count
	// towards throughput but not towards the reader latency percentiles.
	background bool
}

// slice is one stretch of a measured window between two calibration
// probes. A round — the workload's fixed sequence of operations, once —
// is one or more consecutive slices; the last one closes it.
type slice struct {
	start, end  time.Duration // since the window opened
	closesRound bool
}

// recorder collects the operations of one measured window. Clients share
// it. The window is a chain probe, slice, probe, slice, …, probe: a probe
// runs the calibration kernel, speeds[i] is the machine speed it found just
// before slices[i] and speeds[i+1] just after it.
type recorder struct {
	mu        sync.Mutex
	t0        time.Time
	wall      time.Duration
	kernel    func() float64 // the calibration kernel; a workload may set its own before the first slice
	samples   []sample
	slices    []slice
	speeds    []float64
	attempted int
	failed    int
	failures  []string
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), kernel: codecKernel} }

// op records one attempted operation that ran from start until now; a
// non-nil err makes it a failure. Callers check the operation's output
// after this call, so checking never counts as latency, and turn a bad
// output into a failure with reject.
func (r *recorder) op(s sample, start time.Time, err error) {
	s.lat = time.Since(start)
	s.end = start.Add(s.lat).Sub(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(fmt.Sprintf("%s: %v", s.kind, err))
		return
	}
	r.samples = append(r.samples, s)
}

// reject turns an operation already recorded by op into a failure.
func (r *recorder) reject(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(fmt.Sprintf(format, args...))
}

// check records one correctness check that is not a timed operation.
func (r *recorder) check(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *recorder) failLocked(msg string) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, msg)
	}
}

// slice runs fn as the next slice of the window, after a calibration
// probe. Only the workload's main goroutine calls it, between the clients
// of one slice and the next.
func (r *recorder) slice(closesRound bool, fn func()) {
	speed := r.kernel()
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.mu.Lock()
	r.speeds = append(r.speeds, speed)
	r.slices = append(r.slices, slice{start, end, closesRound})
	r.mu.Unlock()
}

// close ends the window with the probe that follows its last slice.
func (r *recorder) close() {
	r.speeds = append(r.speeds, r.kernel())
	r.wall = time.Since(r.t0)
}

// busy is the time the window spent in slices, probes left out.
func (r *recorder) busy() time.Duration {
	var d time.Duration
	for _, sl := range r.slices {
		d += sl.end - sl.start
	}
	return d
}

// speed is the machine's speed over slice i, from the probes either side.
func (r *recorder) speed(i int) float64 { return (r.speeds[i] + r.speeds[i+1]) / 2 }

// calibratedStats scales every slice to the reference machine and returns
// the throughput of each complete round in MB/s, the latency in ms of
// every foreground operation, and each complete round's own median and
// 95th-percentile latency. An operation belongs to the slice it ended in;
// one that ended outside every slice — serve_churn's first ingest, which
// starts before the first probe — belongs to none.
func (r *recorder) calibratedStats() (roundMBs, lats, roundP50s, roundP95s []float64) {
	bytes := make([]int64, len(r.slices))
	sliceLats := make([][]float64, len(r.slices))
	for _, s := range r.samples {
		i := sort.Search(len(r.slices), func(i int) bool { return r.slices[i].end >= s.end })
		if i == len(r.slices) || r.slices[i].start > s.end {
			continue
		}
		bytes[i] += s.bytes
		if !s.background {
			sliceLats[i] = append(sliceLats[i], ms(s.lat)*r.speed(i))
		}
	}
	var roundBytes int64
	var roundTime time.Duration
	var roundLats []float64
	for i, sl := range r.slices {
		roundBytes += bytes[i]
		roundTime += time.Duration(float64(sl.end-sl.start) * r.speed(i))
		roundLats = append(roundLats, sliceLats[i]...)
		if !sl.closesRound {
			continue
		}
		roundMBs = append(roundMBs, mbPerS(roundBytes, roundTime))
		roundP50s = append(roundP50s, percentile(roundLats, 50))
		roundP95s = append(roundP95s, percentile(roundLats, 95))
		lats = append(lats, roundLats...)
		roundBytes, roundTime, roundLats = 0, 0, nil
	}
	return roundMBs, lats, roundP50s, roundP95s
}

// latencies returns the latencies in ms of one kind of operation, or,
// for the empty kind, of every foreground operation.
func (r *recorder) latencies(kind string) []float64 {
	var vs []float64
	for _, s := range r.samples {
		if s.kind == kind || (kind == "" && !s.background) {
			vs = append(vs, ms(s.lat))
		}
	}
	return vs
}

// kindRate is bytes over summed latency of one kind of operation, MB/s.
func (r *recorder) kindRate(kind string) float64 {
	var b int64
	var d time.Duration
	for _, s := range r.samples {
		if s.kind == kind {
			b += s.bytes
			d += s.lat
		}
	}
	return mbPerS(b, d)
}

func (r *recorder) totalBytes() int64 {
	var b int64
	for _, s := range r.samples {
		b += s.bytes
	}
	return b
}

// metricValue is one reported number. IQR is the spread of the sub-window
// values behind a median (0 for exact counts) and N their count.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	IQR   float64 `json:"iqr,omitempty"`
	N     int     `json:"n,omitempty"`
}

// runResult is one run of one workload; -out appends it as a JSON line
// and -compare reads such lines back.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workload is what the four workloads implement. build is the workload's
// own set-up on a generated corpus and runs setupRepeats times, each
// followed by teardown except the last; measure runs one closed-loop
// window, with the wrappers armed when tc is non-nil.
type workload interface {
	build(rc *runCtx, c *corpus) error
	teardown()
	measure(rc *runCtx, rec *recorder, dur time.Duration, tc *traceCounters)
	// verify runs the checks that belong outside the measured window and
	// returns the workload's stored ratio and PSNR.
	verify(rc *runCtx, rec *recorder) (storedRatio, psnrDB float64)
	// replay re-executes the stages of the workload's operations under
	// spans until budget is spent.
	replay(rc *runCtx, rp *replayer, budget time.Duration) error
	// layerMetrics adds the per-layer numbers only this workload knows
	// (cache and ingest counters, per-kind rates of the traced window).
	layerMetrics(rc *runCtx, traced *recorder, out map[string]float64)
}

func newWorkload(name string) workload {
	switch name {
	case "campaign_write":
		return &writeWorkload{}
	case "cold_extract":
		return &extractWorkload{}
	case "serve_hot":
		return &serveWorkload{hot: true}
	case "serve_churn":
		return &serveWorkload{}
	}
	return nil
}

// runCtx is the environment one run of one workload executes in.
type runCtx struct {
	cfg    config
	scale  int
	nproc  int
	outDir string  // where span files go
	tmp    string  // scratch directory under outDir, removed when the run ends
	shared *corpus // generated once by the caller (all-workloads and quick modes)
	corpus *corpus // the corpus of the last set-up
}

// setup generates the corpus once (unless the caller shares one) and runs
// the workload's own build setupRepeats times. It returns one set-up time
// per build: the corpus's generation time plus that build's, both scaled
// to the reference machine. Generation is sim code, a second and more of
// it per snapshot, and is not worth repeating; the builds are where
// product code runs before the window opens, and their median is what
// keeps setup_s steady.
func (rc *runCtx) setup(w workload) ([]float64, error) {
	rc.corpus = rc.shared
	if rc.corpus == nil {
		var err error
		if rc.corpus, err = generateCorpus(rc.scale, rc.cfg.seed); err != nil {
			return nil, err
		}
	}
	repeats := setupRepeats
	if rc.cfg.quick || rc.cfg.trace {
		repeats = 1
	}
	var secs []float64
	var steps calibratedSteps
	for i := 0; i < repeats; i++ {
		if i > 0 {
			w.teardown()
		}
		var err error
		buildS := steps.step(func() { err = w.build(rc, rc.corpus) })
		if err != nil {
			return nil, err
		}
		secs = append(secs, rc.corpus.genS+buildS)
	}
	return secs, nil
}

// runWorkload runs one workload and returns its result.
func runWorkload(cfg config, shared *corpus, outDir string) (*runResult, error) {
	w := newWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	tmp, err := os.MkdirTemp(outDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	rc := &runCtx{cfg: cfg, scale: 4, nproc: runtime.GOMAXPROCS(0), outDir: outDir, tmp: tmp, shared: shared}
	if cfg.quick {
		rc.scale = 8
	}
	setupS, err := rc.setup(w)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	defer w.teardown()

	res := &runResult{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]metricValue{}}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var rec *recorder
	if !cfg.trace {
		rec = newRecorder()
		w.measure(rc, rec, dur, nil)
		stored, psnr := w.verify(rc, rec)
		endToEndMetrics(res, rec, setupS, stored, psnr)
	} else {
		rec = tracedRun(rc, w, dur, res)
	}
	res.Attempted, res.Failed, res.Failures = rec.attempted, rec.failed, rec.failures
	res.Correct = rec.failed == 0 && rec.attempted > 0
	return res, nil
}

// endToEndMetrics fills the end-to-end metrics from an untraced window.
//
// The four timings are calibrated (calibrate.go): scaled, slice by slice,
// to a machine on which the calibration kernel takes its reference time.
// Throughput is the median over rounds; the two latencies are percentiles
// over every operation of every complete round, so that the 95th has
// dozens of samples beyond it whatever the length of a round. The spread
// printed beside each is the quartile distance over rounds.
func endToEndMetrics(res *runResult, rec *recorder, setupS []float64, stored, psnr float64) {
	mbs, lats, p50s, p95s := rec.calibratedStats()
	put := func(name string, v, spread float64, n int) {
		res.Metrics[name] = metricValue{Value: v, Unit: find(endToEnd, name).Unit, IQR: spread, N: n}
	}
	put("setup_s", median(setupS), iqr(setupS), len(setupS))
	put("throughput_mb_s", median(mbs), iqr(mbs), len(mbs))
	put("op_p50_ms", percentile(lats, 50), iqr(p50s), len(p50s))
	put("op_p95_ms", percentile(lats, 95), iqr(p95s), len(p95s))
	put("stored_ratio", stored, 0, 1)
	put("psnr_db", psnr, 0, 1)
}
