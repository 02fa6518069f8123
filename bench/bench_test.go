package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestRegistryMatchesBenchmarkJSON holds BENCHMARK.json and the code's
// registry to the same workloads, names, units, directions and bounds.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the registry %+v", i, b.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) {
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the registry %d", kind, len(js), len(defs))
		}
		for i, d := range defs {
			j := js[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the registry %s/%s/%s", kind, i, j.Name, j.Unit, j.Better, d.Name, d.Unit, d.Better)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s metric %q (unit %q) breaks the naming rules", kind, d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s metric %s: better is %q", kind, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("name %s is used twice", d.Name)
			}
			seen[d.Name] = true
			switch {
			case bounded && (j.Bound == nil || *j.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the registry, want the same in (0, 0.25]", kind, d.Name, j.Bound, d.Bound)
			case !bounded && j.Bound != nil:
				t.Errorf("per-layer metric %s carries a bound", d.Name)
			}
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd, true)
	check("per-layer", b.PerLayer, perLayer, false)
	if find(endToEnd, "setup_s").Unit != "s" {
		t.Error("setup_s must be reported in seconds")
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
}

// TestQuickRun runs every workload in quick mode, untraced and traced, and
// checks that each run emits exactly the metrics the registry names, all
// finite, the end-to-end ones non-zero, with no failed operation. It never
// looks at a timing's size, so it cannot depend on the machine.
func TestQuickRun(t *testing.T) {
	shared, err := generateCorpus(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 3, seconds: 0.4, trace: trace, quick: true}
			res, err := runWorkload(cfg, shared, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, the registry names %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.Name, trace, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, d.Name, v.Value)
				case v.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", w.Name, trace, d.Name, v.Unit, d.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			if trace {
				checkBypasses(t, w.Name, res)
			}
		}
	}
}

// checkBypasses holds each workload to the layers it is meant to exercise
// and to bypass — counts only, never timings.
func checkBypasses(t *testing.T, workload string, res *runResult) {
	t.Helper()
	m := func(name string) float64 { return res.Metrics[name].Value }
	zero := func(names ...string) {
		for _, n := range names {
			if m(n) != 0 {
				t.Errorf("%s: %s = %v, want 0 (layer bypassed)", workload, n, m(n))
			}
		}
	}
	positive := func(names ...string) {
		for _, n := range names {
			if m(n) <= 0 {
				t.Errorf("%s: %s = %v, want > 0 (layer exercised)", workload, n, m(n))
			}
		}
	}
	switch workload {
	case "campaign_write":
		positive("preprocess.levels_opst", "preprocess.levels_akd", "preprocess.levels_gsp", "archive.sink_bytes", "sz.predict_mb_s")
		zero("server.decodes", "server.http_p99_ms", "remote.origin_requests", "remote.origin_bytes", "archive.source_reads")
	case "cold_extract":
		positive("archive.source_bytes", "archive.read_amp", "sz.decode_blocks_mb_s")
		zero("server.decodes", "server.http_p99_ms", "remote.origin_requests", "remote.origin_bytes", "archive.sink_bytes", "sz.predict_mb_s")
	case "serve_hot":
		zero("server.decodes", "server.cache_evictions", "remote.origin_bytes", "archive.sink_bytes", "sz.decode_blocks_mb_s")
		if m("server.cache_hit_ratio") < 0.99 {
			t.Errorf("serve_hot: cache hit ratio %v, want at least 0.99", m("server.cache_hit_ratio"))
		}
	case "serve_churn":
		positive("server.cache_evictions", "server.decodes", "remote.origin_bytes", "server.ingest_generation", "server.ingest_mb_s")
	}
}

// TestBrokenReferenceFails breaks the references the oracle compares
// against and expects failures to be counted: a wrong extraction and a
// wrong response body must not pass as correct.
func TestBrokenReferenceFails(t *testing.T) {
	shared, err := generateCorpus(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	rc := &runCtx{cfg: config{seed: 5, quick: true}, scale: 8, nproc: 2, tmp: t.TempDir(), shared: shared, corpus: shared}

	ex := &extractWorkload{}
	if err := ex.build(rc, shared); err != nil {
		t.Fatal(err)
	}
	for i := range ex.ops {
		ex.ops[i].wantHash++
	}
	rec := newRecorder()
	ex.measure(rc, rec, 50*time.Millisecond, nil)
	if rec.failed == 0 {
		t.Error("cold_extract: extractions that differ from the reference were not counted as failures")
	}
	res := &runResult{Attempted: rec.attempted, Failed: rec.failed}
	if res.Correct = rec.failed == 0; res.Correct {
		t.Error("a run with failures reports correct")
	}

	rc.tmp = t.TempDir()
	sv := &serveWorkload{hot: true}
	if err := sv.build(rc, shared); err != nil {
		t.Fatal(err)
	}
	defer sv.teardown()
	q := sv.reqs["level"][0]
	q.wantCRC++
	rec = newRecorder()
	(&caller{w: sv}).get(rec, &q, true)
	if rec.failed != 1 {
		t.Errorf("serve_hot: a body that differs from the reference counted %d failures, want 1", rec.failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughputs ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range throughputs {
			res := &runResult{Workload: "cold_extract", Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"throughput_mb_s": {Value: v, Unit: "MB/s"},
			}}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.json", 100, 101, 99, 100)
	bound := endToEnd[1].Bound
	for _, c := range []struct {
		name    string
		values  []float64
		verdict string
	}{
		{"same", []float64{100, 100.5, 99.5, 100}, "within-bound"},
		{"worse", []float64{100 * (1 - 2*bound), 100 * (1 - 2*bound)}, "worse"},
		{"better", []float64{100 * (1 + 2*bound), 100 * (1 + 2*bound)}, "better"},
		{"noisy", []float64{70, 130, 100, 85, 115}, "unresolved"},
	} {
		var out strings.Builder
		worse, err := compareFiles(&out, base, write(c.name+".json", c.values...))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), c.verdict) || worse != (c.verdict == "worse") {
			t.Errorf("%s: worse=%v, output:\n%s", c.name, worse, out.String())
		}
	}
}
