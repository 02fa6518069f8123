// Command bench is the repository's benchmark: four workloads over the
// TAC codec, the TACA archive and the tacd serving layer, end-to-end
// metrics with regression bounds, and per-layer metrics — taken from
// outside the program, by wrapping the interfaces the layers accept and
// replaying each operation's stages — that explain them. README.md in
// this directory is the manual; BENCHMARK.json at the repository root is
// the contract.
//
//	go run -C bench repro/bench -workload cold_extract -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var cfg config
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: campaign_write, cold_extract, serve_hot, serve_churn, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the corpus and of every request sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.quick, "quick", false, "scale-8 corpus and one set-up: a smoke run, not a measurement")
	flag.StringVar(&cfg.out, "out", "", "append each run's full result to this file, one JSON object per line")
	flag.BoolVar(&compare, "compare", false, "compare two -out files given as arguments: A.json B.json")
	flag.Parse()
	cfg.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files, got %d", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	ok, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run executes the selected workloads and prints their results; the last
// line of standard output is the result as one JSON object. It reports
// whether every operation and check succeeded.
func run(cfg config) (bool, error) {
	// Scratch files live under the working directory, never outside the
	// checkout.
	if err := os.MkdirAll("out", 0o755); err != nil {
		return false, err
	}
	names := []string{cfg.workload}
	var shared *corpus
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		scale := 4
		if cfg.quick {
			scale = 8
		}
		var err error
		if shared, err = generateCorpus(scale, cfg.seed); err != nil {
			return false, err
		}
	}
	ok := true
	var last []byte
	all := map[string]json.RawMessage{}
	for _, name := range names {
		wcfg := cfg
		wcfg.workload = name
		res, err := runWorkload(wcfg, shared, "out")
		if err != nil {
			return false, err
		}
		printResult(res)
		if cfg.out != "" {
			if err := appendResult(cfg.out, res); err != nil {
				return false, err
			}
		}
		ok = ok && res.Correct
		if last, err = json.Marshal(contractLine(res)); err != nil {
			return false, err
		}
		all[name] = last
	}
	if len(names) > 1 {
		var err error
		if last, err = json.Marshal(all); err != nil {
			return false, err
		}
	}
	fmt.Println(string(last))
	return ok, nil
}

// contractLine is the object the driver reads from the last line: exactly
// these keys, and per metric exactly value and unit.
func contractLine(res *runResult) map[string]any {
	ms := map[string]any{}
	for name, v := range res.Metrics {
		ms[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": ms}
}

// printResult prints every metric by name with its unit and, where it is
// a median over sub-windows, the spread between their quartiles.
func printResult(res *runResult) {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("== %s  seed %d  %s: %d attempted, %d failed\n", res.Workload, res.Seed, mode, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		line := fmt.Sprintf("  %-30s %14.6g %-6s", name, v.Value, v.Unit)
		if v.N > 1 {
			line += fmt.Sprintf("  IQR %.4g over %d", v.IQR, v.N)
		}
		if moves := find(perLayer, name).Moves; moves != "" {
			line += "  -> " + moves
		}
		fmt.Println(line)
	}
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
}

func appendResult(path string, res *runResult) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
