package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// side is what one -out file says about one workload × metric: the value
// of every run in the file and the within-run spread of each.
type side struct {
	values []float64
	inRun  []float64
}

// center and spread: across runs when the file holds several, otherwise
// the lone run's value and its own sub-window spread.
func (s side) center() float64 { return median(s.values) }

func (s side) spread() float64 {
	if len(s.values) > 1 {
		return iqr(s.values)
	}
	return median(s.inRun)
}

// readResults groups the untraced runs of an -out file by workload and
// end-to-end metric.
func readResults(path string) (map[string]map[string]*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string]*side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res runResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if res.Trace {
			continue
		}
		if out[res.Workload] == nil {
			out[res.Workload] = map[string]*side{}
		}
		for name, v := range res.Metrics {
			s := out[res.Workload][name]
			if s == nil {
				s = &side{}
				out[res.Workload][name] = s
			}
			s.values = append(s.values, v.Value)
			s.inRun = append(s.inRun, v.IQR)
		}
	}
	return out, sc.Err()
}

// verdict judges B against A for one metric. worse and better need the
// medians to differ by more than the bound; a spread wider than the bound
// on either side leaves the pair unresolved instead of within-bound.
func verdict(d metricDef, a, b side) string {
	base := a.center()
	if base == 0 {
		return "unresolved"
	}
	change := (b.center() - base) / base
	if d.Better == "higher" {
		change = -change
	}
	// change > 0 now means B is worse.
	switch {
	case change > d.Bound:
		return "worse"
	case max(a.spread(), b.spread())/base > d.Bound:
		return "unresolved"
	case -change > d.Bound:
		return "better"
	}
	return "within-bound"
}

// compareFiles prints one row per workload × end-to-end metric and
// reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s\nB = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-15s %-16s %12s %10s %12s %10s  %-22s %s\n", "workload", "metric", "median A", "IQR A", "median B", "IQR B", "B/A (base A)", "verdict")
	anyWorse := false
	for _, wl := range workloads {
		for _, d := range endToEnd {
			sa, sb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if sa == nil || sb == nil {
				if sa != nil || sb != nil {
					fmt.Fprintf(w, "%-15s %-16s present in one file only\n", wl.Name, d.Name)
				}
				continue
			}
			v := verdict(d, *sa, *sb)
			anyWorse = anyWorse || v == "worse"
			rel := fmt.Sprintf("%.4f (%.5g %s)", ratio(sb.center(), sa.center()), sa.center(), d.Unit)
			fmt.Fprintf(w, "%-15s %-16s %12.5g %10.3g %12.5g %10.3g  %-22s %s\n",
				wl.Name, d.Name, sa.center(), sa.spread(), sb.center(), sb.spread(), rel, v)
		}
	}
	return anyWorse, nil
}
