package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runs maps "workload trace=N" to the recorded results in file order.
type runs map[string][]result

// readRuns parses a file of concatenated benchmark outputs: each run's
// "muxperf: workload=… trace=…" header line names the workload of the
// JSON result line that ends it.
func readRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	key := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "muxperf: "); ok {
			var w, trace string
			for _, field := range strings.Fields(rest) {
				if v, ok := strings.CutPrefix(field, "workload="); ok {
					w = v
				}
				if v, ok := strings.CutPrefix(field, "trace="); ok {
					trace = v
				}
			}
			key = w + " trace=" + trace
			continue
		}
		if !strings.HasPrefix(line, "{") || key == "" {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[key] = append(out[key], r)
		key = ""
	}
	return out, sc.Err()
}

// verdict applies the comparison rules to one (metric, workload) pair.
// parent[i] and change[i] are the i-th pair of alternating runs.
//
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound (end-to-end metrics only; per-layer metrics
//     have no bound and are judged by the mirror of the gain rule);
//   - improved: at least 10 pairs, the change wins at least 9 in 10 of
//     them (ties count for neither), and the medians differ in its favor
//     by more than the parent's interquartile range;
//   - unresolved: the parent's own spread exceeds the bound, unless every
//     change run beats every parent run;
//   - unchanged: none of the above.
func verdict(parent, change []float64, lowerBetter bool, bound float64, hasBound bool) (v string, wins, pairs int) {
	pairs = min(len(parent), len(change))
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	q1, pm, q3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	iqr := q3 - q1
	worse := cm - pm
	if !lowerBetter {
		worse = -worse
	}
	scale := math.Abs(pm)
	gain := func(n int) bool { return pairs >= 10 && n*10 >= 9*pairs && math.Abs(cm-pm) > iqr }
	switch {
	case hasBound && worse > bound*scale:
		v = "regressed"
	case gain(wins) && worse < 0:
		v = "improved"
	case !hasBound && gain(losses) && worse > 0:
		v = "regressed"
	case hasBound && iqr > bound*scale && !allBetter(change, parent, better):
		v = "unresolved"
	default:
		v = "unchanged"
	}
	return v, wins, pairs
}

// allBetter reports whether every run of a beats every run of b.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// runCompare prints one row per (metric, workload) present in both files
// and reports whether any end-to-end metric regressed.
func runCompare(w io.Writer, specPath, parentPath, changePath string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	type rule struct {
		lower    bool
		bound    float64
		hasBound bool
	}
	rules := map[string]rule{}
	for _, m := range sp.EndToEnd {
		rules[m.Name] = rule{m.Better == "lower", m.Bound, true}
	}
	for _, m := range sp.PerLayer {
		rules[m.Name] = rule{lower: m.Better == "lower"}
	}
	parent, err := readRuns(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return false, err
	}
	var keys []string
	for k := range parent {
		if _, ok := change[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	regressed := false
	fmt.Fprintf(w, "%-24s %-7s %-40s %12s %12s %12s %6s  %s\n",
		"workload", "trace", "metric", "parent", "parent IQR", "change", "wins", "verdict")
	for _, k := range keys {
		var names []string
		for name := range parent[k][0].Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r, ok := rules[name]
			if !ok {
				continue
			}
			pv, cv := series(parent[k], name), series(change[k], name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v, wins, pairs := verdict(pv, cv, r.lower, r.bound, r.hasBound)
			if v == "regressed" && r.hasBound {
				regressed = true
			}
			q1, pm, q3 := quartiles(pv)
			_, cm, _ := quartiles(cv)
			wl, trace, _ := strings.Cut(k, " ")
			fmt.Fprintf(w, "%-24s %-7s %-40s %12.6g %12.6g %12.6g %6s  %s\n",
				wl, trace, name, pm, q3-q1, cm, fmt.Sprintf("%d/%d", wins, pairs), v)
		}
	}
	return regressed, nil
}

// series collects one metric's values across runs.
func series(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
