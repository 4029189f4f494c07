// Command compare judges a change against its parent from two sets of
// perfbench runs. Each set is a directory of files (or a single file)
// holding perfbench standard output; a file may hold several runs.
//
//	cd perfbench && go run ./compare -manifest ../BENCHMARK.json ../parent-runs ../change-runs
//
// Runs pair up in file-name order within each workload. For every metric
// of every workload it prints one verdict:
//
//   - improved: the change wins at least 9 in 10 pairs and the medians
//     differ by more than the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound (per-layer metrics, which have no bound: the
//     parent wins 9 in 10 pairs and the medians differ by more than the
//     parent's interquartile range);
//   - unresolved: neither, and the parent's own spread is wider than the
//     bound, unless every change run reads better than every parent run
//     (per-layer metrics: neither improved nor worse);
//   - no worse: otherwise.
//
// Quartiles are Python's statistics.quantiles(values, n=4) (the exclusive
// method). compare exits 1 when any end-to-end metric is worse.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// runSet maps workload/trace to metric to the values of successive runs.
type runSet map[string]map[string][]float64

func main() {
	manifestPath := flag.String("manifest", "BENCHMARK.json", "the benchmark manifest (metric bounds and directions)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-manifest BENCHMARK.json] PARENT CHANGE")
		os.Exit(2)
	}
	code, err := compare(*manifestPath, flag.Arg(0), flag.Arg(1), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func compare(manifestPath, parentPath, changePath string, out io.Writer) (int, error) {
	b, err := os.ReadFile(manifestPath)
	if err != nil {
		return 0, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return 0, fmt.Errorf("%s: %w", manifestPath, err)
	}
	parent, err := load(parentPath)
	if err != nil {
		return 0, err
	}
	change, err := load(changePath)
	if err != nil {
		return 0, err
	}
	code := 0
	var keys []string
	for k := range parent {
		if _, ok := change[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return 0, fmt.Errorf("no workload has runs in both sets")
	}
	for _, key := range keys {
		fmt.Fprintf(out, "%s\n", key)
		for _, group := range []struct {
			defs     []metricDef
			endToEnd bool
		}{{m.EndToEnd, true}, {m.PerLayer, false}} {
			for _, def := range group.defs {
				p, c := parent[key][def.Name], change[key][def.Name]
				if len(p) == 0 || len(c) == 0 {
					continue
				}
				v := judge(def, p, c)
				if v.verdict == "worse" && group.endToEnd {
					code = 1
				}
				fmt.Fprintf(out, "  %-34s %-10s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  wins %d/%d  %s\n",
					def.Name, v.verdict, v.pMed, v.pQ[0], v.pQ[2], v.cMed, v.cQ[0], v.cQ[2], v.wins, v.pairs, def.Unit)
			}
		}
	}
	return code, nil
}

type verdict struct {
	verdict     string
	pMed, cMed  float64
	pQ, cQ      [3]float64
	wins, pairs int
}

// judge applies the verdict rules in the package comment.
func judge(def metricDef, p, c []float64) verdict {
	v := verdict{pQ: quartiles(p), cQ: quartiles(c)}
	v.pMed, v.cMed = v.pQ[1], v.cQ[1]
	lower := def.Better == "lower"
	better := func(a, b float64) bool { // a reads better than b
		if lower {
			return a < b
		}
		return a > b
	}
	losses := 0
	v.pairs = min(len(p), len(c))
	for i := 0; i < v.pairs; i++ {
		switch {
		case better(c[i], p[i]):
			v.wins++
		case better(p[i], c[i]):
			losses++
		}
	}
	gain := v.cMed - v.pMed
	if lower {
		gain = -gain
	}
	iqr := v.pQ[2] - v.pQ[0]
	switch {
	case 10*v.wins >= 9*v.pairs && gain > iqr:
		v.verdict = "improved"
	case def.Bound != nil && -gain > *def.Bound*math.Abs(v.pMed):
		v.verdict = "worse"
	case def.Bound == nil && 10*losses >= 9*v.pairs && -gain > iqr:
		v.verdict = "worse"
	case def.Bound == nil:
		v.verdict = "unresolved"
	case iqr > *def.Bound*math.Abs(v.pMed) && !allBetter(c, p, better):
		v.verdict = "unresolved"
	default:
		v.verdict = "no worse"
	}
	return v
}

func allBetter(c, p []float64, better func(a, b float64) bool) bool {
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method); with
// one value all three are that value.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// load reads every perfbench run under path: a provenance line
// {"perfbench": {...}} followed by the result line.
func load(path string) (runSet, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
	}
	set := runSet{}
	for _, f := range files {
		if err := loadFile(f, set); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return set, nil
}

func loadFile(path string, set runSet) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	key := ""
	for sc.Scan() {
		line := sc.Bytes()
		var prov struct {
			Perfbench *struct {
				Workload string `json:"workload"`
				Trace    int    `json:"trace"`
			} `json:"perfbench"`
		}
		if json.Unmarshal(line, &prov) == nil && prov.Perfbench != nil {
			key = fmt.Sprintf("%s trace=%d", prov.Perfbench.Workload, prov.Perfbench.Trace)
			continue
		}
		var res struct {
			Correct *bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if json.Unmarshal(line, &res) != nil || res.Correct == nil || key == "" {
			continue
		}
		if !*res.Correct {
			return fmt.Errorf("a %s run failed its output checks", key)
		}
		if set[key] == nil {
			set[key] = map[string][]float64{}
		}
		for name, mv := range res.Metrics {
			set[key][name] = append(set[key][name], mv.Value)
		}
		key = ""
	}
	return sc.Err()
}
