package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	b := 0.1
	lower := metricDef{Name: "cpu", Better: "lower", Bound: &b}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		def    metricDef
		change []float64
		want   string
	}{
		{"clear gain", lower, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{"same", lower, []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}, "no worse"},
		{"beyond bound", lower, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "worse"},
		{"per-layer loss", metricDef{Name: "x", Better: "lower"}, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "worse"},
		{"per-layer tie", metricDef{Name: "x", Better: "lower"}, parent, "unresolved"},
	} {
		if got := judge(c.def, parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// A parent whose own spread is wider than the bound cannot show
	// "no worse".
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if got := judge(lower, noisy, noisy).verdict; got != "unresolved" {
		t.Errorf("noisy parent: verdict %q, want unresolved", got)
	}
}

func TestCompareRunLogs(t *testing.T) {
	dir := t.TempDir()
	manifest := `{"end_to_end": [{"name": "throughput_pps", "unit": "pkt/s", "better": "higher", "bound": 0.1}], "per_layer": []}`
	run := func(v string) string {
		return `{"perfbench":{"workload":"line_rate","trace":0}}` + "\n" +
			`{"correct":true,"attempted":1,"failed":0,"metrics":{"throughput_pps":{"value":` + v + `,"unit":"pkt/s"}}}` + "\n"
	}
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	m := write("m.json", manifest)
	parent := write("parent", run("100")+run("101")+run("99"))
	change := write("change", run("70")+run("71")+run("69"))
	var out strings.Builder
	code, err := compare(m, parent, change, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "worse") {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
}
