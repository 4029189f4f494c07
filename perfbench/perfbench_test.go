package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
)

// heldOutSeed is a seed no workload was sized or tuned on (runs default
// to seed 1).
const heldOutSeed = 97

// testSeconds is the shortest run of each workload whose paced phase
// still closes enough windows for the latency medians.
var testSeconds = map[string]int{"line_rate": 1, "tap_fanout": 5, "durable_churn": 5}

// TestHeldOutSeed runs every workload briefly, untraced and traced, on a
// seed other than the default, and requires every output check to pass,
// no operation to fail, and every manifest metric to be reported with
// its unit.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				res, err := run(config{w: w, seed: heldOutSeed, seconds: testSeconds[w.name], traced: traced, workdir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("output checks failed: %q", res.info.Problems)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				defs := endToEndMetrics
				if traced {
					defs = perLayerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("reported %d metrics, manifest lists %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (reported: %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
			})
		}
	}
}

// TestManifestIsCurrent keeps BENCHMARK.json at the repository root equal
// to what --manifest prints.
func TestManifestIsCurrent(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(benchmarkManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(b), want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --manifest > BENCHMARK.json")
	}
}

// TestManifestNames checks the contract's naming limits: unique names,
// at most 64 characters, workload reasons of one short line.
func TestManifestNames(t *testing.T) {
	m := benchmarkManifest()
	seen := map[string]bool{}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, d := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		names = append(names, d.Name)
		if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, *d.Bound)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if seen[n] || len(n) > 64 {
			t.Errorf("name %q repeated or too long", n)
		}
		seen[n] = true
	}
}
