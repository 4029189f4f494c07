package engine_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"streamop/internal/engine"
	"streamop/internal/profile"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
)

// stageOrder is the canonical per-node stage layout /debug/profile and
// PROFILE.json consumers (jq in CI) index positionally.
var stageOrder = []string{
	"dequeue", "where", "group_lookup", "sfun_update",
	"cleaning", "having", "emit", "transfer",
}

func buildProfiledEngine(t *testing.T, c *telemetry.Collector) (*engine.Engine, *engine.Node, *engine.Node) {
	t.Helper()
	e, _ := engine.New(4096)
	if c != nil {
		e.SetCollector(c)
	}
	low, err := e.AddLowLevel("sampler", mustPlan(t, engSSQuery, trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	high, err := e.AddHighLevel("counter", low,
		mustPlan(t, "SELECT tb, count(*) FROM sampler GROUP BY tb as tb", low.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	return e, low, high
}

func TestProfilerReportAfterRun(t *testing.T) {
	e, low, _ := buildProfiledEngine(t, nil)
	p := profile.New(profile.Config{Every: 8, Seed: 1})
	e.SetProfiler(p)
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 4, Rate: 20000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}

	rep := p.Report()
	if rep.SampledEvery != 8 {
		t.Errorf("SampledEvery = %d, want 8", rep.SampledEvery)
	}
	if rep.TotalSelfNS <= 0 {
		t.Errorf("TotalSelfNS = %v, want > 0", rep.TotalSelfNS)
	}
	byName := map[string]*profile.NodeReport{}
	for i := range rep.Nodes {
		byName[rep.Nodes[i].Node] = &rep.Nodes[i]
	}
	for _, want := range []string{"source", "sampler", "counter"} {
		if byName[want] == nil {
			t.Fatalf("report missing node %q (have %d nodes)", want, len(rep.Nodes))
		}
	}

	// Exact row counts mirror the node's stats.
	st := low.Stats()
	nr := byName["sampler"]
	deq := nr.Stages[profile.StageDequeue]
	if deq.RowsIn != st.TuplesIn {
		t.Errorf("sampler dequeue rows_in = %d, stats TuplesIn = %d", deq.RowsIn, st.TuplesIn)
	}
	gl := nr.Stages[profile.StageGroupLookup]
	if gl.RowsIn != st.Operator.TuplesIn {
		t.Errorf("sampler group_lookup rows_in = %d, operator TuplesIn = %d", gl.RowsIn, st.Operator.TuplesIn)
	}
	em := nr.Stages[profile.StageEmit]
	if em.RowsOut != st.Operator.TuplesOut {
		t.Errorf("sampler emit rows_out = %d, operator TuplesOut = %d", em.RowsOut, st.Operator.TuplesOut)
	}
	if nr.SelfNS <= 0 {
		t.Errorf("sampler SelfNS = %v, want > 0", nr.SelfNS)
	}
	if nr.Windows == 0 || nr.Latency == nil {
		t.Errorf("sampler windows = %d latency = %v, want flushed windows with latency", nr.Windows, nr.Latency)
	}
	if nr.Groups <= 0 || nr.GroupBytes <= 0 {
		t.Errorf("sampler occupancy groups=%d bytes=%d, want > 0", nr.Groups, nr.GroupBytes)
	}

	// The text tree renders every active node and stage.
	out := rep.Render()
	for _, want := range []string{"sampler", "counter", "group_lookup", "window latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

// TestDebugProfileEndpoint round-trips /debug/profile through a real
// handler and checks the JSON schema consumers depend on: top-level
// sampled_every/nodes, and exactly NumStages stages per node in canonical
// order.
func TestDebugProfileEndpoint(t *testing.T) {
	c := telemetry.New()
	e, _, _ := buildProfiledEngine(t, c)
	p := profile.New(profile.Config{Every: 16, Seed: 3})
	e.SetProfiler(p)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 3, Rate: 20000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	// Like /debug/plan and /debug/state, the payload keys each source's
	// data by source name: the engine's report lives under "engine".
	var body struct {
		Engine struct {
			SampledEvery int `json:"sampled_every"`
			Nodes        []struct {
				Node   string  `json:"node"`
				Shard  int     `json:"shard"`
				SelfNS float64 `json:"self_ns"`
				Stages []struct {
					Stage  string `json:"stage"`
					RowsIn int64  `json:"rows_in"`
				} `json:"stages"`
			} `json:"nodes"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	rep := body.Engine
	if rep.SampledEvery != 16 {
		t.Errorf("sampled_every = %d, want 16", rep.SampledEvery)
	}
	if len(rep.Nodes) < 3 {
		t.Fatalf("nodes = %d, want >= 3 (source, sampler, counter)", len(rep.Nodes))
	}
	for _, n := range rep.Nodes {
		if len(n.Stages) != len(stageOrder) {
			t.Fatalf("node %s has %d stages, want %d", n.Node, len(n.Stages), len(stageOrder))
		}
		for i, s := range n.Stages {
			if s.Stage != stageOrder[i] {
				t.Errorf("node %s stage[%d] = %q, want %q", n.Node, i, s.Stage, stageOrder[i])
			}
		}
	}
}

// TestDebugProfileWithoutProfiler confirms the endpoint degrades to an
// empty report instead of failing when profiling is off.
func TestDebugProfileWithoutProfiler(t *testing.T) {
	c := telemetry.New()
	buildProfiledEngine(t, c)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, ok := body["engine"]["sampled_every"]; !ok {
		t.Error("empty report missing engine.sampled_every")
	}
}

// TestDebugProfileConcurrentScrape hammers /debug/profile while the engine
// runs, so the race detector checks the atomics-only contract of Report.
func TestDebugProfileConcurrentScrape(t *testing.T) {
	c := telemetry.New()
	e, _, _ := buildProfiledEngine(t, c)
	p := profile.New(profile.Config{Every: 4, Seed: 9})
	e.SetProfiler(p)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := srv.Client().Get(srv.URL + "/debug/profile")
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 4, Rate: 30000})
	err := e.Run(feed)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if p.Report().TotalSelfNS <= 0 {
		t.Error("no self time attributed after concurrent-scrape run")
	}
}

// TestProfileRunParallel checks that a partial-aggregation node profiled
// under RunParallel reports its fold costs from the shared pump: one
// unsharded profile whose group-lookup rows cover every packet.
func TestProfileRunParallel(t *testing.T) {
	e, _ := engine.New(1024)
	plan := mustPlan(t, "SELECT tb, srcIP, count(*), sum(len) FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema())
	if _, err := e.AddLowLevelPartialAgg("partial", plan, 64); err != nil {
		t.Fatal(err)
	}
	p := profile.New(profile.Config{Every: 8, Seed: 4})
	e.SetProfiler(p)
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 6, Duration: 3, Rate: 20000})
	if err := e.RunParallel(feed, 0); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range p.Report().Nodes {
		if n.Node != "partial" {
			continue
		}
		found = true
		if n.Shard != -1 {
			t.Errorf("partial profile has shard %d, want -1 (unsharded)", n.Shard)
		}
		if gl := n.Stages[profile.StageGroupLookup]; gl.RowsIn != e.Packets() {
			t.Errorf("group_lookup rows_in = %d, want every packet (%d)", gl.RowsIn, e.Packets())
		}
		if n.SelfNS <= 0 {
			t.Errorf("SelfNS = %v, want > 0", n.SelfNS)
		}
	}
	if !found {
		t.Error("report has no profile for the partial node")
	}
}
