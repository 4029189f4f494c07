package engine_test

import (
	"bytes"
	"strings"
	"testing"

	"streamop/internal/engine"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
)

const engSSQuery = `
SELECT tb, uts, srcIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM PKT
WHERE ssample(len, 100, 2, 10) = TRUE
GROUP BY time/1 as tb, srcIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`

func TestEngineTelemetryRun(t *testing.T) {
	c := telemetry.New()
	e, _ := engine.New(4096)
	e.SetCollector(c)
	low, err := e.AddLowLevel("sampler", mustPlan(t, engSSQuery, trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	high, err := e.AddHighLevel("counter", low,
		mustPlan(t, "SELECT tb, count(*) FROM sampler GROUP BY tb as tb", low.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 4, Rate: 20000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}

	snap := c.Snapshot()
	for _, n := range []*engine.Node{low, high} {
		st := n.Stats()
		if got, ok := snap.Value("streamop_node_tuples_in", st.Name); !ok || int64(got) != st.TuplesIn {
			t.Errorf("node %s tuples_in gauge = %v (ok=%v), stats %d", st.Name, got, ok, st.TuplesIn)
		}
		if got, ok := snap.Value("streamop_node_tuples_out", st.Name); !ok || int64(got) != st.TuplesOut {
			t.Errorf("node %s tuples_out gauge = %v (ok=%v), stats %d", st.Name, got, ok, st.TuplesOut)
		}
		if got, ok := snap.Value("streamop_operator_tuples_in_total", st.Name); !ok || int64(got) != st.Operator.TuplesIn {
			t.Errorf("node %s operator tuples_in counter = %v (ok=%v), stats %d", st.Name, got, ok, st.Operator.TuplesIn)
		}
	}
	if _, ok := snap.Value("streamop_ring_drops", "source"); !ok {
		t.Error("missing source ring drops gauge")
	}
	if peak, ok := snap.Value("streamop_ring_peak_occupancy", "source"); !ok || peak <= 0 {
		t.Errorf("ring peak = %v (ok=%v), want > 0", peak, ok)
	}
	if e.RingPeak() <= 0 {
		t.Errorf("RingPeak = %d, want > 0", e.RingPeak())
	}

	// Both node operators contribute per-window series under their node
	// names, and the exposition carries them.
	var b bytes.Buffer
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`streamop_window_sample_size{node="sampler",window="0"}`,
		`streamop_window_sample_size{node="counter",window="0"}`,
		`streamop_sfun_gauge{node="sampler",state="subsetsum_sampling_state",gauge="threshold",window="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

func TestEngineTelemetryRunParallel(t *testing.T) {
	c := telemetry.New()
	e, _ := engine.New(1024)
	e.SetCollector(c)
	low, err := e.AddLowLevel("sampler", mustPlan(t, engSSQuery, trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 2, Rate: 20000})
	if err := e.RunParallel(feed, 0); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	st := low.Stats()
	if got, ok := snap.Value("streamop_node_tuples_in", "sampler"); !ok || int64(got) != st.TuplesIn {
		t.Errorf("tuples_in gauge = %v (ok=%v), stats %d", got, ok, st.TuplesIn)
	}
	// Unpaced runs apply backpressure: the source ring must not drop.
	if got, ok := snap.Value("streamop_ring_drops", "source"); !ok || got != 0 {
		t.Errorf("ring drops gauge = %v (ok=%v), want 0", got, ok)
	}
	if got, ok := snap.Value("streamop_engine_packets"); !ok || int64(got) != e.Packets() {
		t.Errorf("packets gauge = %v (ok=%v), engine %d", got, ok, e.Packets())
	}
}

// TestNodeStatsSerialParallelConsistent verifies the satellite requirement
// that Node.Stats counters agree between Run and RunParallel over the same
// query tree and feed (unpaced, so nothing drops). Run under -race in CI.
func TestNodeStatsSerialParallelConsistent(t *testing.T) {
	build := func() (*engine.Engine, *engine.Node, *engine.Node) {
		e, _ := engine.New(1024)
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
	feedCfg := trace.SteadyConfig{Seed: 5, Duration: 3, Rate: 30000}

	serial, sLow, sHigh := build()
	feed, _ := trace.NewSteady(feedCfg)
	if err := serial.Run(feed); err != nil {
		t.Fatal(err)
	}
	parallel, pLow, pHigh := build()
	feed, _ = trace.NewSteady(feedCfg)
	if err := parallel.RunParallel(feed, 0); err != nil {
		t.Fatal(err)
	}

	if parallel.Drops() != 0 {
		t.Fatalf("parallel run dropped %d packets", parallel.Drops())
	}
	for _, pair := range [][2]*engine.Node{{sLow, pLow}, {sHigh, pHigh}} {
		s, p := pair[0].Stats(), pair[1].Stats()
		if s.TuplesIn != p.TuplesIn || s.TuplesOut != p.TuplesOut {
			t.Errorf("node %s: serial in/out = %d/%d, parallel = %d/%d",
				s.Name, s.TuplesIn, s.TuplesOut, p.TuplesIn, p.TuplesOut)
		}
		if s.Operator != p.Operator {
			t.Errorf("node %s: operator stats diverge\nserial:   %+v\nparallel: %+v",
				s.Name, s.Operator, p.Operator)
		}
	}
	if sLow.Stats().TuplesIn == 0 || sHigh.Stats().TuplesIn == 0 {
		t.Error("consistency test processed no tuples")
	}
}
