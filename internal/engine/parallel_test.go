package engine_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"streamop/internal/engine"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// exactTopology wires one engine with every node shape the pump drives:
// a selection node feeding an ESTIMATE ... WITH ERROR query, and a
// 64-slot partial-aggregation node (small enough to evict) re-aggregated
// at the high level. Every node's rows are recorded in emission order.
func exactTopology(t *testing.T) (*engine.Engine, *engine.PartialNode, map[string]*[]string) {
	t.Helper()
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := e.AddLowLevel("sel", mustPlan(t, "SELECT time, srcIP, len, uts FROM PKT", trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.AddHighLevel("est", sel, mustPlan(t, estEngQuery, sel.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	part, err := e.AddLowLevelPartialAgg("part", mustPlan(t,
		"SELECT tb, srcIP, sum(len) AS bytes, count(*) AS pkts FROM PKT GROUP BY time/1 as tb, srcIP",
		trace.Schema()), 64)
	if err != nil {
		t.Fatal(err)
	}
	final, err := e.AddHighLevel("final", part.Base(), mustPlan(t,
		"SELECT tb2, srcIP, sum(bytes), sum(pkts) FROM part GROUP BY tb/1 as tb2, srcIP", part.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]*[]string{}
	for _, n := range []*engine.Node{sel, est, part.Base(), final} {
		sink := &[]string{}
		rows[n.Stats().Name] = sink
		n.Subscribe(func(row tuple.Tuple) error {
			*sink = append(*sink, fmtRow(row))
			return nil
		})
	}
	return e, part, rows
}

// TestRunParallelMatchesRun: unpaced RunParallel must reproduce Run row
// for row, in emission order, at every node — selection, estimation,
// partial aggregation with collision evictions, and re-aggregation —
// with identical node counters.
func TestRunParallelMatchesRun(t *testing.T) {
	for _, hosts := range []int{4, 400} {
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			cfg := trace.SteadyConfig{Seed: uint64(31 + hosts), Duration: 3.9, Rate: 30000, Hosts: uint64(hosts)}
			eSeq, pSeq, seqRows := exactTopology(t)
			feed, _ := trace.NewSteady(cfg)
			if err := eSeq.Run(feed); err != nil {
				t.Fatal(err)
			}
			ePar, pPar, parRows := exactTopology(t)
			feed, _ = trace.NewSteady(cfg)
			if err := ePar.RunParallel(feed, 0); err != nil {
				t.Fatal(err)
			}
			if ePar.Packets() != eSeq.Packets() || ePar.Drops() != 0 {
				t.Fatalf("packets: parallel %d (drops %d), Run %d", ePar.Packets(), ePar.Drops(), eSeq.Packets())
			}
			if ePar.StreamDuration() != eSeq.StreamDuration() {
				t.Errorf("stream duration: parallel %v, Run %v", ePar.StreamDuration(), eSeq.StreamDuration())
			}
			if hosts > 64 && pSeq.Evictions() == 0 {
				t.Fatal("no collision evictions; the partial table is too large for the test to bite")
			}
			if pPar.Evictions() != pSeq.Evictions() {
				t.Errorf("evictions: parallel %d, Run %d", pPar.Evictions(), pSeq.Evictions())
			}
			for name, want := range seqRows {
				got := *parRows[name]
				if len(*want) == 0 {
					t.Fatalf("%s: Run emitted no rows; test has no power", name)
				}
				if len(got) != len(*want) {
					t.Fatalf("%s: parallel emitted %d rows, Run %d", name, len(got), len(*want))
				}
				for i := range got {
					if got[i] != (*want)[i] {
						t.Fatalf("%s: row %d diverged:\n  parallel: %s\n  Run:      %s", name, i, got[i], (*want)[i])
					}
				}
			}
			seqNodes, parNodes := eSeq.Nodes(), ePar.Nodes()
			for i := range seqNodes {
				s, p := seqNodes[i].Stats(), parNodes[i].Stats()
				if s.TuplesIn != p.TuplesIn || s.TuplesOut != p.TuplesOut || s.Operator != p.Operator {
					t.Errorf("node %s: Run %+v, parallel %+v", s.Name, s, p)
				}
			}
		})
	}
}

func TestRunParallelSamplingQuery(t *testing.T) {
	e, _ := engine.New(8192)
	low := mustPlan(t, "SELECT time, srcIP, len, uts FROM PKT", trace.Schema())
	lowNode, err := e.AddLowLevel("sel", low)
	if err != nil {
		t.Fatal(err)
	}
	high := mustPlan(t, `
SELECT tb, uts, UMAX(sum(len), ssthreshold()) AS adjlen
FROM sel
WHERE ssample(len, 200, 2, 10) = TRUE
GROUP BY time/2 as tb, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, lowNode.Schema())
	n, err := e.AddHighLevel("ss", lowNode, high)
	if err != nil {
		t.Fatal(err)
	}
	var rows atomic.Int64
	var est int64 // scaled float via atomic
	n.Subscribe(func(row tuple.Tuple) error {
		rows.Add(1)
		atomic.AddInt64(&est, int64(row[2].AsFloat()))
		return nil
	})
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 32, Duration: 3.9, Rate: 30000})
	if err := e.RunParallel(feed, 0); err != nil {
		t.Fatal(err)
	}
	if got := rows.Load(); got == 0 || got > 2*200 {
		t.Errorf("rows = %d", got)
	}
	// ~30000 pps * ~690B * 3.9s
	actual := int64(30000 * 690 * 3.9)
	if est < actual/2 || est > actual*2 {
		t.Errorf("estimate %d wildly off actual ~%d", est, actual)
	}
}

func TestRunParallelDropsWhenOverloaded(t *testing.T) {
	// A deliberately slow subscriber with a tiny ring: the producer must
	// not block; packets drop and are counted.
	e, _ := engine.New(64)
	low := mustPlan(t, "SELECT uts FROM PKT", trace.Schema())
	n, err := e.AddLowLevel("slow", low)
	if err != nil {
		t.Fatal(err)
	}
	n.Subscribe(func(tuple.Tuple) error {
		time.Sleep(20 * time.Microsecond)
		return nil
	})
	// Paced at real time: 200k pps offered against a ~20us/packet
	// consumer must overflow the 64-slot ring.
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 33, Duration: 0.5, Rate: 200000})
	if err := e.RunParallel(feed, 1); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.TuplesIn >= e.Packets() {
		t.Errorf("slow node processed all %d packets; expected drops", e.Packets())
	}
	t.Logf("processed %d of %d (drops observed at the ring)", st.TuplesIn, e.Packets())
}

func TestRunParallelErrorPropagates(t *testing.T) {
	e, _ := engine.New(1024)
	low := mustPlan(t, "SELECT time, len, uts FROM PKT", trace.Schema())
	lowNode, _ := e.AddLowLevel("l", low)
	boom := mustPlan(t, "SELECT tb, sum(len/(len-len)) FROM l GROUP BY time/1 as tb", lowNode.Schema())
	if _, err := e.AddHighLevel("boom", lowNode, boom); err != nil {
		t.Fatal(err)
	}
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 34, Duration: 0.2, Rate: 5000})
	if err := e.RunParallel(feed, 0); err == nil {
		t.Error("high-level error swallowed in parallel mode")
	}
}

// TestRunParallelAcceptsPartialNodes: a partial-only topology (no
// selection nodes, no high level) runs under RunParallel and folds every
// packet. Exactness is TestRunParallelMatchesRun's job.
func TestRunParallelAcceptsPartialNodes(t *testing.T) {
	e, _ := engine.New(1024)
	plan := mustPlan(t, "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb", trace.Schema())
	pn, err := e.AddLowLevelPartialAgg("p", plan, 16)
	if err != nil {
		t.Fatal(err)
	}
	var rows atomic.Int64
	pn.Subscribe(func(tuple.Tuple) error {
		rows.Add(1)
		return nil
	})
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 35, Duration: 0.5, Rate: 5000})
	if err := e.RunParallel(feed, 0); err != nil {
		t.Fatalf("RunParallel rejected partial nodes: %v", err)
	}
	if rows.Load() == 0 {
		t.Error("partial node emitted nothing")
	}
	if got := pn.Stats().TuplesIn; got != e.Packets() {
		t.Errorf("partial node folded %d of %d packets", got, e.Packets())
	}
}

// TestRunParallelMixedTopology: selection and partial low-level nodes
// side by side, each with a high-level consumer, under one parallel run.
func TestRunParallelMixedTopology(t *testing.T) {
	e, _ := engine.New(4096)
	sel := mustPlan(t, "SELECT time, len, uts FROM PKT", trace.Schema())
	selNode, err := e.AddLowLevel("sel", sel)
	if err != nil {
		t.Fatal(err)
	}
	cnt := mustPlan(t, "SELECT tb, count(*) FROM sel GROUP BY time/1 as tb", selNode.Schema())
	cntNode, err := e.AddHighLevel("cnt", selNode, cnt)
	if err != nil {
		t.Fatal(err)
	}
	part := mustPlan(t, "SELECT tb, srcIP, sum(len) AS bytes FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema())
	pn, err := e.AddLowLevelPartialAgg("part", part, 64)
	if err != nil {
		t.Fatal(err)
	}
	agg := mustPlan(t, "SELECT tb2, srcIP, sum(bytes) FROM part GROUP BY tb/1 as tb2, srcIP", pn.Schema())
	aggNode, err := e.AddHighLevel("agg", pn.Base(), agg)
	if err != nil {
		t.Fatal(err)
	}
	var counted, bytes atomic.Int64
	cntNode.Subscribe(func(row tuple.Tuple) error {
		counted.Add(row[1].AsInt())
		return nil
	})
	aggNode.Subscribe(func(row tuple.Tuple) error {
		bytes.Add(row[2].AsInt())
		return nil
	})
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 36, Duration: 1, Rate: 20000})
	if err := e.RunParallel(feed, 0); err != nil {
		t.Fatal(err)
	}
	if counted.Load() != e.Packets() {
		t.Errorf("selection side counted %d of %d packets", counted.Load(), e.Packets())
	}
	if bytes.Load() == 0 {
		t.Error("partial side aggregated nothing")
	}
}
