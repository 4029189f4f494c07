package engine_test

import (
	"testing"
	"time"

	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// buildBenchTopology wires the standard two-level topology (pass-through
// low, per-second aggregation high).
func buildBenchTopology(b *testing.B) *engine.Engine {
	b.Helper()
	e, _ := engine.New(8192)
	low, err := e.AddLowLevel("l", mustPlanB(b, "SELECT time, srcIP, len, uts FROM PKT", trace.Schema()))
	if err != nil {
		b.Fatal(err)
	}
	high := mustPlanB(b, "SELECT tb, srcIP, sum(len) FROM l GROUP BY time/1 as tb, srcIP", low.Schema())
	if _, err := e.AddHighLevel("h", low, high); err != nil {
		b.Fatal(err)
	}
	return e
}

func benchPackets(b *testing.B, n int) []trace.Packet {
	b.Helper()
	cfg := trace.SteadyConfig{Seed: 1, Duration: float64(n) / 100000, Rate: 100000, Hosts: 256}
	feed, err := trace.NewSteady(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return trace.Collect(feed)
}

// benchRuns times whole runs of pkts, each over a fresh engine from
// build, until at least b.N packets went through, and reports ns/pkt as
// elapsed time over packets processed. b.N counts packets, so ns/op
// means the same only when b.N is a multiple of the run length; ns/pkt
// always does.
func benchRuns(b *testing.B, pkts []trace.Packet, build func() *engine.Engine, run func(*engine.Engine, trace.Feed) error) {
	b.ResetTimer()
	var elapsed time.Duration
	processed := 0
	for processed < b.N {
		b.StopTimer()
		e := build()
		b.StartTimer()
		start := time.Now()
		if err := run(e, sliceFeed(pkts)); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		processed += len(pkts)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(processed), "ns/pkt")
	b.ReportMetric(float64(len(pkts)), "pkts/run")
}

// BenchmarkEngineRun measures Run's end-to-end per-packet cost of the
// two-level topology.
func BenchmarkEngineRun(b *testing.B) {
	benchRuns(b, benchPackets(b, 100000), func() *engine.Engine { return buildBenchTopology(b) },
		(*engine.Engine).Run)
}

// BenchmarkEngineRunParallel measures the unpaced (backpressured)
// RunParallel cost of the same topology: the producer goroutine fills
// the ring while the pump drains it.
func BenchmarkEngineRunParallel(b *testing.B) {
	benchRuns(b, benchPackets(b, 100000), func() *engine.Engine { return buildBenchTopology(b) },
		func(e *engine.Engine, feed trace.Feed) error { return e.RunParallel(feed, 0) })
}

// BenchmarkPartialAggProcess measures the partial-aggregation fast path
// under Run.
func BenchmarkPartialAggProcess(b *testing.B) {
	build := func() *engine.Engine {
		e, _ := engine.New(8192)
		plan := mustPlanB(b, "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema())
		if _, err := e.AddLowLevelPartialAgg("p", plan, 4096); err != nil {
			b.Fatal(err)
		}
		return e
	}
	benchRuns(b, benchPackets(b, 100000), build, (*engine.Engine).Run)
}

// mustPlanB is the benchmark-friendly version of mustPlan.
func mustPlanB(b *testing.B, src string, schema *tuple.Schema) *gsql.Plan {
	b.Helper()
	q, err := gsql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	p, err := gsql.Analyze(q, schema, sfunlib.Default(1))
	if err != nil {
		b.Fatal(err)
	}
	return p
}
