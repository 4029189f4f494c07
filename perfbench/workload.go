package main

import (
	"fmt"

	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/overload"
)

// query is one standing query of a workload.
type query struct {
	name string
	src  string
	// via is the shared tap the query reads (empty for FROM PKT queries).
	via  string
	seed uint64
	// windowSec is the width of the query's tb window in stream seconds;
	// every query's first output column is tb = time/windowSec, which
	// dates each row for the delivery-latency measure.
	windowSec uint64
	quota     overload.Quota
}

// high reports whether the query runs as a high-level node over a tap.
func (q query) high() bool { return q.via != "" }

// from is the stream the query's FROM clause names (a tap's node name).
func (q query) from() string {
	parsed, err := gsql.Parse(q.src)
	if err != nil {
		return ""
	}
	return parsed.From
}

func (q query) opts() engine.InstallOptions {
	return engine.InstallOptions{
		Via: q.via, Seed: q.seed, Quota: q.quota,
		// Block keeps every row: a slow consumer stalls the pump instead
		// of losing output. The buffer absorbs one window-close burst so
		// the pump rarely waits on the consumer.
		Block: true, Buffer: 1 << 14,
	}
}

// workload is one traffic mix: the standing queries, the steady feed's
// length and the paced phase's offered rate.
type workload struct {
	name string
	why  string
	// queries are installed before Start, in order.
	queries []query
	// churn, when set, is installed and uninstalled live on a
	// packet-count schedule, under a new name each time; its output is
	// not digest-checked because its splice points depend on timing.
	churn *query
	// churnEvery is the packet interval between churn operations.
	churnEvery int
	// feedRate is the steady feed's stream rate (packets per stream
	// second): with 1-s windows it sets the packets per window.
	feedRate float64
	// streamPerRunSec is how many stream seconds one measured run-second
	// replays.
	streamPerRunSec float64
	// offered is the paced phase's offered rate in packets per second.
	offered float64
	// ckptEvery is the session snapshot schedule (closed windows between
	// snapshots); 0 writes only the base and final snapshots.
	ckptEvery int64
	// estimate and twin name the ESTIMATE query and the plain query the
	// ladder prices it against (same plan apart from the select item).
	estimate string
	twin     string
}

// checkpoint is the durable-session configuration every session uses.
func (w *workload) checkpoint(dir string) engine.CheckpointConfig {
	return engine.CheckpointConfig{Dir: dir, EveryWindows: w.ckptEvery, Keep: 2}
}

// speedup is the pacing factor that offers the feed at w.offered.
func (w *workload) speedup() float64 { return w.offered / w.feedRate }

// ssQuery is the paper's dynamic subset-sum query over stream from, with
// sel as the per-sample select item.
func ssQuery(sel, from string, n int) string {
	return fmt.Sprintf(`SELECT tb, uts, %s
FROM %s
WHERE ssample(len, %d, 2, 10) = TRUE
GROUP BY time/1 as tb, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, sel, from, n)
}

func rsQuery(from string, n int) string {
	return fmt.Sprintf(`SELECT tb, srcIP, destIP, len
FROM %s
WHERE rsample(uts, %d, 20) = TRUE
GROUP BY time/1 as tb, srcIP, destIP, len, uts
HAVING rsfinal_clean(uts) = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with(uts) = TRUE`, from, n)
}

func hhQuery(from string, minCount, bucket int) string {
	return fmt.Sprintf(`SELECT tb, srcIP, sum(len), count(*)
FROM %s
GROUP BY time/1 as tb, srcIP
HAVING count(*) >= %d
CLEANING WHEN local_count(%d) = TRUE
CLEANING BY count(*) >= current_bucket() - first(current_bucket())`, from, minCount, bucket)
}

func sumQuery(from string, minCount int) string {
	return fmt.Sprintf(`SELECT tb, srcIP, sum(len), count(*)
FROM %s
GROUP BY time/1 as tb, srcIP
HAVING count(*) >= %d`, from, minCount)
}

const (
	estSel  = "ESTIMATE sum(len) WITH ERROR AS vol"
	umaxSel = "UMAX(sum(len), ssthreshold()) AS adjlen"
	// tcpVia is tap_fanout's shared tap: ~90% of the feed is TCP.
	tcpVia = "SELECT time, srcIP, destIP, len, uts FROM PKT WHERE proto = 6"
	// tenantVia is durable_churn's tenant tap: every packet.
	tenantVia = "SELECT time, srcIP, destIP, len, uts FROM PKT"
)

func workloads() []*workload {
	lineRate := &workload{
		name:            "line_rate",
		why:             "Fig. 5 shape: four paper queries straight on PKT at line rate; cost sits in ring, conversion, kernels and stateful walk, with no tap fan-out",
		feedRate:        100000,
		streamPerRunSec: 2,
		offered:         400000,
		estimate:        "est",
		twin:            "ss",
		queries: []query{
			{name: "est", src: ssQuery(estSel, "PKT", 1000), seed: 11, windowSec: 1},
			{name: "ss", src: ssQuery(umaxSel, "PKT", 1000), seed: 12, windowSec: 1},
			{name: "rs", src: rsQuery("PKT", 100), seed: 13, windowSec: 1},
			{name: "hh", src: hhQuery("PKT", 60, 500), seed: 14, windowSec: 1},
		},
	}

	fanout := &workload{
		name:            "tap_fanout",
		why:             "gsqd shape: sixteen standing queries over one shared TCP tap; cost sits in tap row copies and the scalar high-level path",
		feedRate:        10000,
		streamPerRunSec: 1.5,
		offered:         25000,
	}
	for i := uint64(0); i < 4; i++ {
		fanout.queries = append(fanout.queries,
			query{name: fmt.Sprintf("sum%d", i), src: sumQuery("tcp", 4+int(i)), via: tcpVia, seed: 100 + i, windowSec: 1},
			query{name: fmt.Sprintf("ss%d", i), src: ssQuery(umaxSel, "tcp", 200), via: tcpVia, seed: 200 + i, windowSec: 1},
			query{name: fmt.Sprintf("rs%d", i), src: rsQuery("tcp", 100), via: tcpVia, seed: 300 + i, windowSec: 1},
			query{name: fmt.Sprintf("hh%d", i), src: hhQuery("tcp", 40, 500), via: tcpVia, seed: 400 + i, windowSec: 1},
		)
	}

	durable := &workload{
		name:            "durable_churn",
		why:             "durable session: large-state query, quota'd tenants (one over budget) and live install/uninstall churn; cost sits in snapshots, compiles and admission",
		feedRate:        15000,
		streamPerRunSec: 1.5,
		offered:         40000,
		ckptEvery:       3,
		churnEvery:      75000,
		queries: []query{
			{name: "pairs", src: `SELECT tb, srcIP, destIP, count(*), sum(len)
FROM PKT
GROUP BY time/60 as tb, srcIP, destIP
HAVING count(*) >= 4`, seed: 21, windowSec: 60},
			{name: "t_total", src: `SELECT tb, count(*), sum(len) FROM ten GROUP BY time/1 as tb`,
				via: tenantVia, seed: 22, windowSec: 1, quota: overload.Quota{Rows: 100}},
			{name: "t_hh", src: hhQuery("ten", 60, 500),
				via: tenantVia, seed: 23, windowSec: 1, quota: overload.Quota{Rows: 2000}},
			{name: "t_rs", src: rsQuery("ten", 100),
				via: tenantVia, seed: 24, windowSec: 1, quota: overload.Quota{Rows: 1000}},
			// The over-budget tenant: thousands of rows per window against
			// a 1200-row budget. Its window-close bursts are 1 s of stream
			// apart, less at most the 0.55 s the source ring spans, which
			// is more than BurstSec: each burst meets a full bucket and the
			// admitted count per window is exact whatever the pump's
			// batching.
			{name: "t_greedy", src: sumQuery("ten", 1),
				via: tenantVia, seed: 25, windowSec: 1, quota: overload.Quota{Rows: 4800, BurstSec: 0.25}},
		},
		churn: &query{name: "churn", src: sumQuery("ten", 20), via: tenantVia, seed: 26, windowSec: 1},
	}
	return []*workload{lineRate, fanout, durable}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
