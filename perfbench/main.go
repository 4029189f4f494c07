// Command perfbench is the repository's benchmark: live standing-query
// sessions driven end to end through the engine's public session API,
// plus a single-threaded layer ladder that prices each module and is the
// reference the sessions' output must match.
//
//	perfbench --workload line_rate --seed 1 --seconds 10 --trace 0
//
// Each run pre-generates the steady data-center feed from --seed and
// replays it, so the program sees only the packets. --trace 0 runs an
// unpaced session (capacity) and a session paced at the workload's
// offered rate (latency) and prints the end-to-end metrics; --trace 1
// runs the ladder and an untraced and a traced unpaced session and prints
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the line before
// it records provenance and each metric's median and quartiles. Any
// failed output check prints correct=false and exits 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"

	"streamop/internal/trace"
)

// runSeconds is the measured length of one run the manifest declares.
const runSeconds = 10

// setupRepeats is how many extra setups a run times besides the ones its
// sessions use; setup_s is the median of all of them.
const setupRepeats = 29

// rounds is how many unpaced-then-paced session pairs a run makes. The
// pairs spread each metric's samples over the whole run, so a slow spell
// of the host moves the run's medians less than a single long session.
const rounds = 3

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: line_rate, tap_fanout or durable_churn")
	seed := fs.Uint64("seed", 1, "seed of the generated feed")
	seconds := fs.Int("seconds", runSeconds, "measured run length; scales the replayed stream")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's snapshot files")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		b, err := json.MarshalIndent(benchmarkManifest(), "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	res, err := run(config{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, workdir: *workdir})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.report(stdout, stderr)
	if !res.Correct {
		return 1
	}
	return 0
}

type config struct {
	w       *workload
	seed    uint64
	seconds int
	traced  bool
	workdir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info    provenance
	order   []string
	samples map[string]summary
}

// provenance is the line printed before the result.
type provenance struct {
	Workload   string             `json:"workload"`
	Trace      int                `json:"trace"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Packets    int                `json:"packets"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Repeats    map[string]int     `json:"repeats"`
	Summaries  map[string]summary `json:"summaries"`
	Problems   []string           `json:"problems"`
	Notes      []string           `json:"notes,omitempty"`
}

func (r *result) add(name, unit string, samples []float64) {
	s := summarize(samples)
	r.Metrics[name] = metric{Value: s.Median, Unit: unit}
	r.samples[name] = s
	r.order = append(r.order, name)
}

func (r *result) one(name, unit string, v float64) { r.add(name, unit, []float64{v}) }

func (r *result) problem(format string, args ...any) {
	r.info.Problems = append(r.info.Problems, fmt.Sprintf(format, args...))
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// report prints every metric by name with its unit on stderr, then the
// provenance line and the result line on stdout.
func (r *result) report(stdout, stderr io.Writer) {
	fmt.Fprintf(stderr, "perfbench %s seed=%d seconds=%d trace=%d packets=%d\n",
		r.info.Workload, r.info.Seed, r.info.Seconds, r.info.Trace, r.info.Packets)
	for _, name := range r.order {
		s := r.samples[name]
		fmt.Fprintf(stderr, "  %-34s %16.6g %-6s  (p25 %.6g, p75 %.6g, n=%d)\n",
			name, r.Metrics[name].Value, r.Metrics[name].Unit, s.P25, s.P75, s.N)
	}
	for _, n := range r.info.Notes {
		fmt.Fprintln(stderr, "  note:", n)
	}
	for _, p := range r.info.Problems {
		fmt.Fprintln(stderr, "  CHECK FAILED:", p)
	}
	r.info.Summaries = r.samples
	line, _ := json.Marshal(map[string]provenance{"perfbench": r.info})
	fmt.Fprintln(stdout, string(line))
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintln(stdout, string(out))
}

// packets generates the workload's input: the steady feed, sized by the
// run length, from the seed alone. The stream lasts whole seconds, so its
// last window is full when the session drains: the end-of-stream
// boundary holds the largest state, and the over-budget tenant's last
// two bursts stay more than BurstSec apart in stream time.
func packets(w *workload, seed uint64, seconds int) ([]trace.Packet, error) {
	cfg := trace.DefaultSteady(seed, math.Ceil(w.streamPerRunSec*float64(seconds)))
	cfg.Rate = w.feedRate
	feed, err := trace.NewSteady(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Packet, 0, int(cfg.Duration*cfg.Rate*1.1))
	for {
		p, ok := feed.Next()
		if !ok {
			return out, nil
		}
		out = append(out, p)
	}
}

func run(cfg config) (*result, error) {
	w := cfg.w
	pkts, err := packets(w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	if len(pkts) == 0 {
		return nil, fmt.Errorf("empty feed")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &result{Metrics: map[string]metric{}, samples: map[string]summary{}}
	r.info = provenance{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Packets: len(pkts),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Repeats: map[string]int{},
		Problems: []string{},
	}
	if cfg.traced {
		r.info.Trace = 1
	}

	ref, err := newLadder(w, cfg.traced)
	if err != nil {
		return nil, err
	}
	if err := ref.run(pkts, cfg.traced, filepath.Join(dir, "ladder")); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	var setups []float64
	var specs []phase
	if cfg.traced {
		specs = []phase{{name: "untraced"}, {name: "traced", traced: true}, {name: "paced", paced: true}}
	} else {
		runtime.GC()
		for i := 0; i < setupRepeats; i++ {
			_, _, ns, err := setup(w, filepath.Join(dir, "setup"), nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, float64(ns)/1e9)
		}
		for i := 1; i <= rounds; i++ {
			specs = append(specs, phase{name: fmt.Sprintf("unpaced%d", i)}, phase{name: fmt.Sprintf("paced%d", i), paced: true})
		}
	}
	var phases []*phaseResult
	for _, ph := range specs {
		ph.dir = filepath.Join(dir, ph.name)
		res, err := runPhase(w, pkts, ph)
		if err != nil {
			return nil, fmt.Errorf("%s session: %w", ph.name, err)
		}
		phases = append(phases, res)
	}
	check(r, w, ref, phases)
	for _, ph := range phases {
		r.Attempted += int64(ph.packets) + int64(ph.churnOps) + int64(len(w.queries))
		for _, n := range ph.rowsOut {
			r.Attempted += n
		}
		r.Failed += int64(ph.drops) + int64(ph.subDropped) + int64(ph.failedQueries) + ph.late + int64(ph.churnErrs)
	}
	if cfg.traced {
		perLayer(r, w, ref, phases[0], phases[1], phases[2])
	} else {
		endToEnd(r, phases, setups)
	}
	r.Correct = len(r.info.Problems) == 0
	return r, nil
}

// endToEnd derives the end-to-end metrics: capacity from the unpaced
// sessions, latency from the paced ones, each the median over the run.
// setups holds the run's extra setup times; each session adds its own.
func endToEnd(r *result, phases []*phaseResult, setups []float64) {
	var pps, cpu, allocs, recoverS []float64
	var peak uint64
	// Delivery quantiles are taken within each closed window of the paced
	// sessions; the metric is the median over windows, so a single host
	// stall cannot decide a run.
	var windows [][]int64
	for _, ph := range phases {
		for _, ns := range ph.recoverNS {
			recoverS = append(recoverS, float64(ns)/1e9)
		}
		peak = max(peak, ph.peakHeap)
		setups = append(setups, float64(ph.setupNS)/1e9)
		n := float64(ph.packets)
		if !ph.paced {
			pps = append(pps, n/(float64(ph.wallNS)/1e9))
			cpu = append(cpu, float64(ph.cpuNS)/n)
			allocs = append(allocs, float64(ph.mallocs)/n)
			continue
		}
		for _, end := range sortedKeys(ph.lat) {
			windows = append(windows, ph.lat[end])
		}
	}
	r.info.Repeats["unpaced"], r.info.Repeats["paced"] = len(pps), rounds
	r.info.Repeats["recover"], r.info.Repeats["setup"] = len(recoverS), len(setups)
	r.add("throughput_pps", "pkt/s", pps)
	r.add("cpu_ns_per_pkt", "ns", cpu)
	r.add("allocs_per_pkt", "count", allocs)
	r.one("peak_heap_mb", "MB", float64(peak)/1e6)

	p50, n50 := perWindow(windows, 0.5, minP50Samples)
	p99, n99 := perWindow(windows, 0.99, minP99Samples)
	r.needWindows("delivery_p50_ms", p50, minP50Samples)
	r.needWindows("delivery_p99_ms", p99, minP99Samples)
	r.add("delivery_p50_ms", "ms", p50)
	r.add("delivery_p99_ms", "ms", p99)
	r.info.Repeats["delivery_p50_samples"], r.info.Repeats["delivery_p99_samples"] = n50, n99
	r.add("setup_s", "s", setups)
	r.add("recover_s", "s", recoverS)
}

const (
	// minP99Samples leaves at least 10 samples beyond a window's p99.
	minP99Samples = 1000
	minP50Samples = 100
	// minWindows is how many qualifying windows a latency median needs.
	minWindows = 3
	// lagParts is how many parts of a paced session feed_lag_p99_ms
	// takes a p99 in.
	lagParts = 8
)

// needWindows flags a latency median taken over too few windows.
func (r *result) needWindows(name string, qs []float64, minN int) {
	if len(qs) < minWindows {
		r.problem("%s: %d windows with at least %d samples, fewer than %d", name, len(qs), minN, minWindows)
	}
}

// lagChunks splits a paced session's feed lags, in packet order, into
// the parts feed_lag_p99_ms takes a p99 in.
func lagChunks(lags []int64) [][]int64 {
	var out [][]int64
	for i := 0; i < lagParts; i++ {
		out = append(out, lags[i*len(lags)/lagParts:(i+1)*len(lags)/lagParts])
	}
	return out
}

// perWindow returns the q-quantile, in ms, of every window holding at
// least minN samples, and the number of samples those windows hold.
func perWindow(windows [][]int64, q float64, minN int) ([]float64, int) {
	var out []float64
	n := 0
	for _, w := range windows {
		if len(w) < minN {
			continue
		}
		xs := nsToFloats(w, 1e6)
		sort.Float64s(xs)
		out = append(out, quantile(xs, q))
		n += len(w)
	}
	return out, n
}

func sortedKeys(m map[uint64][]int64) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// perLayer derives the per-layer metrics from the ladder, the untraced
// and traced unpaced sessions and a paced session.
func perLayer(r *result, w *workload, l *ladder, untraced, traced, paced *phaseResult) {
	n := float64(traced.packets)
	perPkt := func(ns int64) float64 { return float64(ns) / n }

	r.one("engine.low_busy_ns_per_pkt", "ns", perPkt(traced.lowBusy))
	r.one("engine.high_busy_ns_per_pkt", "ns", perPkt(traced.highBusy))
	r.one("engine.pump_gap_ns_per_pkt", "ns", perPkt(traced.wallNS-traced.lowBusy-traced.highBusy))
	r.one("engine.fanout_rows_per_pkt", "count", float64(traced.fanoutRows)/n)
	inst := nsToFloats(traced.installNS, 1e6)
	r.add("engine.install_ms.p50", "ms", inst)
	sort.Float64s(inst)
	r.one("engine.install_ms.max", "ms", inst[len(inst)-1])
	r.add("engine.uninstall_ms.p50", "ms", nsToFloats(traced.uninstallNS, 1e6))
	r.one("engine.drain_ms", "ms", float64(traced.drainNS)/1e6)
	// The pump's pull lag behind the paced feed: p99 within each eighth
	// of the session, median over eighths. It is not an end-to-end
	// metric: on line_rate it sits at the host's timer jitter, which
	// spread beyond any bound across repeated runs.
	lag, nLag := perWindow(lagChunks(paced.lags), 0.99, minP99Samples)
	r.needWindows("engine.feed_lag_p99_ms", lag, minP99Samples)
	r.add("engine.feed_lag_p99_ms", "ms", lag)
	r.info.Repeats["feed_lag_samples"] = nLag
	r.one("engine.snapshots", "count", float64(traced.snapshots))

	r.one("ringbuf.push_pop_ns_per_pkt", "ns", perPkt(l.ringNS))
	r.one("ringbuf.peak_len", "count", float64(traced.ringPeak))
	r.one("ringbuf.drops", "count", float64(traced.drops))
	r.one("tuple.convert_ns_per_pkt", "ns", perPkt(l.convNS))
	r.one("tuple.convert_allocs_per_pkt", "count", float64(l.convAll)/n)

	var compile []float64
	for _, ns := range l.compileNS {
		compile = append(compile, ns/1e3)
	}
	r.add("gsql.compile_us_per_query", "us", compile)
	var kernel, batch, high, highRows, closeExtra, windows int64
	for _, nd := range l.low {
		kernel += nd.kernelNS
		batch += nd.busyNS
		highRows += nd.stats.TuplesOut * int64(len(nd.kids)) // rows into high-level plans
	}
	for _, nd := range l.high {
		high += nd.busyNS
	}
	for _, nd := range l.nodes() {
		if len(nd.closeNS) == 0 || len(nd.openNS) == 0 {
			continue
		}
		open := make([]float64, len(nd.openNS))
		for i, v := range nd.openNS {
			open[i] = float64(v)
		}
		typical := int64(median(open))
		for _, v := range nd.closeNS {
			closeExtra += v - typical
		}
		windows += nd.windows
	}
	r.one("gsql.kernel_ns_per_pkt", "ns", perPkt(kernel))
	r.one("operator.batch_ns_per_pkt", "ns", perPkt(batch))
	r.one("operator.batch_allocs_per_pkt", "count", float64(l.lowAll)/n)
	r.one("operator.walk_ns_per_pkt", "ns", perPkt(batch-kernel))
	rowNS := 0.0
	if highRows > 0 {
		rowNS = float64(high) / float64(highRows)
	}
	r.one("operator.row_ns_per_row", "ns", rowNS)
	closeUS := 0.0
	if windows > 0 {
		closeUS = float64(closeExtra) / float64(windows) / 1e3
	}
	r.one("operator.window_close_us", "us", closeUS)
	r.one("operator.groups_created", "count", float64(traced.ops.GroupsCreated))
	r.one("operator.cleanings", "count", float64(traced.ops.Cleanings))
	r.one("operator.windows", "count", float64(traced.ops.Windows))
	r.one("operator.rows_out", "count", float64(traced.ops.TuplesOut))

	est := 0.0
	if l.twinNS != 0 {
		for _, nd := range l.low {
			if nd.name == w.estimate {
				est = perPkt(nd.busyNS - l.twinNS)
			}
		}
	}
	r.one("estimate.ns_per_pkt", "ns", est)

	r.one("deliver.rows_per_pkt", "count", float64(traced.delivered)/n)
	r.one("deliver.sub_dropped", "count", float64(traced.subDropped))
	r.one("deliver.consumer_busy_frac", "ratio", traced.busyFrac)

	var admitted, shed, offeredQuota uint64
	for _, q := range traced.quota {
		admitted += q.Admitted
		shed += q.Shed
		offeredQuota += q.Offered
	}
	r.one("overload.admit_ns_per_row", "ns", l.admitNS)
	r.one("overload.quota_admitted", "count", float64(admitted))
	r.one("overload.quota_shed", "count", float64(shed))

	r.add("checkpoint.encode_ms", "ms", nsToFloats(l.encodeNS, 1e6))
	r.one("checkpoint.bytes", "bytes", float64(l.snapBytes))
	r.add("checkpoint.write_ms", "ms", nsToFloats(l.writeNS, 1e6))
	r.add("checkpoint.read_ms", "ms", nsToFloats(l.readNS, 1e6))
	r.info.Repeats["checkpoint"] = len(l.encodeNS)

	r.one("bench.trace_overhead_frac", "ratio", float64(traced.wallNS)/float64(untraced.wallNS)-1)
	// The ladder's per-packet stages as the session runs them: one ring
	// pass, one conversion per low-level node, every plan, and admission
	// of the quota'd rows. Snapshot writes and delivery are not laddered
	// per packet; they stay in engine.pump_gap_ns_per_pkt.
	lowNodes := int64(len(l.low))
	ladderNS := float64(l.ringNS+l.convNS*lowNodes+batch+high) + l.admitNS*float64(offeredQuota)
	session := float64(untraced.wallNS)
	cov := ladderNS / session
	r.one("bench.ladder_coverage", "ratio", cov)
	if cov < 0.9 || cov > 1.1 {
		r.info.Notes = append(r.info.Notes, fmt.Sprintf(
			"ladder covers %.2f of the session's %.0f ns/pkt, outside the 10%% band; residual %.0f ns/pkt is engine.pump_gap_ns_per_pkt (ring, pacing, boundaries, delivery, snapshot writes)",
			cov, session/n, (session-ladderNS)/n))
	}
}

// check compares every session against the ladder and each other, and
// applies the open-loop validity rules.
func check(r *result, w *workload, l *ladder, phases []*phaseResult) {
	var refOps struct {
		groups, cleanings, windows, out int64
	}
	byName := map[string]*ladderNode{}
	for _, nd := range l.nodes() {
		if nd.tap {
			continue
		}
		byName[nd.name] = nd
		st := nd.stats
		refOps.groups += st.GroupsCreated
		refOps.cleanings += st.Cleanings
		refOps.windows += st.Windows
		refOps.out += st.TuplesOut
	}
	for i, ph := range phases {
		tag := ph.name
		for _, p := range ph.problems {
			r.problem("%s: %s", tag, p)
		}
		for _, q := range w.queries {
			nd := byName[q.name]
			if ph.rows[q.name] != nd.rows || ph.digests[q.name] != nd.digest {
				r.problem("%s: query %s delivered %d rows (digest %016x), ladder reference %d (%016x)",
					tag, q.name, ph.rows[q.name], ph.digests[q.name], nd.rows, nd.digest)
			}
			if ph.rowsOut[q.name] != ph.rows[q.name] {
				r.problem("%s: query %s admitted %d rows, consumer received %d", tag, q.name, ph.rowsOut[q.name], ph.rows[q.name])
			}
			if qs, ok := ph.quota[q.name]; ok {
				if qs.Offered != qs.Admitted+qs.Shed {
					r.problem("%s: tenant %s offered %d != admitted %d + shed %d", tag, q.name, qs.Offered, qs.Admitted, qs.Shed)
				}
				if int64(qs.Admitted) != ph.rowsOut[q.name] {
					r.problem("%s: tenant %s admitted %d, rows out %d", tag, q.name, qs.Admitted, ph.rowsOut[q.name])
				}
				if int(qs.Offered) != len(nd.offered) {
					r.problem("%s: tenant %s offered %d rows, ladder produced %d", tag, q.name, qs.Offered, len(nd.offered))
				}
				if i > 0 && qs != phases[0].quota[q.name] {
					r.problem("%s: tenant %s quota state %+v differs from %s %+v", tag, q.name, qs, phases[0].name, phases[0].quota[q.name])
				}
			}
		}
		got := ph.ops
		if got.GroupsCreated != refOps.groups || got.Cleanings != refOps.cleanings ||
			got.Windows != refOps.windows || got.TuplesOut != refOps.out {
			r.problem("%s: operator counts groups=%d cleanings=%d windows=%d out=%d, ladder %d/%d/%d/%d",
				tag, got.GroupsCreated, got.Cleanings, got.Windows, got.TuplesOut,
				refOps.groups, refOps.cleanings, refOps.windows, refOps.out)
		}
		if ph.failedQueries > 0 {
			r.problem("%s: %d queries failed", tag, ph.failedQueries)
		}
		if ph.busyFrac > busyLimit {
			r.problem("%s: consumer busy %.2f of its time: the benchmark, not the engine, may be the bottleneck", tag, ph.busyFrac)
		}
		if !ph.paced {
			if ph.drops != 0 {
				r.problem("%s: %d packets dropped at the ring", tag, ph.drops)
			}
			continue
		}
		// Open-loop validity: no growing backlog.
		lags := ph.lags
		if q := len(lags) / 4; q > 0 {
			first := nsToFloats(lags[:q], 1e6)
			last := nsToFloats(lags[len(lags)-q:], 1e6)
			f, l := median(first), median(last)
			if l > max(4*f, f+backlogSlackMS) {
				r.problem("%s: backlog grows: median feed lag %.3f ms in the last quarter against %.3f ms in the first", tag, l, f)
			}
		}
	}
}

// backlogSlackMS is the growth in median feed lag, first quarter of the
// paced phase to last, below which the backlog counts as steady.
const backlogSlackMS = 20
