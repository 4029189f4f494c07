package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"streamop/internal/engine"
	"streamop/internal/operator"
	"streamop/internal/overload"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

const (
	// ringSize is the session's source ring (packets).
	ringSize = 8192
	// lagEvery samples the feed lag of one packet in lagEvery; the time
	// read stays off the other packets.
	lagEvery = 8
	// latencyLimit is the delivery deadline: a row later than this after
	// its due time counts as failed.
	latencyLimit = int64(time.Second)
	// heapEvery is the consumer's heap-sampling interval.
	heapEvery = 25 * time.Millisecond
	// busyLimit is the consumer busy share above which the benchmark, not
	// the engine, may be the bottleneck and the run is invalid.
	busyLimit = 0.9
)

// replay is the session's feed: the pre-generated packets in order. The
// program sees nothing else of the workload.
type replay struct {
	pkts []trace.Packet
	i    int
	// paced phases time the pump's pulls against each packet's due time.
	timed   bool
	speedup float64
	t0      int64 // when the pump first called Next
	lags    []int64
	// churn receives the packet count at every churn point.
	churn      chan int
	churnEvery int
	churnLast  int
	// exhausted closes when Next first reports the end of the feed.
	exhausted chan struct{}
	ended     bool
}

func newReplay(pkts []trace.Packet) *replay {
	return &replay{pkts: pkts, exhausted: make(chan struct{})}
}

// due is when packet timestamp ts is due under pacing, in now() units.
func (r *replay) due(ts uint64) int64 {
	return r.t0 + int64(float64(ts-r.pkts[0].Time)/r.speedup)
}

// Next implements trace.Feed. The pump calls it for packet i right after
// it took packet i-1 into the ring, so the call time is when i-1 was
// pulled; its lag is that time minus i-1's due time.
func (r *replay) Next() (trace.Packet, bool) {
	if r.i == 0 {
		r.t0 = now()
	} else if r.timed && (r.i-1)%lagEvery == 0 {
		r.lags = append(r.lags, now()-r.due(r.pkts[r.i-1].Time))
	}
	if r.churn != nil && r.i > 0 && r.i%r.churnEvery == 0 && r.i <= r.churnLast {
		r.churn <- r.i // buffered for every churn point: never blocks
	}
	if r.i >= len(r.pkts) {
		if !r.ended {
			r.ended = true
			if r.churn != nil {
				close(r.churn)
			}
			close(r.exhausted)
		}
		return trace.Packet{}, false
	}
	p := r.pkts[r.i]
	r.i++
	return p, true
}

// subState is the consumer's view of one subscription.
type subState struct {
	q      query
	ch     <-chan tuple.Tuple
	open   bool
	rows   int64
	digest uint64
}

// consumer is the one goroutine that reads every subscription.
type consumer struct {
	subs []*subState
	// paced phases measure delivery latency against feed's due times.
	feed   *replay
	paced  bool
	lastTS uint64 // rows whose window ends after this come from the final flush
	// lat holds delivery latencies by the end of the row's window.
	lat   map[uint64][]int64
	late  int64
	wait  int64 // time blocked on a receive
	total int64
	peak  uint64
	last  int64 // last heap sample
}

// heapInuse reads HeapInuse (heap objects plus unused space in in-use
// spans) from runtime/metrics, which unlike ReadMemStats does not stop
// the world under the pump.
func heapInuse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func (c *consumer) sampleHeap() {
	c.peak = max(c.peak, heapInuse())
	c.last = now()
}

func (c *consumer) take(s *subState, row tuple.Tuple) {
	s.rows++
	s.digest = digestRow(s.digest, row)
	if !c.paced {
		return
	}
	recv := now()
	end := (row[0].Uint() + 1) * s.q.windowSec * 1e9
	if end > c.lastTS {
		return // emitted by the end-of-stream flush
	}
	lat := recv - c.feed.due(end)
	c.lat[end] = append(c.lat[end], lat)
	if lat > latencyLimit {
		c.late++
	}
}

// drain takes what s has buffered without blocking; it reports whether
// it took anything.
func (c *consumer) drain(s *subState) bool {
	got := false
	for k := 0; k < 1024; k++ {
		select {
		case row, ok := <-s.ch:
			if !ok {
				s.open = false
				return true
			}
			c.take(s, row)
			got = true
		default:
			return got
		}
	}
	return got
}

// run reads until every subscription has closed (the session ended).
func (c *consumer) run() {
	start := now()
	c.sampleHeap()
	tick := time.NewTicker(heapEvery)
	defer tick.Stop()
	var cases []reflect.SelectCase
	var caseSub []*subState
	rebuild := func() {
		cases = cases[:0]
		caseSub = caseSub[:0]
		for _, s := range c.subs {
			if s.open {
				cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(s.ch)})
				caseSub = append(caseSub, s)
			}
		}
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(tick.C)})
	}
	rebuild()
	for len(caseSub) > 0 {
		got, closed := false, false
		for _, s := range caseSub {
			if c.drain(s) {
				got = true
			}
			closed = closed || !s.open
		}
		if now()-c.last > int64(heapEvery) {
			c.sampleHeap()
		}
		if !got {
			w := now()
			i, v, ok := reflect.Select(cases)
			c.wait += now() - w
			if i < len(caseSub) {
				if ok {
					c.take(caseSub[i], v.Interface().(tuple.Tuple))
				} else {
					caseSub[i].open = false
					closed = true
				}
			}
		}
		if closed {
			rebuild()
		}
	}
	c.sampleHeap()
	c.total = now() - start
}

func (c *consumer) busyFrac() float64 {
	if c.total <= 0 {
		return 0
	}
	return float64(c.total-c.wait) / float64(c.total)
}

// phase configures one session over the workload's packets.
type phase struct {
	name  string
	paced bool
	// traced adds the spans of the traced run: per-call Install and
	// Uninstall timing on an idle probe and the registry check.
	traced bool
	dir    string // snapshot directory
}

// phaseResult is everything one session measured and checked.
type phaseResult struct {
	phase
	packets  int
	setupNS  int64
	wallNS   int64
	cpuNS    int64
	mallocs  uint64
	drainNS  int64
	peakHeap uint64

	digests map[string]uint64
	rows    map[string]int64
	rowsOut map[string]int64
	quota   map[string]overload.QuotaSnapshot
	ops     operator.Stats

	lowBusy, highBusy int64
	fanoutRows        int64
	ringPeak          int
	drops             uint64
	subDropped        uint64
	failedQueries     int
	busyFrac          float64
	delivered         int64

	lat  map[uint64][]int64 // by window end
	late int64
	lags []int64 // in packet order

	installNS, uninstallNS []int64
	churnErrs              int
	churnOps               int

	recoverNS []int64
	snapshots uint64
	problems  []string
}

func (r *phaseResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setup builds a durable engine (snapshots in dir) with every pre-Start
// query installed: the part of a session timed as setup_s. installNS,
// when non-nil, receives each Install call's span.
func setup(w *workload, dir string, installNS *[]int64) (*engine.Engine, []*engine.QueryHandle, int64, error) {
	start := now()
	e, err := engine.New(ringSize)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := e.SetCheckpoint(w.checkpoint(dir)); err != nil {
		return nil, nil, 0, err
	}
	hs := make([]*engine.QueryHandle, len(w.queries))
	for i, q := range w.queries {
		t := now()
		if hs[i], err = e.Install(q.name, q.src, q.opts()); err != nil {
			return nil, nil, 0, fmt.Errorf("install %s: %w", q.name, err)
		}
		if installNS != nil {
			*installNS = append(*installNS, now()-t)
		}
	}
	return e, hs, now() - start, nil
}

// runPhase runs one session of w over pkts: setup, StartWith, the
// consumer, live churn, Drain, the counters, and a timed RestoreSession
// from the session's final snapshot.
func runPhase(w *workload, pkts []trace.Packet, ph phase) (*phaseResult, error) {
	res := &phaseResult{phase: ph, packets: len(pkts)}
	if err := os.RemoveAll(ph.dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(ph.dir)
	var installNS *[]int64
	if ph.traced {
		installNS = &res.installNS
	}
	e, hs, setupNS, err := setup(w, ph.dir, installNS)
	if err != nil {
		return nil, err
	}
	res.setupNS = setupNS
	if ph.traced {
		// An idle install/uninstall pair prices a compile and a teardown
		// on every workload, churn or not.
		probe := w.queries[0]
		t := now()
		_, err := e.Install("probe", probe.src, probe.opts())
		res.installNS = append(res.installNS, now()-t)
		if err != nil {
			return nil, fmt.Errorf("probe install: %w", err)
		}
		t = now()
		err = e.Uninstall("probe")
		res.uninstallNS = append(res.uninstallNS, now()-t)
		if err != nil {
			return nil, fmt.Errorf("probe uninstall: %w", err)
		}
	}

	feed := newReplay(pkts)
	feed.timed, feed.speedup = ph.paced, w.speedup()
	c := &consumer{feed: feed, paced: ph.paced, lastTS: pkts[len(pkts)-1].Time, lat: map[uint64][]int64{}}
	for i, h := range hs {
		sub := h.Subscribe()
		c.subs = append(c.subs, &subState{q: w.queries[i], ch: sub.C(), open: true, digest: fnvOffset})
	}
	if w.churn != nil {
		feed.churnEvery = w.churnEvery
		// The last churn point leaves half an interval for the pump to
		// apply it before the feed ends.
		feed.churnLast = len(pkts) - w.churnEvery/2
		feed.churn = make(chan int, len(pkts)/w.churnEvery+1)
	}

	opts := engine.StartOptions{}
	if ph.paced {
		opts.Speedup = w.speedup()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	cpu0, wall0 := cpuNS(), now()
	if err := e.StartWith(context.Background(), feed, opts); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	consumed := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(consumed)
		c.run()
	}()
	live := map[string]bool{}
	for _, q := range w.queries {
		live[q.name] = true
	}
	if feed.churn != nil {
		// Churn runs on its own goroutine: a live Install waits for the
		// pump's next boundary, and the pump may be waiting on the
		// consumer's subscriptions.
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for range feed.churn {
				q := w.churn
				name := fmt.Sprintf("%s_%d", q.name, n/2)
				t := now()
				var err error
				if n%2 == 0 {
					_, err = e.Install(name, q.src, q.opts())
					res.installNS = append(res.installNS, now()-t)
					live[name] = err == nil
				} else {
					err = e.Uninstall(name)
					res.uninstallNS = append(res.uninstallNS, now()-t)
					live[name] = err != nil && live[name]
				}
				res.churnOps++
				if err != nil {
					res.churnErrs++
					fmt.Fprintf(os.Stderr, "perfbench: churn %s: %v\n", name, err)
				}
				n++
			}
		}()
	}
	// The feed running dry starts the drain. A session that ends before
	// that closes every subscription, which ends the consumer.
	select {
	case <-feed.exhausted:
	case <-consumed:
	}
	t := now()
	drainErr := e.Drain()
	end := now()
	if !feed.ended && feed.churn != nil {
		close(feed.churn) // the pump has exited: the feed sends no more
	}
	res.drainNS = end - t
	res.wallNS = end - wall0
	res.cpuNS = cpuNS() - cpu0
	runtime.ReadMemStats(&ms)
	res.mallocs = ms.Mallocs - mallocs0
	wg.Wait()
	if drainErr != nil {
		return nil, fmt.Errorf("drain: %w", drainErr)
	}

	res.lat, res.late, res.lags = c.lat, c.late, feed.lags
	res.peakHeap = c.peak
	res.busyFrac = c.busyFrac()
	res.digests = map[string]uint64{}
	res.rows = map[string]int64{}
	res.rowsOut = map[string]int64{}
	res.quota = map[string]overload.QuotaSnapshot{}
	for i, s := range c.subs {
		q := w.queries[i]
		res.digests[q.name] = s.digest
		res.rows[q.name] = s.rows
		res.delivered += s.rows
		res.rowsOut[q.name] = hs[i].RowsOut()
		res.subDropped += hs[i].Dropped() // every subscription's drops
		if q.quota.Enabled() {
			res.quota[q.name] = hs[i].QuotaState()
		}
	}
	res.failedQueries = len(e.Failures())
	res.ringPeak = e.RingPeak()
	res.drops = e.Drops()

	// Per-node counters, read after Drain (the pump has exited). Nodes
	// that are not standing queries are taps; churned queries are left
	// out of the operator counts, which must repeat exactly.
	byName := map[string]query{}
	for _, q := range w.queries {
		byName[q.name] = q
	}
	highPerTap := map[string]int64{}
	for _, q := range w.queries {
		if q.high() {
			highPerTap[q.from()]++
		}
	}
	for _, n := range e.Nodes() {
		st := n.Stats()
		q, isQuery := byName[st.Name]
		if isQuery && q.high() {
			res.highBusy += int64(st.Busy)
		} else {
			res.lowBusy += int64(st.Busy)
		}
		if !isQuery && highPerTap[st.Name] > 0 {
			res.fanoutRows += st.TuplesOut * highPerTap[st.Name]
		}
		if isQuery {
			res.ops = addStats(res.ops, st.Operator)
		}
	}

	// The registry live at Drain is what a restore must bring back.
	var want []string
	for name, ok := range live {
		if ok {
			want = append(want, name)
		}
	}
	var installed []string
	for _, h := range e.Installed() {
		installed = append(installed, h.Name())
	}
	sort.Strings(want)
	sort.Strings(installed)
	if fmt.Sprint(want) != fmt.Sprint(installed) {
		res.problem("registry at Drain %v, benchmark expected %v", installed, want)
	}
	for i := 0; i < restoreRepeats; i++ {
		if err := restore(w, ph.dir, want, len(pkts), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// restoreRepeats is how many times each session's final snapshot is
// restored; recover_s is the median.
const restoreRepeats = 3

// restore times RestoreSession on a fresh engine from the session's final
// snapshot and checks it brings back the registry live at Drain.
func restore(w *workload, dir string, want []string, packets int, res *phaseResult) error {
	runtime.GC()
	t := now()
	re, err := engine.New(ringSize)
	if err != nil {
		return err
	}
	if err := re.SetCheckpoint(w.checkpoint(dir)); err != nil {
		return err
	}
	info, err := re.RestoreSession()
	res.recoverNS = append(res.recoverNS, now()-t)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	res.snapshots = info.Seq
	got := append([]string(nil), info.Queries...)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		res.problem("RestoreSession registry %v, live at Drain %v", got, want)
	}
	if info.Packets != int64(packets) {
		res.problem("RestoreSession resumes after %d packets, session took %d", info.Packets, packets)
	}
	return nil
}

func addStats(a, b operator.Stats) operator.Stats {
	a.TuplesIn += b.TuplesIn
	a.TuplesAccepted += b.TuplesAccepted
	a.GroupsCreated += b.GroupsCreated
	a.GroupsEvicted += b.GroupsEvicted
	a.Cleanings += b.Cleanings
	a.Windows += b.Windows
	a.TuplesOut += b.TuplesOut
	return a
}
