package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"

	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/overload"
	"streamop/internal/ringbuf"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// The layer ladder replays the workload's packets through the same plans
// the session runs, single-threaded, calling each layer's public
// functions directly and timing each call. Its rows are the reference the
// sessions' output must match, and its per-layer costs are the baseline
// the session's cost is reconciled against.

// batchRows matches the engine pump's ring pop size.
const batchRows = 512

// ladderNode is one plan of the workload: a tap, a FROM PKT query or a
// high-level query over a tap.
type ladderNode struct {
	name string
	q    query // zero for taps
	tap  bool
	plan *gsql.Plan
	op   *operator.Operator
	vp   *gsql.VecPlan
	env  gsql.VecEnv
	gb   []*tuple.Column
	mask tuple.Bitmap
	kids []*ladderNode
	// queue holds a high-level node's pending input rows.
	queue []tuple.Tuple
	// gate mirrors a quota'd query's admission, on the stream clock of
	// the packet batch being processed.
	gate *overload.TenantGate
	now  *uint64

	rows   int64
	digest uint64
	// offered is every row the query produced, before admission.
	offered []admission

	busyNS   int64 // ProcessBatch+Flush (low) or Process+Flush (high)
	kernelNS int64
	closeNS  []int64 // per-batch spans that closed a window
	openNS   []int64 // per-batch spans that did not
	windows  int64
	stats    operator.Stats // the operator's counters once the replay ended
}

// admission is one row offered to a quota gate, kept for the admission
// ladder.
type admission struct {
	bytes int
	now   uint64
}

func (n *ladderNode) emit(row tuple.Tuple) error {
	if n.tap {
		for _, k := range n.kids {
			k.queue = append(k.queue, row.Clone())
		}
		return nil
	}
	a := admission{bytes: 8 * len(row), now: *n.now}
	n.offered = append(n.offered, a)
	if n.gate != nil && !n.gate.Admit(a.bytes, a.now) {
		return nil
	}
	n.rows++
	n.digest = digestRow(n.digest, row)
	return nil
}

// ladder is the compiled topology plus its measurements.
type ladder struct {
	w    *workload
	low  []*ladderNode // taps and FROM PKT queries, install order
	high []*ladderNode
	twin *ladderNode // ESTIMATE's plain twin, priced only when traced
	// twinNS is the twin's ProcessBatch+Flush time.
	twinNS int64
	clock  uint64

	ringNS    int64
	convNS    int64
	convAll   uint64
	lowAll    uint64
	snapBytes int
	encodeNS  []int64
	writeNS   []int64
	readNS    []int64
	compileNS []float64 // per-query median compile time
	admitNS   float64   // per offered row
}

func compile(src string, schema *tuple.Schema, seed uint64) (*gsql.Plan, error) {
	parsed, err := gsql.Parse(src)
	if err != nil {
		return nil, err
	}
	return gsql.Analyze(parsed, schema, sfunlib.Default(seed))
}

// newLadder compiles w's plans the way the engine's Install does: a tap
// compiles with the seed of the install that creates it, every query
// with its own.
func newLadder(w *workload, withTwin bool) (*ladder, error) {
	l := &ladder{w: w}
	taps := map[string]*ladderNode{}
	newNode := func(name string, plan *gsql.Plan) (*ladderNode, error) {
		n := &ladderNode{name: name, plan: plan, digest: fnvOffset, now: &l.clock}
		if vp, ok := gsql.Vectorize(plan); ok {
			n.vp = vp
		}
		var err error
		n.op, err = operator.New(plan, n.emit)
		return n, err
	}
	for _, q := range w.queries {
		var parent *ladderNode
		schema := trace.Schema()
		if q.high() {
			parent = taps[q.from()]
			if parent == nil {
				plan, err := compile(q.via, trace.Schema(), q.seed)
				if err != nil {
					return nil, fmt.Errorf("tap %s: %w", q.from(), err)
				}
				if parent, err = newNode(q.from(), plan); err != nil {
					return nil, err
				}
				parent.tap = true
				taps[q.from()] = parent
				l.low = append(l.low, parent)
			}
			var err error
			if schema, err = parent.plan.OutputSchema(parent.name); err != nil {
				return nil, err
			}
		}
		plan, err := compile(q.src, schema, q.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		n, err := newNode(q.name, plan)
		if err != nil {
			return nil, err
		}
		n.q = q
		if q.quota.Enabled() {
			n.gate = overload.NewTenantGate(q.quota)
		}
		if parent != nil {
			parent.kids = append(parent.kids, n)
			l.high = append(l.high, n)
		} else {
			l.low = append(l.low, n)
		}
	}
	if withTwin && w.twin != "" {
		var est query
		for _, q := range w.queries {
			if q.name == w.estimate {
				est = q
			}
		}
		for _, q := range w.queries {
			if q.name != w.twin {
				continue
			}
			// Same seed as the ESTIMATE query: the twin samples the same
			// packets, so the difference is the estimator alone.
			plan, err := compile(q.src, trace.Schema(), est.seed)
			if err != nil {
				return nil, err
			}
			if l.twin, err = newNode("twin", plan); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

// nodes returns every plan of the workload, low level first.
func (l *ladder) nodes() []*ladderNode {
	return append(append([]*ladderNode(nil), l.low...), l.high...)
}

// heapAllocs reads the runtime's cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// run replays pkts through every layer. traced adds the stages that
// exist only to be priced: the ring and conversion passes, the separate
// kernel pass, the twin and the snapshot of the largest state.
func (l *ladder) run(pkts []trace.Packet, traced bool, dir string) error {
	if traced {
		if err := l.ringPass(pkts); err != nil {
			return err
		}
		l.convertPass(pkts)
	}
	b := tuple.NewBatch(trace.Schema(), batchRows)
	for off := 0; off < len(pkts); off += batchRows {
		chunk := pkts[off:min(off+batchRows, len(pkts))]
		b.Reset()
		trace.AppendBatch(b, chunk)
		l.clock = chunk[len(chunk)-1].Time
		if traced {
			for _, n := range l.low {
				if err := n.kernels(b); err != nil {
					return err
				}
			}
		}
		// The twin runs before the workload's plans on even batches and
		// after them on odd ones, so neither side of the estimate.*
		// difference always finds the batch warm in cache.
		twinFirst := (off/batchRows)%2 == 0
		if l.twin != nil && twinFirst {
			if err := l.twin.processBatch(b); err != nil {
				return err
			}
		}
		a0 := heapAllocs()
		for _, n := range l.low {
			if err := n.processBatch(b); err != nil {
				return err
			}
		}
		l.lowAll += heapAllocs() - a0
		if l.twin != nil && !twinFirst {
			if err := l.twin.processBatch(b); err != nil {
				return err
			}
		}
		if err := l.drainHigh(); err != nil {
			return err
		}
	}
	if traced {
		if err := l.snapshotPass(dir); err != nil {
			return err
		}
	}
	a0 := heapAllocs()
	for _, n := range l.low {
		t := now()
		if err := n.op.Flush(); err != nil {
			return fmt.Errorf("%s: flush: %w", n.name, err)
		}
		n.busyNS += now() - t
	}
	l.lowAll += heapAllocs() - a0
	if l.twin != nil {
		t := now()
		if err := l.twin.op.Flush(); err != nil {
			return fmt.Errorf("twin: flush: %w", err)
		}
		l.twin.busyNS += now() - t
	}
	if err := l.drainHigh(); err != nil {
		return err
	}
	for _, n := range l.high {
		t := now()
		if err := n.op.Flush(); err != nil {
			return fmt.Errorf("%s: flush: %w", n.name, err)
		}
		n.busyNS += now() - t
	}
	if traced {
		l.compilePass()
		l.admitPass()
	}
	l.release()
	return nil
}

// release keeps each node's counters and drops its operator state, which
// the sessions that follow would otherwise have to share memory with.
func (l *ladder) release() {
	for _, n := range l.nodes() {
		n.stats = n.op.Stats()
		n.op, n.plan, n.vp, n.env, n.gb, n.mask, n.queue = nil, nil, nil, gsql.VecEnv{}, nil, nil, nil
	}
	if l.twin != nil {
		l.twinNS, l.twin = l.twin.busyNS, nil
	}
}

func (n *ladderNode) processBatch(b *tuple.Batch) error {
	w0 := n.op.Stats().Windows
	t := now()
	err := n.op.ProcessBatch(b)
	n.span(now()-t, w0)
	if err != nil {
		return fmt.Errorf("%s: %w", n.name, err)
	}
	return nil
}

// span books one per-batch processing span, apart by whether it closed a
// window (window_close_us prices the difference).
func (n *ladderNode) span(dt, windowsBefore int64) {
	n.busyNS += dt
	if w := n.op.Stats().Windows; w != windowsBefore {
		n.closeNS = append(n.closeNS, dt)
		n.windows += w - windowsBefore
	} else {
		n.openNS = append(n.openNS, dt)
	}
}

// kernels runs the plan's stateless column kernels over b, as
// ProcessBatch's up-front pass does; they do not mutate the operator.
func (n *ladderNode) kernels(b *tuple.Batch) error {
	vp := n.vp
	if vp == nil {
		return nil
	}
	t := now()
	defer func() { n.kernelNS += now() - t }()
	n.env.Reset(b)
	n.gb = n.gb[:0]
	for _, e := range vp.GroupBy {
		col, err := e.EvalCol(&n.env)
		if err != nil {
			return err
		}
		n.gb = append(n.gb, col)
	}
	n.env.SetGroupCols(n.gb)
	if vp.Where != nil {
		m, err := vp.Where.EvalTruth(&n.env, n.mask)
		n.mask = m
		if err != nil {
			return err
		}
	}
	if vp.WhereCall != nil {
		if err := vp.WhereCall.EvalArgs(&n.env); err != nil {
			return err
		}
	}
	for _, list := range [][]*gsql.VecExpr{vp.AggArgs, vp.SuperArgs} {
		for _, e := range list {
			if e == nil {
				continue
			}
			if _, err := e.EvalCol(&n.env); err != nil {
				return err
			}
		}
	}
	if vp.CleanWhenCall != nil {
		return vp.CleanWhenCall.EvalArgs(&n.env)
	}
	return nil
}

// drainHigh runs every high-level node's queued rows through the scalar
// Process, as the engine's pump does.
func (l *ladder) drainHigh() error {
	for _, n := range l.high {
		if len(n.queue) == 0 {
			continue
		}
		w0 := n.op.Stats().Windows
		t := now()
		for _, row := range n.queue {
			if err := n.op.Process(row); err != nil {
				return fmt.Errorf("%s: %w", n.name, err)
			}
		}
		n.span(now()-t, w0)
		clear(n.queue)
		n.queue = n.queue[:0]
	}
	return nil
}

// ringPass pushes every packet through a ring of the session's size and
// pops it in pump-sized batches.
func (l *ladder) ringPass(pkts []trace.Packet) error {
	r, err := ringbuf.New[trace.Packet](ringSize)
	if err != nil {
		return err
	}
	out := make([]trace.Packet, batchRows)
	t := now()
	for off := 0; off < len(pkts); off += ringSize {
		for _, p := range pkts[off:min(off+ringSize, len(pkts))] {
			r.Push(p)
		}
		for r.PopBatch(out) > 0 {
		}
	}
	l.ringNS = now() - t
	return nil
}

// convertPass converts every packet into a reused columnar batch.
func (l *ladder) convertPass(pkts []trace.Packet) {
	b := tuple.NewBatch(trace.Schema(), batchRows)
	a0 := heapAllocs()
	t := now()
	for off := 0; off < len(pkts); off += batchRows {
		b.Reset()
		trace.AppendBatch(b, pkts[off:min(off+batchRows, len(pkts))])
	}
	l.convNS = now() - t
	l.convAll = heapAllocs() - a0
}

// snapshotRepeats is how many times the snapshot stages run; each
// reports its median.
const snapshotRepeats = 3

// snapshotPass encodes every node's state at the end-of-stream boundary,
// the largest-state boundary of these workloads (their streams end where
// their last window is full, and durable_churn's 60-s window only
// grows), then writes and reads the snapshot file.
func (l *ladder) snapshotPass(dir string) error {
	nodes := l.nodes()
	for i := 0; i < snapshotRepeats; i++ {
		t := now()
		enc := checkpoint.NewEncoder()
		for _, n := range nodes {
			if err := n.op.Snapshot(enc); err != nil {
				return fmt.Errorf("%s: snapshot: %w", n.name, err)
			}
		}
		payload := enc.Bytes()
		l.encodeNS = append(l.encodeNS, now()-t)
		l.snapBytes = len(payload)
		t = now()
		path, err := checkpoint.WriteFile(dir, uint64(i+1), payload)
		l.writeNS = append(l.writeNS, now()-t)
		if err != nil {
			return err
		}
		t = now()
		if _, err := checkpoint.ReadFile(path); err != nil {
			return err
		}
		l.readNS = append(l.readNS, now()-t)
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return os.RemoveAll(filepath.Clean(dir))
}

// compileRepeats is how many times each query compiles; the median
// prices one compile.
const compileRepeats = 15

// compilePass prices Parse + Analyze + Vectorize of every query.
func (l *ladder) compilePass() {
	for _, q := range l.w.queries {
		var ts []float64
		for i := 0; i < compileRepeats; i++ {
			t := now()
			schema := trace.Schema()
			if q.high() {
				// The tap's plan is part of the first install's compile.
				tp, err := compile(q.via, trace.Schema(), q.seed)
				if err != nil {
					continue
				}
				if schema, err = tp.OutputSchema(q.from()); err != nil {
					continue
				}
			}
			plan, err := compile(q.src, schema, q.seed)
			if err != nil {
				continue
			}
			gsql.Vectorize(plan)
			ts = append(ts, float64(now()-t))
		}
		l.compileNS = append(l.compileNS, median(ts))
	}
}

// admitPass prices TenantGate.Admit over every row the workload's
// queries offered, under the over-budget tenant's quota (or a quota of
// the same shape where no query has one), repeated until the timed loop
// spans at least 20 ms.
func (l *ladder) admitPass() {
	var rows []admission
	quota := overload.Quota{Rows: 4800, BurstSec: 0.25}
	for _, n := range l.nodes() {
		rows = append(rows, n.offered...)
		if n.gate != nil {
			quota = n.q.quota
		}
	}
	if len(rows) == 0 {
		return
	}
	var calls, spent int64
	for spent < 20e6 {
		g := overload.NewTenantGate(quota)
		t := now()
		for _, a := range rows {
			g.Admit(a.bytes, a.now)
		}
		spent += now() - t
		calls += int64(len(rows))
	}
	l.admitNS = float64(spent) / float64(calls)
}
