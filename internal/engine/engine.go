// Package engine implements the two-level Gigascope architecture of the
// paper's Figure 1: a packet source feeds a ring buffer; low-level query
// nodes drain the ring, performing early data reduction (selection, partial
// aggregation, pushed-down basic sampling); high-level nodes consume the
// tuple streams low-level nodes produce; applications subscribe to any
// node.
//
// The engine substitutes for the paper's dual-CPU testbed: node cost is
// measured as wall-clock nanoseconds spent inside each node's processing
// loop, and utilization is that busy time divided by the simulated
// duration of the packet stream — the fraction of one CPU the node needs
// to keep up with the offered load, the quantity Figures 5 and 6 plot.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/overload"
	"streamop/internal/profile"
	"streamop/internal/ringbuf"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
)

// NodeStats reports one node's activity and cost.
type NodeStats struct {
	Name      string
	TuplesIn  int64
	TuplesOut int64
	// Busy is the wall-clock time spent inside this node's processing
	// loop (including per-tuple conversion for low-level nodes).
	Busy time.Duration
	// Operator carries the underlying operator's counters.
	Operator operator.Stats
}

// Node is one query node. Low-level nodes consume packets; high-level
// nodes consume another node's output tuples.
type Node struct {
	name     string
	plan     *gsql.Plan
	op       *operator.Operator
	schema   *tuple.Schema // output schema
	parent   *Node         // high-level nodes: the node whose output this one reads
	subs     []*Node
	apps     []func(tuple.Tuple) error
	queue    []tuple.Tuple // pending input for high-level nodes
	busy     time.Duration
	tuplesIn int64
	out      int64
	low      bool
	// Failure containment (see recovery.go): a panic inside the node's
	// operator marks the node failed instead of crashing the process. The
	// fields are owned by the pump; cross-goroutine readers go through
	// Engine.Failures.
	failed    bool
	failMsg   string
	failStack string
	// nm holds this node's telemetry gauges; nil when uninstrumented.
	nm *nodeMetrics
	// prof is this node's cost profile; nil when profiling is off (see
	// profile.go).
	prof *profile.NodeProfile
	// inBatch is the node's columnar input scratch (see batch.go), lazily
	// created.
	inBatch *tuple.Batch
	// Provenance tracing (see tracing.go). tr is nil when tracing is off;
	// trEnq/trDeq count this node's queued input rows so traces can ride on
	// FIFO position instead of tuple metadata.
	tr     *tracing.Tracer
	trEnq  uint64
	trDeq  uint64
	trPend []nodeTrace
}

// Schema returns the node's output stream schema.
func (n *Node) Schema() *tuple.Schema { return n.schema }

// Subscribe registers an application callback for the node's output.
func (n *Node) Subscribe(fn func(tuple.Tuple) error) { n.apps = append(n.apps, fn) }

// Stats returns the node's counters.
func (n *Node) Stats() NodeStats {
	st := NodeStats{
		Name:      n.name,
		TuplesIn:  n.tuplesIn,
		TuplesOut: n.out,
		Busy:      n.busy,
	}
	if n.op != nil { // partial-aggregation nodes have no operator
		st.Operator = n.op.Stats()
	}
	return st
}

// emit fans one output row out to subscribers and applications. Each
// subscriber receives its own copy, and the copy is charged to this node:
// Gigascope pays a per-tuple copy to move data from a low-level query into
// a high-level query's buffer, and that copy cost — proportional to the
// number of forwarded tuples — is what the paper's Figure 6 low-level
// numbers measure.
func (n *Node) emit(row tuple.Tuple) error {
	n.out++
	var tts []*tracing.TupleTrace
	if n.tr != nil {
		tts = n.tr.TakeEmitting()
	}
	for si, sub := range n.subs {
		sub.queue = append(sub.queue, row.Clone())
		if n.tr != nil {
			// A traced row follows its first subscriber only, keyed by
			// FIFO position in the subscriber's enqueue order.
			if si == 0 && len(tts) > 0 {
				sub.enqueueTrace(n.name, tts)
			}
			sub.trEnq++
		}
	}
	if len(tts) > 0 && len(n.subs) == 0 {
		// Application boundary: the traced tuple's group reached the DAG's
		// edge — the one successful terminal disposition.
		for _, tt := range tts {
			tt.Finish("emitted")
		}
	}
	for _, app := range n.apps {
		if err := app(row); err != nil {
			return err
		}
	}
	return nil
}

// Engine wires a packet feed to a tree of query nodes and runs them to
// completion, single-threaded and deterministic.
type Engine struct {
	ring       *ringbuf.Ring[trace.Packet]
	low        []*Node
	lowPartial []*PartialNode
	high       []*Node // topological order (parents before children)
	names      map[string]bool

	// Stream counters are atomics: the pump goroutine writes them
	// per-packet while HTTP handlers (gsqd's /healthz, the telemetry
	// surface) read them mid-run.
	firstTS, lastTS atomic.Uint64
	packets         atomic.Int64
	sawPacket       atomic.Bool

	// Telemetry (see telemetry.go); ringPeak tracks the source ring's
	// high-water mark unconditionally.
	tel      *telemetry.Collector
	sm       *sourceMetrics
	ringPeak atomic.Int64

	// Provenance tracer (see tracing.go); nil when tracing is off.
	tr *tracing.Tracer

	// Cost profiling (see profile.go); the pointer is atomic so the
	// /debug/profile HTTP source can read it mid-run.
	profFields

	// Checkpoint schedule and restore state (see checkpoint.go); nil when
	// checkpointing is off.
	ckpt *ckptState

	// Contained node failures (see recovery.go), mutex-guarded because
	// /debug reads them live.
	failMu   sync.Mutex
	failures []NodeFailure

	// Overload admission and fault injection (see overload.go).
	gateRegistry

	// Standing-query session state (see session.go).
	sessionFields
}

// New returns an engine with a ring buffer of the given capacity
// (Gigascope uses fixed-size buffers at the low level).
func New(ringSize int) (*Engine, error) {
	ring, err := ringbuf.New[trace.Packet](ringSize)
	if err != nil {
		return nil, err
	}
	e := &Engine{ring: ring, names: map[string]bool{}}
	e.handles = map[string]*QueryHandle{}
	e.taps = map[string]*tap{}
	if c := telemetry.Default(); c.Enabled() {
		e.SetCollector(c)
	}
	if tr := tracing.Default(); tr != nil {
		e.SetTracer(tr)
	}
	return e, nil
}

func (e *Engine) checkName(name string) error {
	if name == "" {
		return fmt.Errorf("engine: node name must not be empty")
	}
	if e.names[name] {
		return fmt.Errorf("engine: duplicate node name %q", name)
	}
	e.names[name] = true
	return nil
}

// AddLowLevel registers a low-level query node: its plan must read the PKT
// schema. Low-level queries perform the early data reduction Gigascope
// depends on; currently selection and sampling/aggregation plans are both
// accepted (the paper notes real Gigascope restricts low-level nodes to
// selection and partial aggregation — the CPU experiments quantify why).
func (e *Engine) AddLowLevel(name string, plan *gsql.Plan) (*Node, error) {
	if plan.Schema.Name() != trace.Schema().Name() {
		return nil, fmt.Errorf("engine: low-level node %q must read PKT, got %q", name, plan.Schema.Name())
	}
	schema, err := plan.OutputSchema(name)
	if err != nil {
		return nil, err
	}
	if err := e.checkName(name); err != nil {
		return nil, err
	}
	n := &Node{name: name, plan: plan, schema: schema, low: true}
	n.op, err = operator.New(plan, n.emit)
	if err != nil {
		return nil, err
	}
	if e.tel != nil {
		e.instrumentNode(n)
	}
	if e.tr != nil {
		n.attachTracer(e.tr)
	}
	e.low = append(e.low, n)
	return n, nil
}

// AddHighLevel registers a high-level node reading parent's output stream.
func (e *Engine) AddHighLevel(name string, parent *Node, plan *gsql.Plan) (*Node, error) {
	if parent == nil {
		return nil, fmt.Errorf("engine: high-level node %q needs a parent", name)
	}
	if plan.Schema != parent.schema {
		return nil, fmt.Errorf("engine: node %q plan must be analyzed against parent %q's output schema", name, parent.name)
	}
	schema, err := plan.OutputSchema(name)
	if err != nil {
		return nil, err
	}
	if err := e.checkName(name); err != nil {
		return nil, err
	}
	n := &Node{name: name, plan: plan, schema: schema, parent: parent}
	n.op, err = operator.New(plan, n.emit)
	if err != nil {
		return nil, err
	}
	if e.tel != nil {
		e.instrumentNode(n)
	}
	if e.tr != nil {
		n.attachTracer(e.tr)
	}
	parent.subs = append(parent.subs, n)
	e.high = append(e.high, n)
	return n, nil
}

// Run drains the feed through the node tree to completion.
func (e *Engine) Run(feed trace.Feed) error {
	return e.RunContext(context.Background(), feed)
}

// RunContext is Run with cancellation: when ctx is cancelled the producer
// stops taking packets from the feed, the ring drains, every node flushes
// its open windows bottom-up (so telemetry stays boundary-consistent),
// and RunContext returns ctx.Err(). A context.Background() run is
// identical to Run.
func (e *Engine) RunContext(ctx context.Context, feed trace.Feed) error {
	if err := e.beginRun(); err != nil {
		return err
	}
	defer e.endRun()
	return e.pump(ctx, feed, nil, nil)
}

// pump is the drain/flush loop every run mode shares: the one-shot Run
// (s == nil, p == nil), standing-query sessions (s != nil: queued
// Install/Uninstall commands apply at ring-drained boundaries, the feed is
// paced against the wall clock, and Drain ends the stream gracefully; see
// session.go) and RunParallel (p != nil: a producer goroutine owns the
// feed and fills the ring concurrently; see parallel.go). Each cycle moves
// packets into the source ring, drains them through every node, and ends
// at a boundary where every popped packet has settled — the one place a
// snapshot or a topology change may happen.
func (e *Engine) pump(ctx context.Context, feed trace.Feed, s *session, p *producer) error {
	if s == nil && len(e.low) == 0 && len(e.lowPartial) == 0 {
		return fmt.Errorf("engine: no low-level nodes")
	}
	if err := e.checkpointRunnable(p != nil && p.speedup > 0); err != nil {
		return err
	}
	if ck := e.ckpt; ck != nil {
		// A base snapshot at the first boundary: even a kill right after
		// the start recovers the pre-start topology.
		ck.regDirty = true
	}
	feed = e.faults.Wrap(feed)
	// The source ring has one admission gate, owned by whichever goroutine
	// offers packets. An unpaced producer waits for ring space instead, so
	// its runs are ungated.
	e.srcGate = nil
	if p == nil || p.speedup > 0 {
		e.srcGate = e.newGate(e.resolveOverload(e.sourcePlan(), "source", "0"), e.ring, "source", "0")
	}
	e.pubGate.Store(e.srcGate)
	e.applyRestoredGate()
	e.resumeFastForward(feed)
	if p != nil {
		p.start(ctx, e, feed)
		defer p.stop()
	}
	// ctxDone is nil for context.Background(), keeping the cancellation
	// check off the packet loop entirely in the common case.
	ctxDone := ctx.Done()
	cancelled := false
	const batch = 512
	pkts := make([]trace.Packet, batch)
	scratch := make(tuple.Tuple, trace.NumFields)
	done := false
	for !done {
		if s != nil {
			// Ring drained, every node settled: the safe boundary for
			// topology changes, exactly like the checkpoint boundary below.
			s.applyCommands()
		}
		// A registry change (install/uninstall, or the run's start)
		// snapshots immediately: the durable registry must never trail
		// the live topology by more than one boundary.
		if ck := e.ckpt; ck != nil && ck.regDirty {
			if err := e.writeCheckpoint(); err != nil {
				return err
			}
		}
		if p != nil {
			done = p.wait()
		} else {
			done, cancelled = e.fill(feed, s, ctxDone)
		}
		e.noteRingPeak()
		e.syncSourceRing()
		if err := e.drainRing(pkts, scratch, p != nil); err != nil {
			return err
		}
		if p == nil {
			e.srcGate.sync()
		}
		e.syncProfiles()
		if s != nil {
			e.syncQuotaMetrics()
		}
		// Every popped packet has settled in every node: the one place
		// the pump can snapshot a resumable state.
		if err := e.maybeCheckpoint(); err != nil {
			return err
		}
	}
	if p != nil {
		cancelled = p.finish()
	}
	// The final snapshot precedes the bottom-up flush that mutates every
	// open window: it must describe the state a restored run resumes
	// from, not the flushed aftermath.
	if e.ckpt != nil {
		if err := e.writeCheckpoint(); err != nil {
			return err
		}
	}
	// End of stream (or cancellation): flush bottom-up.
	for _, low := range e.low {
		if low.failed {
			continue
		}
		if err := e.guardNode(low, func() error {
			start := time.Now()
			err := low.op.Flush()
			low.busy += time.Since(start)
			if err != nil {
				return fmt.Errorf("engine: node %q: %w", low.name, err)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if err := e.flushPartial(); err != nil {
		return err
	}
	if err := e.drainHigh(); err != nil {
		return err
	}
	for _, h := range e.high {
		if !h.failed {
			if err := e.guardNode(h, func() error {
				start := time.Now()
				err := h.op.Flush()
				h.busy += time.Since(start)
				if err != nil {
					return fmt.Errorf("engine: node %q: %w", h.name, err)
				}
				return nil
			}); err != nil {
				return err
			}
		}
		if err := e.drainHigh(); err != nil {
			return err
		}
	}
	for _, n := range e.Nodes() {
		n.syncTelemetry(0)
	}
	e.syncSourceRing()
	e.syncProfiles()
	if e.srcGate != nil {
		e.srcGate.sync()
	}
	if s != nil {
		e.syncQuotaMetrics()
	}
	// Safety net: any trace still in flight (e.g. queued behind a node with
	// no low-level consumer) terminates rather than leaking open.
	e.tr.FinishOpen("stream_end")
	if cancelled {
		return ctx.Err()
	}
	return nil
}

// fill is the pump's own producer (Run and sessions): it takes packets
// from the feed into the source ring until the ring is full, the stream
// ends (done), or a session needs the pump back — a queued command, or a
// pacing wait that put the pump at the live edge, where buffered rows
// should drain now instead of sitting until the ring fills.
func (e *Engine) fill(feed trace.Feed, s *session, ctxDone <-chan struct{}) (done, cancelled bool) {
	for taken := 0; e.ring.Len() < e.ring.Cap(); taken++ {
		if ctxDone != nil {
			select {
			case <-ctxDone:
				return true, true
			default:
			}
		}
		if s != nil {
			if s.drained() {
				return true, false
			}
			// A pending command takes the pump back only once this cycle
			// has taken a packet: a command stream that outpaces the
			// boundary snapshots must not starve the feed.
			if taken > 0 && s.cmdPending() {
				return false, false
			}
		}
		p, ok := feed.Next()
		if !ok {
			return true, false
		}
		liveEdge := s != nil && s.pace(p.Time)
		e.advance(p.Time, p.Time, 1)
		e.offerSource(p)
		if liveEdge {
			return false, false
		}
	}
	return false, false
}

// advance adds n packets spanning timestamps [first, last] to the stream
// counters a snapshot records. Only the pump calls it, so a snapshot at
// a pump boundary counts exactly the packets every node has settled.
func (e *Engine) advance(first, last uint64, n int64) {
	if !e.sawPacket.Load() {
		e.firstTS.Store(first)
		e.sawPacket.Store(true)
	}
	e.lastTS.Store(last)
	e.packets.Add(n)
}

// drainRing pops up to one ring's worth of packets in batches and runs
// each batch through every low-level node, settling the high level after
// each. The budget ends a cycle even while a concurrent producer keeps
// the ring full. count makes the popped packets advance the stream
// counters (RunParallel, whose producer counts only its own offers).
func (e *Engine) drainRing(pkts []trace.Packet, scratch tuple.Tuple, count bool) error {
	for budget := e.ring.Cap(); budget > 0; {
		base := e.ring.Popped()
		var dt int64
		if e.srcProf != nil {
			dt = profile.Now()
		}
		n := e.ring.PopBatch(pkts[:min(len(pkts), budget)])
		if e.srcProf != nil {
			e.srcProf.AddExact(profile.StageDequeue, profile.Now()-dt)
		}
		if n == 0 {
			return nil
		}
		budget -= n
		if count {
			e.advance(pkts[0].Time, pkts[n-1].Time, int64(n))
		}
		if d := e.consumerDelay(); d > 0 {
			time.Sleep(d)
		}
		// Traced packets follow the first low-level node through the
		// DAG (one terminal disposition per trace).
		var matches []tracing.SourceMatch
		if e.tr != nil && len(e.low) > 0 {
			matches = e.tr.TakeSource(base, n)
		}
		for _, low := range e.low {
			if low.failed {
				matches = nil
				continue
			}
			if err := e.guardNode(low, func() error {
				return e.processLowBatch(low, pkts, n, scratch, matches)
			}); err != nil {
				return err
			}
			matches = nil
		}
		if err := e.runPartialBatch(pkts, n, scratch); err != nil {
			return err
		}
		if err := e.drainHigh(); err != nil {
			return err
		}
	}
	return nil
}

// offerSource admits and pushes one packet into the source ring,
// threading the provenance tracer's offer through admission so a shed
// packet finishes with the shed disposition. fill only. The fill loop
// guarantees ring space, so under drop-tail and block the push
// cannot fail — block degenerates to drop-tail here, and the drop path
// below is reachable only defensively.
func (e *Engine) offerSource(p trace.Packet) {
	// NextSeq is an inlinable field read, so the untraced 999 in 1000
	// packets skip the tracer's offer machinery entirely.
	var tt *tracing.TupleTrace
	if e.tr != nil {
		if seq := uint64(e.packets.Load() - 1); seq == e.tr.NextSeq() {
			tt = e.tr.SourceOffer(seq)
		}
	}
	if g := e.srcGate; g.policy == overload.ShedSample {
		if !g.ctrl.Admit(e.ring.Len(), e.ring.Cap()) {
			if tt != nil {
				e.tr.SourceShed(tt, e.ring.Len())
			}
			return
		}
	}
	if tt == nil {
		e.ring.Push(p)
		return
	}
	idx := e.ring.Pushed()
	if e.ring.Push(p) {
		e.tr.SourceEnqueued(tt, idx, e.ring.Len())
	} else {
		e.tr.SourceDropped(tt, e.ring.Len())
	}
}

// drainHigh processes queued tuples at every high-level node, in
// topological order so cascades settle within one call. A failed node's
// queue is discarded so its parents keep emitting without unbounded
// buildup.
func (e *Engine) drainHigh() error {
	for _, h := range e.high {
		if h.failed {
			h.queue = nil
			continue
		}
		if len(h.queue) == 0 {
			continue
		}
		q := h.queue
		h.queue = nil
		if h.nm != nil {
			h.nm.queue.Set(float64(len(q)))
		}
		if err := e.guardNode(h, func() error {
			start := time.Now()
			for _, row := range q {
				h.tuplesIn++
				if h.tr != nil {
					h.tr.SetCurrent(h.takeRowTraces())
				}
				if err := h.op.Process(row); err != nil {
					h.busy += time.Since(start)
					return fmt.Errorf("engine: node %q: %w", h.name, err)
				}
			}
			if h.tr != nil {
				h.tr.ClearCurrent()
			}
			h.busy += time.Since(start)
			h.syncTelemetry(len(h.queue))
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// StreamDuration returns the simulated duration of the processed stream.
func (e *Engine) StreamDuration() time.Duration {
	if !e.sawPacket.Load() {
		return 0
	}
	return time.Duration(e.lastTS.Load() - e.firstTS.Load())
}

// Packets returns the number of packets offered.
func (e *Engine) Packets() int64 { return e.packets.Load() }

// Drops returns packets dropped at the ring buffer.
func (e *Engine) Drops() uint64 { return e.ring.Drops() }

// RingCap returns the source ring buffer's capacity.
func (e *Engine) RingCap() int { return e.ring.Cap() }

// Utilization returns node busy time divided by the simulated stream
// duration: the fraction of one CPU the node consumes to keep up with the
// offered load (the y-axis of the paper's Figures 5 and 6).
func (e *Engine) Utilization(n *Node) float64 {
	d := e.StreamDuration()
	if d <= 0 {
		return 0
	}
	return float64(n.busy) / float64(d)
}

// Nodes returns every node, low-level first.
func (e *Engine) Nodes() []*Node {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	out := make([]*Node, 0, len(e.low)+len(e.lowPartial)+len(e.high))
	out = append(out, e.low...)
	for _, n := range e.lowPartial {
		out = append(out, &n.Node)
	}
	return append(out, e.high...)
}
