package engine

import (
	"streamop/internal/telemetry"
)

// Telemetry instrumentation for the two-level runtime: per-node
// tuples-in/out, busy time and queue depth, plus ring-buffer occupancy and
// drops — the quantities behind the paper's Figures 5 and 6 (per-node CPU)
// and the line-rate drop accounting of §2.
//
// Node counters are plain fields written by the pump; telemetry mirrors
// them into gauges at batch boundaries, so the uninstrumented path costs
// one nil check per batch.

// nodeMetrics caches a node's gauge handles.
type nodeMetrics struct {
	in, out, busy, queue *telemetry.Gauge
}

// sourceMetrics caches the engine-level gauges for the shared source
// ring.
type sourceMetrics struct {
	occ, drops, peak, packets *telemetry.Gauge
}

// SetCollector attaches a telemetry collector to the engine and to every
// node registered so far and afterwards; node metrics are labeled with the
// node name. A nil collector detaches. It errors if a run or session is
// already active (reconfiguring a live engine raced with the pump).
func (e *Engine) SetCollector(c *telemetry.Collector) error {
	if err := e.setterGuard("SetCollector"); err != nil {
		return err
	}
	if c == nil || !c.Enabled() {
		e.tel, e.sm = nil, nil
		for _, n := range e.Nodes() {
			n.nm = nil
			if n.op != nil {
				n.op.SetCollector(nil, "")
			}
		}
		return nil
	}
	e.tel = c
	r := c.Registry()
	e.sm = &sourceMetrics{
		occ:     r.GaugeVec("streamop_ring_occupancy", "source ring-buffer fill", "node").With("source"),
		drops:   r.GaugeVec("streamop_ring_drops", "packets dropped at the source ring buffer", "node").With("source"),
		peak:    r.GaugeVec("streamop_ring_peak_occupancy", "high-water mark of the source ring", "node").With("source"),
		packets: r.Gauge("streamop_engine_packets", "packets the feed offered to the engine"),
	}
	for _, n := range e.Nodes() {
		e.instrumentNode(n)
	}
	e.registerDebug(c)
	return nil
}

// Collector returns the engine's collector (nil when uninstrumented).
func (e *Engine) Collector() *telemetry.Collector { return e.tel }

func (e *Engine) instrumentNode(n *Node) {
	r := e.tel.Registry()
	n.nm = &nodeMetrics{
		in:    r.GaugeVec("streamop_node_tuples_in", "tuples offered to the node", "node").With(n.name),
		out:   r.GaugeVec("streamop_node_tuples_out", "tuples the node emitted downstream", "node").With(n.name),
		busy:  r.GaugeVec("streamop_node_busy_seconds", "wall-clock time inside the node's processing loop", "node").With(n.name),
		queue: r.GaugeVec("streamop_node_queue_depth", "pending input tuples buffered for the node", "node").With(n.name),
	}
	if n.op != nil {
		n.op.SetCollector(e.tel, n.name)
	}
}

// syncTelemetry mirrors the node's counters into its gauges; queueDepth is
// the caller's current buffered-input depth.
func (n *Node) syncTelemetry(queueDepth int) {
	m := n.nm
	if m == nil {
		return
	}
	m.in.Set(float64(n.tuplesIn))
	m.out.Set(float64(n.out))
	m.busy.Set(n.busy.Seconds())
	m.queue.Set(float64(queueDepth))
}

// syncSourceRing mirrors the engine's shared source ring into the
// engine-level gauges under the pseudo-node name "source".
func (e *Engine) syncSourceRing() {
	if e.sm == nil {
		return
	}
	e.sm.occ.Set(float64(e.ring.Len()))
	e.sm.drops.Set(float64(e.ring.Drops()))
	e.sm.peak.Set(float64(e.RingPeak()))
	e.sm.packets.Set(float64(e.packets.Load()))
}

// noteRingPeak records the source ring's high-water mark as the pump
// sees it (tracked unconditionally; it is one comparison per cycle).
func (e *Engine) noteRingPeak() {
	n := int64(e.ring.Len())
	for {
		old := e.ringPeak.Load()
		if n <= old || e.ringPeak.CompareAndSwap(old, n) {
			return
		}
	}
}

// RingPeak returns the highest source-ring occupancy the pump observed.
func (e *Engine) RingPeak() int { return int(e.ringPeak.Load()) }
