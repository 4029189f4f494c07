package engine

import (
	"sort"

	"streamop/internal/operator"
	"streamop/internal/telemetry"
)

// /debug data sources. The engine registers two sources on its collector
// — "plan" (static per-node plan descriptions, reusing gsql's -explain
// machinery) and "state" (live occupancy) — which telemetry's Handler
// serves at /debug/plan and /debug/state.
//
// The source functions run on the HTTP goroutine while Run executes, so
// they read only data that is immutable after construction (names, plans,
// schemas) or published through atomics: the source ring's counters, the
// engine's ring peak, each operator's boundary-consistent DebugState
// snapshot, and the tracer's mutex-guarded summary. Node busy times and
// tuple counters are deliberately absent — they are plain fields owned by
// the run loop (scrape /metrics for their synced gauges). The topology
// itself is no longer immutable — sessions install and uninstall queries
// mid-run — so every source walks it under topoMu (the pump takes the
// write lock only while splicing).

// NodePlan is one node's entry in the /debug/plan payload.
type NodePlan struct {
	Name        string   `json:"name"`
	Level       string   `json:"level"` // low | low_partial | high
	Output      string   `json:"output_schema"`
	Subscribers []string `json:"subscribers,omitempty"`
	Plan        string   `json:"plan"` // gsql -explain rendering
}

// RingDebug is the source ring's live counters in /debug/state.
type RingDebug struct {
	Cap    int    `json:"cap"`
	Len    int    `json:"len"`
	Pushed uint64 `json:"pushed"`
	Popped uint64 `json:"popped"`
	Drops  uint64 `json:"drops"`
	Peak   int    `json:"peak"`
}

// NodeDebug is one node's entry in /debug/state.
type NodeDebug struct {
	Name  string               `json:"name"`
	State *operator.DebugState `json:"state"` // nil for partial-agg nodes
}

// registerDebug installs the engine's /debug data sources on c.
func (e *Engine) registerDebug(c *telemetry.Collector) {
	c.SetDebugSource("plan", "engine", func() any { return e.debugPlan() })
	c.SetDebugSource("state", "engine", func() any { return e.debugState() })
	// Report() is built entirely from atomics, so a mid-run scrape is safe;
	// a nil profiler renders as an empty report.
	c.SetDebugSource("profile", "engine", func() any { return e.Profiler().Report() })
	c.SetDebugSource("accuracy", "engine", func() any { return e.debugAccuracy() })
}

// NodeAccuracy is one estimating node's entry in /debug/accuracy.
type NodeAccuracy struct {
	Name  string                  `json:"name"`
	State *operator.AccuracyState `json:"state"`
}

// debugAccuracy collects the boundary-consistent accuracy snapshots of
// every node whose plan carries ESTIMATE columns. Nodes without estimates
// (and partial-agg nodes, which reject estimating plans) are omitted.
func (e *Engine) debugAccuracy() []NodeAccuracy {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	out := []NodeAccuracy{}
	for _, n := range e.low {
		if n.op.Estimating() {
			out = append(out, NodeAccuracy{Name: n.name, State: n.op.AccuracySnapshot()})
		}
	}
	for _, n := range e.high {
		if n.op.Estimating() {
			out = append(out, NodeAccuracy{Name: n.name, State: n.op.AccuracySnapshot()})
		}
	}
	return out
}

func (e *Engine) debugPlan() []NodePlan {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	var out []NodePlan
	add := func(n *Node, level string) {
		np := NodePlan{
			Name:   n.name,
			Level:  level,
			Output: n.schema.Name(),
			Plan:   n.plan.Describe(),
		}
		for _, sub := range n.subs {
			np.Subscribers = append(np.Subscribers, sub.name)
		}
		out = append(out, np)
	}
	for _, n := range e.low {
		add(n, "low")
	}
	for _, n := range e.lowPartial {
		add(&n.Node, "low_partial")
	}
	for _, n := range e.high {
		add(n, "high")
	}
	return out
}

// SessionDebug is the standing-query session's entry in /debug/state.
type SessionDebug struct {
	Active     bool     `json:"active"`
	Queries    []string `json:"queries"`
	Taps       []string `json:"taps"`
	Installs   int64    `json:"installs"`
	Uninstalls int64    `json:"uninstalls"`
}

func (e *Engine) debugState() map[string]any {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	nodes := make([]NodeDebug, 0, len(e.low)+len(e.lowPartial)+len(e.high))
	for _, n := range e.low {
		nodes = append(nodes, NodeDebug{Name: n.name, State: n.op.DebugSnapshot()})
	}
	for _, pn := range e.lowPartial {
		nodes = append(nodes, NodeDebug{Name: pn.name})
	}
	for _, n := range e.high {
		nodes = append(nodes, NodeDebug{Name: n.name, State: n.op.DebugSnapshot()})
	}
	st := map[string]any{
		"ring": RingDebug{
			Cap:    e.ring.Cap(),
			Len:    e.ring.Len(),
			Pushed: e.ring.Pushed(),
			Popped: e.ring.Popped(),
			Drops:  e.ring.Drops(),
			Peak:   e.RingPeak(),
		},
		"nodes": nodes,
	}
	if e.tr != nil {
		st["trace"] = e.tr.Summary()
	}
	if snaps := e.Overload(); len(snaps) > 0 {
		st["overload"] = snaps
	}
	if quotas := e.debugQuotas(); len(quotas) > 0 {
		st["quotas"] = quotas
	}
	if f := e.Failures(); len(f) > 0 {
		st["failures"] = f
	}
	if len(e.handles) > 0 || e.installs.Load() > 0 || e.SessionActive() {
		sd := SessionDebug{
			Active:     e.SessionActive(),
			Queries:    make([]string, 0, len(e.handles)),
			Taps:       make([]string, 0, len(e.taps)),
			Installs:   e.installs.Load(),
			Uninstalls: e.uninstalls.Load(),
		}
		for name := range e.handles {
			sd.Queries = append(sd.Queries, name)
		}
		for _, t := range e.taps {
			sd.Taps = append(sd.Taps, t.name)
		}
		sort.Strings(sd.Queries)
		sort.Strings(sd.Taps)
		st["session"] = sd
	}
	if ck := e.ckpt; ck != nil {
		st["checkpoint"] = map[string]any{
			"dir":      ck.cfg.Dir,
			"last_seq": ck.aSeq.Load(),
			"written":  ck.aWritten.Load(),
		}
	}
	return st
}
