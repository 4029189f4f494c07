package engine

import (
	"sync/atomic"

	"streamop/internal/profile"
)

// Profiling instrumentation (see internal/profile). The engine owns the
// stages the operator cannot see: ring PopBatch (exact, charged to the
// "source" pseudo-node, matching the telemetry/overload naming) and the
// per-node packet→tuple conversion (sampled on each node's independent
// source schedule). Exact row counts are mirrored from the engine's
// existing counters at batch boundaries.
//
// The profiler handle itself lives in an atomic pointer because the
// /debug/profile source runs on the HTTP goroutine; the per-node handles
// used on the hot path are plain fields set before the run starts.

// SetProfiler attaches a profiler to the engine and to every node
// registered so far (nil detaches). Call it after registering nodes and
// before Run/RunParallel; it errors once a run or session is active
// (queries installed later inherit the profiler).
func (e *Engine) SetProfiler(p *profile.Profiler) error {
	if err := e.setterGuard("SetProfiler"); err != nil {
		return err
	}
	e.prof.Store(p)
	if p == nil {
		e.srcProf = nil
		for _, n := range e.low {
			n.prof = nil
			n.op.SetProfile(nil)
		}
		for _, pn := range e.lowPartial {
			pn.prof = nil
			pn.table.prof = nil
		}
		for _, h := range e.high {
			h.prof = nil
			h.op.SetProfile(nil)
		}
		return nil
	}
	e.srcProf = p.Node("source")
	for _, n := range e.low {
		n.prof = p.Node(n.name)
		n.op.SetProfile(n.prof)
	}
	for _, pn := range e.lowPartial {
		pn.prof = p.Node(pn.name)
		pn.table.prof = pn.prof
	}
	for _, h := range e.high {
		h.prof = p.Node(h.name)
		h.op.SetProfile(h.prof)
	}
	return nil
}

// Profiler returns the attached profiler, nil when profiling is off. Safe
// from any goroutine.
func (e *Engine) Profiler() *profile.Profiler { return e.prof.Load() }

// profFields are embedded in Engine.
type profFields struct {
	prof    atomic.Pointer[profile.Profiler]
	srcProf *profile.NodeProfile // "source" pseudo-node: ring PopBatch cost
}

// syncProfiles mirrors the engine-owned exact row counts into the node
// profiles: the source ring's offered/popped packets and each node's
// conversion counts. Called from the pump at batch boundaries and at end
// of run.
func (e *Engine) syncProfiles() {
	if e.prof.Load() == nil {
		return
	}
	if e.srcProf != nil {
		e.srcProf.SyncRows(profile.StageDequeue, e.packets.Load(), int64(e.ring.Popped()), 0)
	}
	for _, n := range e.low {
		if n.prof != nil {
			n.prof.SyncRows(profile.StageDequeue, n.tuplesIn, n.tuplesIn, n.tuplesIn)
			n.op.SyncProfile()
		}
	}
	for _, pn := range e.lowPartial {
		pn.table.syncProfile()
	}
	for _, h := range e.high {
		if h.prof != nil {
			h.prof.SyncRows(profile.StageDequeue, h.tuplesIn, h.tuplesIn, 0)
			h.op.SyncProfile()
		}
	}
}
