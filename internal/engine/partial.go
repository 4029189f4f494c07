package engine

import (
	"fmt"
	"time"

	"streamop/internal/agg"
	"streamop/internal/gsql"
	"streamop/internal/profile"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// Low-level partial aggregation: real Gigascope restricts low-level
// queries to selection and *partial* aggregation — a fixed-size
// direct-mapped group table that evicts (emits) the resident group on a
// collision instead of growing, so the fast path stays allocation-free and
// bounded. The high-level query re-aggregates the partial rows; the
// paper's §8 notes this is the right low-level support for the
// Manku-Motwani heavy hitters algorithm.

// partialGroup is one slot of the direct-mapped table.
type partialGroup struct {
	used bool
	key  tuple.Key
	aggs []agg.Agg
}

// ptable is one direct-mapped partial-aggregation table plus its window
// state.
type ptable struct {
	name      string
	slots     []partialGroup
	mask      uint64 // slot = key hash & mask
	plan      *gsql.Plan
	ctx       gsql.Ctx
	gbVals    []value.Value
	window    []value.Value
	winOpen   bool
	evictions int64
	residents int64
	emit      func(tuple.Tuple) error

	// Profiling (nil when off). tuples is the exact fold count, the basis
	// for scaling the sampled group-lookup/fold laps at report time.
	prof       *profile.NodeProfile
	winStartNS int64
	tuples     int64

	// vec is the lazily built vectorized fold state (see batch.go).
	vec *ptableVec
}

func newPtable(name string, plan *gsql.Plan, slots int, emit func(tuple.Tuple) error) ptable {
	return ptable{
		name:   name,
		slots:  make([]partialGroup, slots),
		mask:   uint64(slots - 1),
		plan:   plan,
		gbVals: make([]value.Value, len(plan.GroupBy)),
		emit:   emit,
	}
}

// process folds one packet tuple into the table.
func (t *ptable) process(tp tuple.Tuple) error {
	t.tuples++
	pt := t.prof.Begin()
	t.ctx = gsql.Ctx{Tuple: tp}
	for i, gb := range t.plan.GroupBy {
		v, err := gb(&t.ctx)
		if err != nil {
			return fmt.Errorf("partial-agg %q: group-by: %w", t.name, err)
		}
		t.gbVals[i] = v
	}
	t.ctx.GroupVals = t.gbVals

	// Window boundary: flush every resident group. The flush is exactly
	// timed inside emitSlot, so a sampled tuple's lap pauses around it.
	if t.winOpen && t.orderedChanged() {
		if pt != 0 {
			pt = t.prof.Lap(profile.StageGroupLookup, pt)
		}
		if err := t.flush(); err != nil {
			return err
		}
		if pt != 0 {
			pt = profile.Now()
		}
	}
	if !t.winOpen {
		t.winOpen = true
		if t.prof != nil {
			t.winStartNS = profile.Now()
		}
		t.window = t.window[:0]
		for _, idx := range t.plan.OrderedIdx {
			t.window = append(t.window, t.gbVals[idx])
		}
	}

	key := tuple.MakeKey(t.gbVals)
	slot := &t.slots[key.Hash()&t.mask]
	if slot.used && !slot.key.Equal(key) {
		// Collision: emit the resident partial row and take the slot. The
		// eviction is exactly timed in emitSlot; pause the lap around it.
		if pt != 0 {
			pt = t.prof.Lap(profile.StageGroupLookup, pt)
		}
		if err := t.emitSlot(slot); err != nil {
			return err
		}
		if pt != 0 {
			pt = profile.Now()
		}
		slot.used = false
		t.residents--
		t.evictions++
	}
	if !slot.used {
		slot.used = true
		slot.key = key
		t.residents++
		if slot.aggs == nil {
			slot.aggs = make([]agg.Agg, len(t.plan.Aggs))
		}
		for i, def := range t.plan.Aggs {
			slot.aggs[i] = def.New()
		}
	}
	if pt != 0 {
		// Group-by evaluation plus the slot probe/claim.
		pt = t.prof.LapMark(profile.StageGroupLookup, pt)
	}
	for i := range t.plan.Aggs {
		def := &t.plan.Aggs[i]
		var v value.Value
		if def.Arg != nil {
			var err error
			if v, err = def.Arg(&t.ctx); err != nil {
				return fmt.Errorf("partial-agg %q: %s: %w", t.name, def.Display, err)
			}
		}
		slot.aggs[i].Update(v)
	}
	if pt != 0 {
		t.prof.LapMark(profile.StageSfunUpdate, pt)
	}
	return nil
}

func (t *ptable) orderedChanged() bool {
	for i, idx := range t.plan.OrderedIdx {
		if !value.Equal(t.window[i], t.gbVals[idx]) {
			return true
		}
	}
	return false
}

// emitSlot evaluates the SELECT list for one resident group and emits it.
// Partial rows are rare relative to folds (one per eviction or window
// close), so both halves are timed exactly rather than sampled.
func (t *ptable) emitSlot(slot *partialGroup) error {
	np := t.prof
	var et int64
	if np != nil {
		et = profile.Now()
	}
	ctx := gsql.Ctx{GroupVals: slot.key.Values(), Aggs: slot.aggs}
	row := make(tuple.Tuple, len(t.plan.SelectExprs))
	for i, sel := range t.plan.SelectExprs {
		v, err := sel(&ctx)
		if err != nil {
			return fmt.Errorf("partial-agg %q: SELECT %s: %w", t.name, t.plan.SelectNames[i], err)
		}
		row[i] = v
	}
	if np != nil {
		now := profile.Now()
		np.AddExact(profile.StageEmit, now-et)
		np.AddRows(profile.StageEmit, 1, 1)
		et = now
	}
	err := t.emit(row)
	if np != nil {
		np.AddExact(profile.StageTransfer, profile.Now()-et)
		np.AddRows(profile.StageTransfer, 1, 1)
	}
	return err
}

// flush emits every resident group and clears the table.
func (t *ptable) flush() error {
	for i := range t.slots {
		if t.slots[i].used {
			if err := t.emitSlot(&t.slots[i]); err != nil {
				return err
			}
			t.slots[i].used = false
			t.residents--
		}
	}
	t.winOpen = false
	if t.prof != nil {
		if t.winStartNS != 0 {
			t.prof.ObserveWindow(float64(profile.Now()-t.winStartNS) / 1e9)
			t.winStartNS = 0
		}
		t.syncProfile()
	}
	return nil
}

// syncProfile mirrors the table's exact counters into its profile. The
// fold count is the basis for all three sampled stages: every tuple is
// converted (dequeue), probed (group lookup) and folded (sfun update).
func (t *ptable) syncProfile() {
	np := t.prof
	if np == nil {
		return
	}
	np.SyncRows(profile.StageDequeue, t.tuples, t.tuples, t.tuples)
	np.SyncRows(profile.StageGroupLookup, t.tuples, t.tuples, t.tuples)
	np.SyncRows(profile.StageSfunUpdate, t.tuples, t.tuples, t.tuples)
	np.SetOccupancy(t.residents, 0, t.residents*(64+64*int64(len(t.plan.Aggs))))
}

// PartialNode is a low-level partial-aggregation query node.
type PartialNode struct {
	Node
	table ptable
}

// AddLowLevelPartialAgg registers a low-level partial-aggregation node.
// plan must be a grouping query over PKT without sampling clauses or
// superaggregates (low-level nodes are deliberately simple). slots is
// rounded up to a power of two.
func (e *Engine) AddLowLevelPartialAgg(name string, plan *gsql.Plan, slots int) (*PartialNode, error) {
	if plan.Schema.Name() != trace.Schema().Name() {
		return nil, fmt.Errorf("engine: partial-agg node %q must read PKT, got %q", name, plan.Schema.Name())
	}
	if plan.IsSelection {
		return nil, fmt.Errorf("engine: partial-agg node %q needs GROUP BY", name)
	}
	if plan.Where != nil || plan.Having != nil || plan.CleaningWhen != nil || plan.CleaningBy != nil ||
		len(plan.Supers) > 0 || len(plan.States) > 0 {
		return nil, fmt.Errorf("engine: partial-agg node %q supports plain grouping/aggregation only", name)
	}
	if len(plan.Estimates) > 0 {
		// ESTIMATE columns need the operator's sampling states and
		// window-scoped HT pass; the direct-mapped fold has neither. Run
		// estimating queries as regular low-level nodes.
		return nil, fmt.Errorf("engine: partial-agg node %q cannot compute ESTIMATE columns", name)
	}
	if slots < 1 {
		return nil, fmt.Errorf("engine: partial-agg node %q needs at least 1 slot", name)
	}
	if err := e.checkName(name); err != nil {
		return nil, err
	}
	size := 1
	for size < slots {
		size <<= 1
	}
	schema, err := plan.OutputSchema(name)
	if err != nil {
		return nil, err
	}
	n := &PartialNode{Node: Node{name: name, plan: plan, schema: schema, low: true}}
	n.table = newPtable(name, plan, size, n.emit)
	if e.tel != nil {
		e.instrumentNode(&n.Node)
	}
	if e.tr != nil {
		n.attachTracer(e.tr)
	}
	e.lowPartial = append(e.lowPartial, n)
	return n, nil
}

// Evictions returns the number of partial rows emitted due to slot
// collisions (as opposed to window closes): the measure of how undersized
// the table is for the workload.
func (n *PartialNode) Evictions() int64 { return n.table.evictions }

// process folds one packet tuple into the table.
func (n *PartialNode) process(t tuple.Tuple) error {
	n.tuplesIn++
	return n.table.process(t)
}

// runPartialBatch feeds a batch of packets through every partial node,
// charging busy time per node.
func (e *Engine) runPartialBatch(pkts []trace.Packet, count int, scratch tuple.Tuple) error {
	for _, n := range e.lowPartial {
		if n.failed {
			continue
		}
		if err := e.guardNode(&n.Node, func() error {
			start := time.Now()
			if n.table.prof == nil {
				// No per-tuple lap accounting: fold the batch columnar.
				n.tuplesIn += int64(count)
				err := n.table.processPackets(pkts[:count])
				n.busy += time.Since(start)
				return err
			}
			np := n.table.prof
			for i := 0; i < count; i++ {
				if st := np.BeginSrc(); st != 0 {
					pkts[i].AppendTuple(scratch)
					np.LapMark(profile.StageDequeue, st)
				} else {
					pkts[i].AppendTuple(scratch)
				}
				if err := n.process(scratch); err != nil {
					n.busy += time.Since(start)
					return err
				}
			}
			n.busy += time.Since(start)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// flushPartial closes all partial nodes at end of stream.
func (e *Engine) flushPartial() error {
	for _, n := range e.lowPartial {
		if n.failed {
			continue
		}
		if err := e.guardNode(&n.Node, func() error {
			start := time.Now()
			err := n.table.flush()
			n.busy += time.Since(start)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// Base returns the embedded Node, for AddHighLevel / Utilization /
// Subscribe composition.
func (n *PartialNode) Base() *Node { return &n.Node }
