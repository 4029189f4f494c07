package engine

import (
	"fmt"
	"sort"
	"strings"

	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/overload"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
)

// The engine's one snapshot payload and its one restore.
//
// Every run mode writes the same payload. A session's topology is the
// thing that must survive the crash — nobody is around to re-Install the
// standing queries — so the payload carries the registry itself: every
// shared tap's Via text and seed, every query's GSQL text and
// InstallOptions (minus OnRow, which is code, not state), in install
// order, each followed by its node's operator snapshot, plus the
// per-query tenant-gate state and the source gate's admission state.
// Ahead of the registry sits one section for the hand-built nodes
// (AddLowLevel/AddHighLevel): each entry pins the node's level, name,
// parent, compiled plan and output schema, then its state. Code cannot
// be persisted, so the caller rebuilds those nodes before
// RestoreSession, which checks them against the section, restores their
// state, replays the registry through the normal install path, and
// primes the fast-forward resume: the next run skips the snapshot's
// packets on the (fault-wrapped, deterministic) feed and continues
// bit-identically.

// snapshotMagic opens every payload ("SESSOP01" as ASCII).
const snapshotMagic uint64 = 0x53455353_4F503031

// snapshotVersion is the payload format version; bump on any layout
// change so an old daemon never misreads a new snapshot.
const snapshotVersion uint32 = 2

// encodeSnapshot serializes the hand-built nodes, the standing-query
// registry and all resumable state. Pump goroutine, at a drained-ring
// boundary.
func (e *Engine) encodeSnapshot() ([]byte, error) {
	enc := checkpoint.NewEncoder()
	enc.U64(snapshotMagic)
	enc.U32(snapshotVersion)
	enc.U64(e.firstTS.Load())
	enc.U64(e.lastTS.Load())
	enc.I64(e.packets.Load())
	enc.Bool(e.sawPacket.Load())
	enc.I64(e.installs.Load())
	enc.I64(e.uninstalls.Load())
	enc.U64(e.nextSeq)

	hand, err := e.handBuilt()
	if err != nil {
		return nil, err
	}
	enc.Len(len(hand))
	for _, n := range hand {
		enc.String(n.name)
		for _, f := range n.topology() {
			enc.String(f)
		}
		if err := encodeNodeState(enc, n); err != nil {
			return nil, err
		}
	}

	taps := make([]*tap, 0, len(e.taps))
	for _, t := range e.taps {
		taps = append(taps, t)
	}
	sort.Slice(taps, func(i, j int) bool { return taps[i].name < taps[j].name })
	enc.Len(len(taps))
	for _, t := range taps {
		enc.String(t.name)
		enc.String(t.viaSrc)
		enc.U64(t.seed)
		if err := encodeNodeState(enc, t.node); err != nil {
			return nil, err
		}
	}

	handles := make([]*QueryHandle, 0, len(e.handles))
	for _, h := range e.handles {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i].seq < handles[j].seq })
	enc.Len(len(handles))
	for _, h := range handles {
		enc.String(h.name)
		enc.String(h.src)
		enc.String(h.viaSrc)
		enc.U64(h.seed)
		enc.U64(h.seq)
		enc.I64(int64(h.buf))
		enc.Bool(h.block)
		q := h.quota
		enc.F64(q.Rows)
		enc.F64(q.Bytes)
		enc.F64(q.BurstSec)
		enc.U64(q.WarnLag)
		enc.U64(q.DetachAfter)
		enc.I64(h.rowsOut.Load())
		enc.U64(h.Dropped())
		enc.U64(h.detached.Load())
		if g := h.gate; g != nil {
			enc.Bool(true)
			st := g.ExportState()
			enc.F64(st.RowTokens)
			enc.F64(st.ByteTokens)
			enc.U64(st.LastRefill)
			enc.Bool(st.Started)
			enc.U64(st.Offered)
			enc.U64(st.Admitted)
			enc.U64(st.Shed)
			enc.U64(st.AdmittedBytes)
			enc.U64(st.ShedBytes)
			enc.Bool(st.Throttled)
		} else {
			enc.Bool(false)
		}
		if err := encodeNodeState(enc, h.node); err != nil {
			return nil, err
		}
	}

	if g := e.srcGate; g != nil {
		enc.Bool(true)
		encodeGateState(enc, g.ctrl.ExportState())
	} else {
		enc.Bool(false)
	}
	return enc.Bytes(), nil
}

// handBuilt returns the nodes the standing-query registry does not own —
// added with AddLowLevel/AddHighLevel rather than Install — in pump
// order. It refuses a hand-built node reading a tap or an installed
// query: RestoreSession re-creates that parent, so the caller could not
// rebuild the child before the restore. Partial-aggregation nodes are
// left to checkpointRunnable. Pump goroutine, or topoMu held.
func (e *Engine) handBuilt() ([]*Node, error) {
	owned := make(map[*Node]bool, len(e.handles)+len(e.taps))
	for _, h := range e.handles {
		owned[h.node] = true
	}
	for _, t := range e.taps {
		owned[t.node] = true
	}
	var hand []*Node
	for _, n := range e.ckptNodes() {
		if owned[n] {
			continue
		}
		if owned[n.parent] {
			return nil, fmt.Errorf("engine: node %q reads %q, which RestoreSession re-creates, so checkpointing cannot restore it; install it instead", n.name, n.parent.name)
		}
		hand = append(hand, n)
	}
	return hand, nil
}

// topology renders what a snapshot pins about a hand-built node besides
// its name: level, parent, compiled plan and output schema.
func (n *Node) topology() [4]string {
	if n.low {
		return [4]string{"low", "", n.plan.Describe(), n.schema.String()}
	}
	return [4]string{"high", n.parent.name, n.plan.Describe(), n.schema.String()}
}

// encodeNodeState appends one node's counters and operator snapshot (or
// its contained failure, whose operator state is untrusted).
func encodeNodeState(enc *checkpoint.Encoder, n *Node) error {
	enc.I64(n.tuplesIn)
	enc.I64(n.out)
	enc.Bool(n.failed)
	if n.failed {
		enc.String(n.failMsg)
		enc.String(n.failStack)
		return nil
	}
	sub := checkpoint.NewEncoder()
	if err := n.op.Snapshot(sub); err != nil {
		return fmt.Errorf("engine: node %q: %w", n.name, err)
	}
	enc.Blob(sub.Bytes())
	return nil
}

// decodeNodeState restores what encodeNodeState wrote into a freshly
// built node; a persisted failure is re-recorded as a contained failure
// and listed in info.
func (e *Engine) decodeNodeState(d *checkpoint.Decoder, n *Node, info *SessionRestoreInfo) error {
	n.tuplesIn = d.I64()
	n.out = d.I64()
	failed := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if failed {
		n.failed = true
		n.failMsg = d.String()
		n.failStack = d.String()
		if d.Err() != nil {
			return d.Err()
		}
		e.recordFailure(NodeFailure{Node: n.name, Msg: n.failMsg, Stack: n.failStack}, false)
		info.Failed = append(info.Failed, n.name)
		return nil
	}
	blob := d.Blob()
	if d.Err() != nil {
		return d.Err()
	}
	if err := n.op.Restore(checkpoint.NewDecoder(blob)); err != nil {
		return fmt.Errorf("engine: node %q: %w", n.name, err)
	}
	return nil
}

// restoreTap recreates one shared tap from its persisted Via text with
// zero subscriber refs (the replayed installs re-count them). Caller
// holds topoMu.
func (e *Engine) restoreTap(name, via string, seed uint64) (*tap, error) {
	vparsed, err := gsql.Parse(via)
	if err != nil {
		return nil, fmt.Errorf("engine: restored tap %q: %w", name, err)
	}
	vplan, err := gsql.Analyze(vparsed, trace.Schema(), sfunlib.Default(seed))
	if err != nil {
		return nil, fmt.Errorf("engine: restored tap %q: %w", name, err)
	}
	node, err := e.AddLowLevel(name, vplan)
	if err != nil {
		return nil, err
	}
	t := &tap{name: name, node: node, key: vplan.Describe(), refs: 0, viaSrc: via, seed: seed}
	e.taps[strings.ToLower(name)] = t
	return t, nil
}

// SessionRestoreInfo reports what RestoreSession loaded.
type SessionRestoreInfo struct {
	Path    string
	Seq     uint64
	Packets int64
	Queries []string // restored standing queries, install order
	Taps    []string // restored shared taps, name order
	Failed  []string // nodes carried forward in the contained-failure state
}

// RestoreSession loads the newest valid snapshot from the configured
// checkpoint directory into this idle engine, which must hold no
// installed queries or taps. Hand-built nodes (AddLowLevel/AddHighLevel)
// must already be rebuilt, matching the snapshot's by name, level,
// parent, plan and output schema; a missing, extra or different node is
// a topology error. RestoreSession restores their state, recreates every
// shared tap and re-installs every standing query from the persisted
// registry, restores all operator, tenant-gate and admission state, and
// primes the next run to fast-forward the feed past the snapshot's
// packets and resume bit-identically. OnRow callbacks are code, not
// state — reattach behavior by installing fresh queries or subscribing
// to the restored handles. Returns checkpoint.ErrNoCheckpoint (possibly
// wrapped) when no valid snapshot exists — callers treat that as a fresh
// start.
func (e *Engine) RestoreSession() (*SessionRestoreInfo, error) {
	ck := e.ckpt
	if ck == nil {
		return nil, fmt.Errorf("engine: call SetCheckpoint before RestoreSession")
	}
	if e.runState.Load() != stateIdle {
		return nil, fmt.Errorf("engine: RestoreSession requires an idle engine")
	}
	e.topoMu.Lock()
	defer e.topoMu.Unlock()
	if len(e.handles) != 0 || len(e.taps) != 0 {
		return nil, fmt.Errorf("engine: RestoreSession requires an engine with no installed queries or taps")
	}
	snap, err := checkpoint.Latest(ck.cfg.Dir)
	if err != nil {
		return nil, err
	}
	d := checkpoint.NewDecoder(snap.Payload)
	magic, v := d.U64(), d.U32()
	if d.Err() == nil && (magic != snapshotMagic || v != snapshotVersion) {
		return nil, fmt.Errorf("engine: snapshot %s has format %#x v%d, this build reads %#x v%d", snap.Path, magic, v, snapshotMagic, snapshotVersion)
	}
	firstTS, lastTS := d.U64(), d.U64()
	packets := d.I64()
	sawPacket := d.Bool()
	installs, uninstalls := d.I64(), d.I64()
	nextSeq := d.U64()
	if d.Err() != nil {
		return nil, d.Err()
	}

	info := &SessionRestoreInfo{Path: snap.Path, Seq: snap.Seq, Packets: packets}
	rebuilt := make(map[string]*Node, len(e.low)+len(e.high))
	for _, n := range e.ckptNodes() {
		rebuilt[n.name] = n
	}
	nHand := d.Len()
	for i := 0; i < nHand; i++ {
		name := d.String()
		var topo [4]string
		for j := range topo {
			topo[j] = d.String()
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		n := rebuilt[name]
		if n == nil {
			return nil, fmt.Errorf("engine: snapshot %s: node %q is missing from the rebuilt topology", snap.Path, name)
		}
		if n.topology() != topo {
			return nil, fmt.Errorf("engine: snapshot %s: rebuilt node %q differs from the snapshot's topology", snap.Path, name)
		}
		delete(rebuilt, name)
		if err := e.decodeNodeState(d, n, info); err != nil {
			return nil, err
		}
	}
	for _, n := range e.ckptNodes() {
		if rebuilt[n.name] != nil {
			return nil, fmt.Errorf("engine: snapshot %s: rebuilt node %q is not in the snapshot's topology", snap.Path, n.name)
		}
	}

	nTaps := d.Len()
	for i := 0; i < nTaps; i++ {
		name := d.String()
		via := d.String()
		seed := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		t, err := e.restoreTap(name, via, seed)
		if err != nil {
			return nil, err
		}
		if err := e.decodeNodeState(d, t.node, info); err != nil {
			return nil, err
		}
		info.Taps = append(info.Taps, name)
	}

	nQueries := d.Len()
	for i := 0; i < nQueries; i++ {
		name := d.String()
		src := d.String()
		via := d.String()
		seed := d.U64()
		seq := d.U64()
		buf := int(d.I64())
		block := d.Bool()
		quota := overload.Quota{
			Rows:        d.F64(),
			Bytes:       d.F64(),
			BurstSec:    d.F64(),
			WarnLag:     d.U64(),
			DetachAfter: d.U64(),
		}
		rowsOut := d.I64()
		dropped := d.U64()
		detached := d.U64()
		hasGate := d.Bool()
		var gateState overload.TenantPersistentState
		if hasGate {
			gateState = overload.TenantPersistentState{
				RowTokens:     d.F64(),
				ByteTokens:    d.F64(),
				LastRefill:    d.U64(),
				Started:       d.Bool(),
				Offered:       d.U64(),
				Admitted:      d.U64(),
				Shed:          d.U64(),
				AdmittedBytes: d.U64(),
				ShedBytes:     d.U64(),
				Throttled:     d.Bool(),
			}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		h, err := e.install(name, src, InstallOptions{Via: via, Seed: seed, Buffer: buf, Block: block, Quota: quota})
		if err != nil {
			return nil, fmt.Errorf("engine: restoring query %q: %w", name, err)
		}
		h.seq = seq
		h.rowsOut.Store(rowsOut)
		h.dropped.Store(dropped)
		h.detached.Store(detached)
		if hasGate {
			if h.gate == nil {
				return nil, fmt.Errorf("engine: restoring query %q: snapshot carries gate state but the quota has no budget", name)
			}
			h.gate.ImportState(gateState)
		}
		if err := e.decodeNodeState(d, h.node, info); err != nil {
			return nil, err
		}
		info.Queries = append(info.Queries, name)
	}

	if hasGate := d.Bool(); hasGate {
		gs := decodeGateState(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		ck.pendingGate = &gs
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("engine: snapshot %s has %d bytes of trailing garbage", snap.Path, d.Remaining())
	}

	e.firstTS.Store(firstTS)
	e.lastTS.Store(lastTS)
	e.packets.Store(packets)
	e.sawPacket.Store(sawPacket)
	e.installs.Store(installs)
	e.uninstalls.Store(uninstalls)
	e.nextSeq = nextSeq
	ck.seq = snap.Seq
	ck.aSeq.Store(snap.Seq)
	ck.lastWindows = e.maxWindows()
	ck.resumeSkip = packets
	// The registry now matches the snapshot on disk; the next write comes
	// from the periodic schedule or the next install/uninstall.
	ck.regDirty = false
	e.syncSessionMetrics()
	if m := ck.metrics(e.tel); m != nil {
		m.restores.Add(1)
		m.lastSeq.Set(float64(snap.Seq))
	}
	if e.tel.EventsEnabled() {
		e.tel.Emit("session_restore", map[string]any{
			"seq": snap.Seq, "packets": packets, "queries": len(info.Queries),
			"taps": len(info.Taps), "path": snap.Path,
		})
	}
	return info, nil
}
