package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"streamop/internal/checkpoint"
	"streamop/internal/overload"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
)

// Crash-safe checkpoint/restore.
//
// A checkpoint is one framed file (see internal/checkpoint) holding the
// engine's complete resumable state at a pump boundary. Run, RunParallel
// and sessions all write the same payload (durable.go): the source
// position (packets taken from the feed, timestamp bounds), the
// hand-built nodes and the standing-query registry, each node with its
// operator snapshot (group tables, supergroup tables old and new, SFUN
// state blobs, RNG state), and the source gate's admission-controller
// state. RestoreSession is the one way back in.
//
// Exactness. The pump snapshots only at a cycle boundary, where every
// packet it popped has settled in every node and the high-level queues
// are empty, so the stream counters the pump keeps — packets, first and
// last timestamp — fully determine what every operator has seen; the
// restored run fast-forwards the feed by that count and continues
// bit-for-bit (fault injection and admission draws replay identically
// because their RNG state rides along — the wrapped feed is re-wrapped
// with the same seed, and skipping the prefix replays the same draws).
// Under RunParallel the producer may already hold later packets in the
// ring; they are not counted yet, so the snapshot still describes the
// pump's boundary.
//
// Restrictions. Partial-aggregation nodes have no state codec and refuse
// checkpointing; paced RunParallel refuses it too (its gate sheds packets
// nondeterministically, so there is no exact resume to preserve); and so
// does a hand-built node reading a tap or an installed query, because
// RestoreSession re-creates that parent, so the caller cannot rebuild
// the child before the restore.

// CheckpointConfig configures periodic snapshots for a run.
type CheckpointConfig struct {
	// Dir is the snapshot directory (created if missing).
	Dir string
	// EveryWindows triggers a snapshot whenever some node's operator has
	// closed at least this many windows since the previous snapshot.
	// <= 0 disables the periodic schedule; a run still snapshots at its
	// first boundary, after every install and uninstall, and before its
	// final flush.
	EveryWindows int64
	// Keep is the number of snapshot files retained (older ones are
	// pruned after each write). < 1 defaults to 2, so one corrupt newest
	// file still leaves a valid predecessor.
	Keep int
}

// ckptState is the engine's live checkpoint runtime.
type ckptState struct {
	cfg         CheckpointConfig
	seq         uint64
	lastWindows int64
	resumeSkip  int64
	pendingGate *overload.PersistentState

	// regDirty forces a snapshot at the next pump boundary: set when a
	// run starts and whenever the standing-query registry changes.
	regDirty bool

	// Atomic mirrors for /debug/state (written by the pump, read by the
	// HTTP goroutine).
	aSeq     atomic.Uint64
	aWritten atomic.Int64

	m *ckptMetrics
}

type ckptMetrics struct {
	written, lastSeq, lastBytes, lastSeconds, failures, restores *telemetry.Gauge
}

// SetCheckpoint enables checkpointing for subsequent runs. Call before
// Run/RunParallel/Start (and before RestoreSession when resuming); it
// errors once a run or session is active.
func (e *Engine) SetCheckpoint(cfg CheckpointConfig) error {
	if err := e.setterGuard("SetCheckpoint"); err != nil {
		return err
	}
	if cfg.Dir == "" {
		return fmt.Errorf("engine: checkpoint directory must not be empty")
	}
	if cfg.Keep < 1 {
		cfg.Keep = 2
	}
	e.ckpt = &ckptState{cfg: cfg}
	return nil
}

// metrics lazily registers the checkpoint gauges (the collector may be
// attached after SetCheckpoint).
func (ck *ckptState) metrics(tel *telemetry.Collector) *ckptMetrics {
	if ck.m == nil && tel.Enabled() {
		r := tel.Registry()
		ck.m = &ckptMetrics{
			written:     r.Gauge("streamop_checkpoint_written", "snapshots written this run"),
			lastSeq:     r.Gauge("streamop_checkpoint_last_seq", "sequence number of the newest snapshot"),
			lastBytes:   r.Gauge("streamop_checkpoint_last_bytes", "framed size of the newest snapshot"),
			lastSeconds: r.Gauge("streamop_checkpoint_last_duration_seconds", "wall-clock cost of the newest snapshot write"),
			failures:    r.Gauge("streamop_checkpoint_failures", "snapshot writes that failed"),
			restores:    r.Gauge("streamop_checkpoint_restores", "successful restores this process"),
		}
	}
	return ck.m
}

// checkpointRunnable rejects topologies and modes the checkpoint
// machinery cannot snapshot exactly; a run without checkpointing is never
// rejected. lossy marks a paced RunParallel.
func (e *Engine) checkpointRunnable(lossy bool) error {
	if e.ckpt == nil {
		return nil
	}
	if len(e.lowPartial) > 0 {
		return fmt.Errorf("engine: checkpointing does not support partial-aggregation nodes (no state codec)")
	}
	if lossy {
		return fmt.Errorf("engine: checkpointing under RunParallel requires unpaced mode (speedup <= 0)")
	}
	_, err := e.handBuilt()
	return err
}

// ckptNodes returns the nodes a snapshot covers, low first, then high
// (partial nodes are excluded by checkpointRunnable).
func (e *Engine) ckptNodes() []*Node {
	return append(append(make([]*Node, 0, len(e.low)+len(e.high)), e.low...), e.high...)
}

// maxWindows returns the most windows any healthy node's operator has
// closed — the quantity the EveryWindows schedule watches.
func (e *Engine) maxWindows() int64 {
	var most int64
	for _, n := range e.ckptNodes() {
		if n.failed {
			continue
		}
		if w := n.op.Stats().Windows; w > most {
			most = w
		}
	}
	return most
}

// maybeCheckpoint writes a snapshot when the periodic schedule is due.
// Pump only, at a cycle boundary.
func (e *Engine) maybeCheckpoint() error {
	ck := e.ckpt
	if ck == nil || ck.cfg.EveryWindows <= 0 {
		return nil
	}
	if e.maxWindows()-ck.lastWindows < ck.cfg.EveryWindows {
		return nil
	}
	return e.writeCheckpoint()
}

// writeCheckpoint snapshots unconditionally. Same caller contract as
// maybeCheckpoint.
func (e *Engine) writeCheckpoint() error {
	ck := e.ckpt
	start := time.Now()
	payload, err := e.encodeSnapshot()
	if err != nil {
		ck.noteFailure(e.tel)
		return err
	}
	seq := ck.seq + 1
	if _, err := checkpoint.WriteFile(ck.cfg.Dir, seq, payload); err != nil {
		ck.noteFailure(e.tel)
		return err
	}
	ck.seq = seq
	ck.lastWindows = e.maxWindows()
	ck.regDirty = false
	ck.aSeq.Store(seq)
	written := ck.aWritten.Add(1)
	// Pruning is best-effort: a failed unlink never outranks a durable
	// snapshot.
	_ = checkpoint.Prune(ck.cfg.Dir, ck.cfg.Keep)
	dur := time.Since(start)
	if m := ck.metrics(e.tel); m != nil {
		m.written.Set(float64(written))
		m.lastSeq.Set(float64(seq))
		m.lastBytes.Set(float64(len(payload)))
		m.lastSeconds.Set(dur.Seconds())
	}
	if e.tel.EventsEnabled() {
		e.tel.Emit("checkpoint", map[string]any{
			"seq": seq, "bytes": len(payload), "packets": e.packets.Load(),
			"windows": ck.lastWindows, "duration_ms": dur.Milliseconds(),
		})
	}
	return nil
}

func (ck *ckptState) noteFailure(tel *telemetry.Collector) {
	if m := ck.metrics(tel); m != nil {
		m.failures.Add(1)
	}
}

// applyRestoredGate moves a restored admission-controller state into the
// freshly created source gate. Pump setup only.
func (e *Engine) applyRestoredGate() {
	ck := e.ckpt
	if ck == nil || ck.pendingGate == nil {
		return
	}
	if g := e.srcGate; g != nil {
		g.ctrl.ImportState(*ck.pendingGate)
	}
	ck.pendingGate = nil
}

// resumeFastForward skips the feed past the packets the snapshot already
// accounts for. The feed must already be fault-wrapped: the wrapper's
// deterministic RNG then replays the same drops/dups over the prefix,
// leaving the remainder identical to the uninterrupted run's.
func (e *Engine) resumeFastForward(feed trace.Feed) {
	ck := e.ckpt
	if ck == nil || ck.resumeSkip <= 0 {
		return
	}
	for i := int64(0); i < ck.resumeSkip; i++ {
		if _, ok := feed.Next(); !ok {
			break
		}
	}
	ck.resumeSkip = 0
}

func encodeGateState(e *checkpoint.Encoder, s overload.PersistentState) {
	e.F64(s.P)
	e.I64(int64(s.SinceUpdate))
	e.U64(s.WinDrops)
	e.U64(s.Offered)
	e.U64(s.Admitted)
	e.U64(s.Shed)
	e.U64(s.Dropped)
	e.I64(s.PeakOcc)
	e.I64(int64(s.State))
	for _, w := range s.Rng {
		e.U64(w)
	}
}

func decodeGateState(d *checkpoint.Decoder) overload.PersistentState {
	s := overload.PersistentState{
		P:           d.F64(),
		SinceUpdate: int(d.I64()),
		WinDrops:    d.U64(),
		Offered:     d.U64(),
		Admitted:    d.U64(),
		Shed:        d.U64(),
		Dropped:     d.U64(),
		PeakOcc:     d.I64(),
		State:       int32(d.I64()),
	}
	for i := range s.Rng {
		s.Rng[i] = d.U64()
	}
	return s
}
