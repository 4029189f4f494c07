package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"streamop/internal/trace"
)

// RunParallel runs the node tree in the paper's Figure 1 shape with real
// concurrency: a producer goroutine takes packets from the feed and
// offers them into the source ring, while the calling goroutine runs the
// same drain/flush pump as Run and sessions over whatever the ring holds.
//
// speedup > 0 paces the producer by packet timestamps accelerated by that
// factor (speedup 100 replays a 10-second capture in 100 ms). A paced
// producer never waits for the pump: when the pump falls behind, the
// source ring fills, and what an overflowing ring costs is the source
// gate's admission policy (see overload.go) — drop-tail by default, which
// drops and counts the overflow: exactly the line-rate failure mode the
// paper's low-level queries exist to avoid. speedup <= 0 disables pacing;
// the producer then waits for ring space, nothing drops, and the run
// emits exactly Run's rows in Run's order.
//
// Provenance tracing is ignored under RunParallel (see tracing.go).
func (e *Engine) RunParallel(feed trace.Feed, speedup float64) error {
	return e.RunParallelContext(context.Background(), feed, speedup)
}

// RunParallelContext is RunParallel with cancellation: when ctx is
// cancelled the producer stops taking packets from the feed, the pump
// drains the ring and flushes every open window through the normal
// end-of-stream shutdown, and the call returns ctx.Err().
func (e *Engine) RunParallelContext(ctx context.Context, feed trace.Feed, speedup float64) error {
	if err := e.beginRun(); err != nil {
		return err
	}
	defer e.endRun()
	return e.pump(ctx, feed, nil, &producer{speedup: speedup})
}

// producerBatch is how many packets the unpaced producer collects before
// one PushBatch, so a whole slice costs one tail publication.
const producerBatch = 256

// producer is RunParallel's feed goroutine. It owns the feed, the pacing
// clock and the source gate (paced runs only); the pump owns everything
// else, including the stream counters a snapshot records. The tallies
// below are written by the producer and read by the pump only after done
// closes.
type producer struct {
	speedup float64
	e       *Engine
	feed    trace.Feed
	ctxDone <-chan struct{}
	halted  atomic.Bool // set by a pump that stops early
	done    chan struct{}

	cancelled       bool
	packets         int64
	sawPacket       bool
	firstTS, lastTS uint64
}

// start launches the producer. A restored run continues from the stream
// position its snapshot recorded.
func (p *producer) start(ctx context.Context, e *Engine, feed trace.Feed) {
	p.e, p.feed, p.ctxDone = e, feed, ctx.Done()
	p.done = make(chan struct{})
	p.packets, p.sawPacket = e.packets.Load(), e.sawPacket.Load()
	p.firstTS, p.lastTS = e.firstTS.Load(), e.lastTS.Load()
	go p.run()
}

// stop halts the producer and waits for it to exit; a no-op after the
// pump has seen it finish.
func (p *producer) stop() {
	p.halted.Store(true)
	<-p.done
}

// stopping polls for cancellation and for a pump that stopped early.
func (p *producer) stopping() bool {
	if p.halted.Load() || p.cancelled {
		return true
	}
	if p.ctxDone != nil {
		select {
		case <-p.ctxDone:
			p.cancelled = true
		default:
		}
	}
	return p.cancelled
}

func (p *producer) run() {
	defer close(p.done)
	g := p.e.srcGate
	buf := make([]trace.Packet, 0, producerBatch)
	startWall := time.Now()
feed:
	for !p.stopping() {
		pkt, ok := p.feed.Next()
		if !ok {
			break
		}
		if !p.sawPacket {
			p.sawPacket, p.firstTS = true, pkt.Time
		}
		if g == nil {
			buf = append(buf, pkt)
			if len(buf) == cap(buf) {
				p.push(buf)
				buf = buf[:0]
			}
		} else {
			// Pace to the accelerated capture clock, then offer once:
			// the gate's policy decides what a full ring costs.
			target := time.Duration(float64(pkt.Time-p.firstTS) / p.speedup)
			for time.Since(startWall) < target {
				if p.stopping() {
					break feed
				}
				runtime.Gosched()
			}
			g.offer(pkt)
			if p.packets%512 == 0 {
				g.sync()
			}
		}
		p.packets++
		p.lastTS = pkt.Time
	}
	p.push(buf)
	if g != nil {
		g.sync()
	}
}

// push moves buf into the source ring, waiting for space: the unpaced
// producer's backpressure. It gives up only when the pump has stopped.
func (p *producer) push(buf []trace.Packet) {
	r := p.e.ring
	for len(buf) > 0 {
		n := r.PushBatch(buf)
		buf = buf[n:]
		if len(buf) > 0 {
			if p.halted.Load() {
				return
			}
			runtime.Gosched()
		}
	}
}

// wait holds the pump until the source ring has packets, reporting true
// once the producer has finished: the ring then holds its last packets,
// at most one drain's worth.
func (p *producer) wait() bool {
	for p.e.ring.Len() == 0 {
		select {
		case <-p.done:
			return true
		default:
			runtime.Gosched()
		}
	}
	return false
}

// finish folds the producer's tallies into the stream counters once it
// has exited: a paced gate may have shed or dropped packets the pump
// never popped, and Packets counts every packet offered. Unpaced, the
// tallies equal what the pump counted. It reports whether the run was
// cancelled.
func (p *producer) finish() bool {
	<-p.done
	e := p.e
	e.packets.Store(p.packets)
	e.sawPacket.Store(p.sawPacket)
	e.firstTS.Store(p.firstTS)
	e.lastTS.Store(p.lastTS)
	return p.cancelled
}
