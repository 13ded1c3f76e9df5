package broker

import (
	"runtime"
	"sync/atomic"

	"repro/internal/core"
)

// This file implements the engine's MPSC ingress ring: the contention
// boundary between the provider reader goroutines (many producers decoding
// results off their sockets) and the engine combiner (one consumer at a
// time, elected by CAS — see engine.go). Producers reserve a slot with
// one CAS on the enqueue cursor; the consumer runs lock-free on a cursor
// only it touches. The design is the classic bounded seq-ring (Vyukov),
// restricted to a single consumer.

// engineEvent kinds routed through the ring.
const (
	evResult uint8 = iota + 1
	// evDeadline fires when a tasklet's QoC deadline elapses on the timer
	// wheel.
	evDeadline
	// evLaunchReady fires when a backoff-delayed re-issue becomes eligible
	// for placement.
	evLaunchReady
)

// engineEvent is one unit of engine input: a decoded attempt result
// (carrying its provider so the combiner can settle slot accounting), or a
// timer-wheel firing.
type engineEvent struct {
	kind uint8
	prov *providerState // evResult only
	res  core.Result    // evResult only
	tid  core.TaskletID // evDeadline, evLaunchReady
}

const ingressRingSize = 1024 // power of two

type ringSlot struct {
	seq atomic.Uint64
	ev  engineEvent
}

// ingressRing is a bounded multi-producer single-consumer queue. push blocks
// (spinning with Gosched) when the ring is full — backpressure onto the
// producing reader goroutine, never loss. The single consumer is enforced by
// the broker's draining flag, not by the ring itself.
type ingressRing struct {
	slots []ringSlot
	mask  uint64
	enq   atomic.Uint64
	_     [56]byte      // keep the consumer cursor off the producers' line
	deq   atomic.Uint64 // written only by the elected consumer
}

func newIngressRing() *ingressRing {
	r := &ingressRing{slots: make([]ringSlot, ingressRingSize), mask: ingressRingSize - 1}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// push publishes one event, waiting out a full ring. Safe for any number of
// concurrent producers. The combiner never calls push while draining, so the
// wait cannot deadlock: the elected consumer always makes progress.
func (r *ingressRing) push(ev *engineEvent) {
	pos := r.enq.Load()
	for {
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				slot.ev = *ev
				slot.seq.Store(pos + 1)
				return
			}
			pos = r.enq.Load()
		case seq < pos: // full: consumer hasn't freed this slot yet
			runtime.Gosched()
			pos = r.enq.Load()
		default: // raced past; reload
			pos = r.enq.Load()
		}
	}
}

// pop moves the next event into *ev, returning false when the ring is
// empty. Single consumer only.
func (r *ingressRing) pop(ev *engineEvent) bool {
	deq := r.deq.Load()
	slot := &r.slots[deq&r.mask]
	if slot.seq.Load() != deq+1 {
		return false
	}
	*ev = slot.ev
	slot.ev = engineEvent{} // drop the provider/result references for GC
	slot.seq.Store(deq + uint64(len(r.slots)))
	r.deq.Store(deq + 1)
	return true
}

// hasData reports whether at least one published event is waiting. Used for
// the combiner handoff re-check; safe to call from any goroutine.
func (r *ingressRing) hasData() bool {
	deq := r.deq.Load()
	return r.slots[deq&r.mask].seq.Load() == deq+1
}
