package broker

import (
	"sync"
	"time"

	"repro/internal/core"
)

// This file implements the hashed timer wheel that replaces the broker's
// per-tasklet time.AfterFunc timers: one goroutine serves every QoC
// deadline and every RetryBackoff re-issue delay, instead of one runtime
// timer (and, on expiry, one goroutine) per in-flight tasklet. Entries hash
// into a fixed ring of slots by expiry tick; the goroutine sleeps while the
// wheel is empty and otherwise advances once per tick, firing due entries
// through a callback that feeds the engine's ingress ring.

const (
	wheelSlots = 256
	wheelTick  = time.Millisecond
)

// wheel entry kinds.
const (
	wheelDeadline uint8 = iota + 1
	wheelLaunch
)

type wheelEntry struct {
	kind      uint8
	cancelled bool
	tid       core.TaskletID
	expireAt  time.Time
}

// timerWheel is safe for concurrent use; it carries its own mutex (a leaf
// lock — the fire callback runs with no wheel lock held).
type timerWheel struct {
	mu        sync.Mutex
	slots     [wheelSlots][]*wheelEntry
	count     int
	base      time.Time // tick origin
	lastTick  int64     // ticks since base already processed
	deadlines map[core.TaskletID]*wheelEntry

	wake chan struct{}
	fire func(kind uint8, tid core.TaskletID)
}

func newTimerWheel(fire func(kind uint8, tid core.TaskletID)) *timerWheel {
	return &timerWheel{
		base:      time.Now(),
		deadlines: map[core.TaskletID]*wheelEntry{},
		wake:      make(chan struct{}, 1),
		fire:      fire,
	}
}

// scheduleLocked inserts e at its expiry tick's slot. A tick at or before
// the wheel's current position lands on the next slot to be visited, so
// near-term entries fire on the next advance rather than after a full
// rotation.
func (w *timerWheel) scheduleLocked(e *wheelEntry) {
	tick := int64(e.expireAt.Sub(w.base) / wheelTick)
	if tick <= w.lastTick {
		tick = w.lastTick + 1
	}
	idx := tick % wheelSlots
	w.slots[idx] = append(w.slots[idx], e)
	w.count++
}

// armDeadline schedules (or re-schedules) the QoC deadline for tid.
func (w *timerWheel) armDeadline(tid core.TaskletID, d time.Duration) {
	w.mu.Lock()
	if old := w.deadlines[tid]; old != nil {
		old.cancelled = true
	}
	e := &wheelEntry{kind: wheelDeadline, tid: tid, expireAt: time.Now().Add(d)}
	w.deadlines[tid] = e
	w.scheduleLocked(e)
	w.mu.Unlock()
	w.kick()
}

// stopDeadline disarms tid's deadline if armed.
func (w *timerWheel) stopDeadline(tid core.TaskletID) {
	w.mu.Lock()
	if e := w.deadlines[tid]; e != nil {
		e.cancelled = true
		delete(w.deadlines, tid)
	}
	w.mu.Unlock()
}

// hasDeadline reports whether tid has an armed deadline (the shard exchange
// refuses to migrate deadline-bearing tasklets).
func (w *timerWheel) hasDeadline(tid core.TaskletID) bool {
	w.mu.Lock()
	_, ok := w.deadlines[tid]
	w.mu.Unlock()
	return ok
}

// armLaunch schedules a backoff-delayed re-issue for tid. Launch entries
// are not cancellable; the firing path re-checks liveness.
func (w *timerWheel) armLaunch(tid core.TaskletID, d time.Duration) {
	w.mu.Lock()
	w.scheduleLocked(&wheelEntry{kind: wheelLaunch, tid: tid, expireAt: time.Now().Add(d)})
	w.mu.Unlock()
	w.kick()
}

func (w *timerWheel) kick() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// advance walks the wheel from the last processed tick up to now, moving
// due entries into the caller's scratch. Entries seen early (a future
// rotation) stay put. When the wheel fell more than a full rotation behind,
// one sweep of every slot covers everything due.
func (w *timerWheel) advance(now time.Time, due []*wheelEntry) []*wheelEntry {
	w.mu.Lock()
	nowTick := int64(now.Sub(w.base) / wheelTick)
	steps := nowTick - w.lastTick
	if steps > wheelSlots {
		steps = wheelSlots
	}
	for s := int64(1); s <= steps; s++ {
		idx := (w.lastTick + s) % wheelSlots
		slot := w.slots[idx]
		keep := slot[:0]
		for _, e := range slot {
			switch {
			case e.cancelled:
				w.count--
			case !e.expireAt.After(now):
				if e.kind == wheelDeadline && w.deadlines[e.tid] == e {
					delete(w.deadlines, e.tid)
				}
				due = append(due, e)
				w.count--
			default:
				keep = append(keep, e)
			}
		}
		// Clear the tail so dropped entries don't linger in the backing
		// array.
		for i := len(keep); i < len(slot); i++ {
			slot[i] = nil
		}
		w.slots[idx] = keep
	}
	w.lastTick = nowTick
	w.mu.Unlock()
	return due
}

// run is the broker's timer goroutine: asleep while the wheel is empty,
// ticking while armed. Fire callbacks run without the wheel lock.
func (w *timerWheel) run(stop <-chan struct{}) {
	timer := time.NewTimer(wheelTick)
	if !timer.Stop() {
		<-timer.C
	}
	var due []*wheelEntry
	for {
		w.mu.Lock()
		n := w.count
		w.mu.Unlock()
		if n == 0 {
			select {
			case <-w.wake:
			case <-stop:
				return
			}
		}
		timer.Reset(wheelTick)
		select {
		case <-timer.C:
		case <-stop:
			timer.Stop()
			return
		}
		due = w.advance(time.Now(), due[:0])
		for _, e := range due {
			w.fire(e.kind, e.tid)
		}
	}
}
