package broker

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestWheelAdvance drives advance directly (no timer goroutine) and pins the
// wheel's core semantics: due entries fire once, disarmed deadlines never
// fire, re-arming replaces the earlier deadline, and far-future entries
// survive intermediate sweeps.
func TestWheelAdvance(t *testing.T) {
	w := newTimerWheel(nil)
	now := time.Now()

	w.armDeadline(1, 5*time.Millisecond)
	w.armDeadline(2, 5*time.Millisecond)
	w.armDeadline(3, 400*time.Millisecond) // beyond a full rotation
	w.armLaunch(4, 5*time.Millisecond)
	w.stopDeadline(2)
	w.armDeadline(5, 5*time.Millisecond)
	w.armDeadline(5, 30*time.Millisecond) // re-arm pushes it out

	due := w.advance(now.Add(20*time.Millisecond), nil)
	got := map[core.TaskletID]uint8{}
	for _, e := range due {
		if _, dup := got[e.tid]; dup {
			t.Fatalf("tasklet %d fired twice in one sweep", e.tid)
		}
		got[e.tid] = e.kind
	}
	if got[1] != wheelDeadline || got[4] != wheelLaunch {
		t.Fatalf("first sweep fired %v, want tasklet 1 (deadline) and 4 (launch)", got)
	}
	if _, ok := got[2]; ok {
		t.Fatal("disarmed deadline fired")
	}
	if _, ok := got[5]; ok {
		t.Fatal("re-armed deadline fired at its old expiry")
	}
	if w.hasDeadline(1) {
		t.Fatal("fired deadline still reported armed")
	}
	if !w.hasDeadline(3) || !w.hasDeadline(5) {
		t.Fatal("pending deadlines lost by the sweep")
	}

	due = w.advance(now.Add(50*time.Millisecond), due[:0])
	if len(due) != 1 || due[0].tid != 5 {
		t.Fatalf("second sweep fired %d entries, want just the re-armed tasklet 5", len(due))
	}

	// A wheel more than a full rotation behind still finds everything due in
	// one capped sweep.
	due = w.advance(now.Add(2*time.Second), due[:0])
	if len(due) != 1 || due[0].tid != 3 {
		t.Fatalf("catch-up sweep fired %v, want tasklet 3", due)
	}
	if w.count != 0 {
		t.Fatalf("wheel count %d after draining, want 0", w.count)
	}
}

// TestWheelRunFires exercises the timer goroutine end to end: an armed
// deadline reaches the fire callback, and the goroutine sleeps (not spins)
// while the wheel is empty yet wakes for entries armed afterwards.
func TestWheelRunFires(t *testing.T) {
	fired := make(chan core.TaskletID, 8)
	w := newTimerWheel(func(kind uint8, tid core.TaskletID) { fired <- tid })
	stop := make(chan struct{})
	defer close(stop)
	go w.run(stop)

	w.armDeadline(7, 2*time.Millisecond)
	select {
	case tid := <-fired:
		if tid != 7 {
			t.Fatalf("fired %d, want 7", tid)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("armed deadline never fired")
	}

	// Arm after the wheel went idle: the kick must wake the goroutine.
	time.Sleep(5 * time.Millisecond)
	w.armLaunch(9, time.Millisecond)
	select {
	case tid := <-fired:
		if tid != 9 {
			t.Fatalf("fired %d, want 9", tid)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("entry armed on an idle wheel never fired")
	}
}

// TestIngressRingFIFO pins single-producer semantics: events pop in push
// order, pop on empty reports false, and the ring is reusable after
// wrapping past its capacity.
func TestIngressRingFIFO(t *testing.T) {
	r := newIngressRing()
	var ev engineEvent
	if r.pop(&ev) || r.hasData() {
		t.Fatal("fresh ring claims to hold data")
	}
	const total = ingressRingSize*2 + 17 // force a wrap
	popped := 0
	for i := 0; i < total; i++ {
		r.push(&engineEvent{kind: evDeadline, tid: core.TaskletID(i)})
		// Drain every few pushes so the bounded ring never fills.
		for ; r.pop(&ev); popped++ {
			if ev.tid != core.TaskletID(popped) {
				t.Fatalf("popped tid %d, want %d (FIFO violated)", ev.tid, popped)
			}
		}
	}
	if popped != total {
		t.Fatalf("popped %d of %d events", popped, total)
	}
}

// TestIngressRingConcurrentProducers is the MPSC contract under the race
// detector: several producers push through a full ring (exercising the
// backpressure spin) while one consumer drains; nothing is lost, duplicated,
// or reordered within a producer's own stream.
func TestIngressRingConcurrentProducers(t *testing.T) {
	r := newIngressRing()
	const producers = 4
	const perProducer = 8 * ingressRingSize

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				// tid encodes (producer, seq) so the consumer can check
				// per-producer FIFO order.
				r.push(&engineEvent{kind: evResult, tid: core.TaskletID(p*perProducer + i)})
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	next := [producers]int{}
	seen := 0
	var ev engineEvent
	for seen < producers*perProducer {
		if !r.pop(&ev) {
			select {
			case <-done:
				if !r.hasData() && seen < producers*perProducer {
					t.Errorf("producers done but only %d of %d events arrived", seen, producers*perProducer)
					return
				}
			default:
			}
			continue
		}
		p, i := int(ev.tid)/perProducer, int(ev.tid)%perProducer
		if i != next[p] {
			t.Fatalf("producer %d: popped seq %d, want %d", p, i, next[p])
		}
		next[p]++
		seen++
	}
	if r.hasData() {
		t.Fatal("ring still holds data after every event was consumed")
	}
}
