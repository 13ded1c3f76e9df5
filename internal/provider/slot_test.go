package provider

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestSlotFreeBeforeResult pins the slot-release order: a provider must free
// an attempt's slot before it reports the result, because a broker may answer
// the result with the next Assign at once. A fake broker on the far end of a
// net.Pipe drives a 1-slot provider through back-to-back cycles, sending
// each Assign the moment the previous result arrives; a "no free slot"
// rejection, or a result that arrives while its slot is still held, means
// the report overtook the slot release.
func TestSlotFreeBeforeResult(t *testing.T) {
	const cycles = 2000
	brokerEnd, providerEnd := net.Pipe()
	conn := wire.NewConn(brokerEnd)
	t.Cleanup(func() { conn.Close() })
	// One reader goroutine owns the broker end so every wait can time out.
	msgs := make(chan wire.Message, 16)
	go func() {
		defer close(msgs)
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			msgs <- m
		}
	}()
	recv := func(d time.Duration) wire.Message {
		select {
		case m := <-msgs:
			return m
		case <-time.After(d):
			return nil
		}
	}

	started := make(chan *Provider, 1)
	go func() {
		p, err := connect(providerEnd, Options{
			Slots: 1, Speed: 100, Throttle: 1, HeartbeatInterval: time.Hour,
			MemoEntries: -1, NoBatch: true,
		})
		if err != nil {
			t.Error(err)
		}
		started <- p
	}()
	if _, ok := recv(10 * time.Second).(*wire.Hello); !ok {
		t.Fatal("first message is not Hello")
	}
	if err := conn.Send(&wire.Welcome{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recv(10 * time.Second).(*wire.Register); !ok {
		t.Fatal("second message is not Register")
	}
	p := <-started
	if p == nil {
		t.FailNow()
	}
	t.Cleanup(func() { p.Close() })

	// Deterministic probe: hold p.mu across one execution. A provider that
	// frees the slot and drops the cancel entry (which takes p.mu) before
	// reporting cannot report until the lock is released; one that reports
	// first gets its result out while the slot is still held.
	a := assignSpin(1, 2000, true)
	prog, err := p.resolveProgram(a)
	if err != nil {
		t.Fatal(err)
	}
	p.admit(a, prog)
	p.mu.Lock()
	early := recv(100 * time.Millisecond)
	held := len(p.slotSem)
	p.mu.Unlock()
	if early != nil && held != 0 {
		t.Fatal("result reported while its slot was still held")
	}
	if early == nil {
		early = recv(10 * time.Second)
	}
	if r, ok := early.(*wire.AttemptResult); !ok || r.Status != core.StatusOK {
		t.Fatalf("probe attempt: got %#v, want an OK AttemptResult", early)
	}

	rejected := 0
	for i := 2; i <= cycles+1; i++ {
		// Fresh params per cycle keep every attempt a real execution.
		a := assignSpin(core.AttemptID(i), int64(i%7+1), false)
		if err := conn.Send(a); err != nil {
			t.Fatal(err)
		}
		res, ok := recv(10 * time.Second).(*wire.AttemptResult)
		if !ok {
			t.Fatalf("cycle %d: no AttemptResult", i)
		}
		if res.Attempt != a.Attempt {
			t.Fatalf("cycle %d: result for attempt %d, want %d", i, res.Attempt, a.Attempt)
		}
		if len(p.slotSem) != 0 {
			t.Fatalf("cycle %d: result arrived while its slot was still held", i)
		}
		if res.Status == core.StatusRejected {
			rejected++
		}
	}
	if rejected != 0 {
		t.Fatalf("%d of %d back-to-back assignments rejected: slot released after the result was sent", rejected, cycles)
	}
}
