package provider

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stdtasks"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// fakeBroker is a minimal broker-side endpoint for driving a provider
// directly: it accepts one provider connection, completes the handshake,
// and exposes send/recv helpers.
type fakeBroker struct {
	t    *testing.T
	ln   net.Listener
	conn *wire.Conn

	welcomed chan *wire.Register
	// unread holds the not yet consumed entries of a received
	// AttemptResultBatch, oldest first.
	unread []wire.Message
}

func newFakeBroker(t *testing.T) *fakeBroker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBroker{t: t, ln: ln, welcomed: make(chan *wire.Register, 1)}
	t.Cleanup(func() {
		ln.Close()
		if fb.conn != nil {
			fb.conn.Close()
		}
	})
	go fb.accept()
	return fb
}

func (fb *fakeBroker) addr() string { return fb.ln.Addr().String() }

func (fb *fakeBroker) accept() {
	nc, err := fb.ln.Accept()
	if err != nil {
		return
	}
	conn := wire.NewConn(nc)
	msg, err := conn.Recv()
	if err != nil {
		return
	}
	if _, ok := msg.(*wire.Hello); !ok {
		fb.t.Errorf("first message = %T, want Hello", msg)
		return
	}
	if err := conn.Send(&wire.Welcome{ID: 7}); err != nil {
		return
	}
	msg, err = conn.Recv()
	if err != nil {
		return
	}
	reg, ok := msg.(*wire.Register)
	if !ok {
		fb.t.Errorf("second message = %T, want Register", msg)
		return
	}
	fb.conn = conn
	fb.welcomed <- reg
}

// waitRegistered blocks until the provider finished the handshake.
func (fb *fakeBroker) waitRegistered() *wire.Register {
	select {
	case reg := <-fb.welcomed:
		return reg
	case <-time.After(5 * time.Second):
		fb.t.Fatal("provider never registered")
		return nil
	}
}

// recvType reads messages until one of the wanted type arrives, skipping
// heartbeats. An AttemptResultBatch is unpacked into its results, in order.
func recvType[T wire.Message](fb *fakeBroker) T {
	fb.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			fb.t.Fatal("timed out waiting for message")
		}
		var msg wire.Message
		if len(fb.unread) > 0 {
			msg, fb.unread = fb.unread[0], fb.unread[1:]
		} else {
			var err error
			if msg, err = fb.conn.Recv(); err != nil {
				fb.t.Fatalf("recv: %v", err)
			}
		}
		if b, ok := msg.(*wire.AttemptResultBatch); ok {
			for i := range b.Results {
				fb.unread = append(fb.unread, &b.Results[i])
			}
			continue
		}
		if m, ok := msg.(T); ok {
			return m
		}
		if _, ok := msg.(*wire.Heartbeat); ok {
			continue
		}
	}
}

func assignSpin(attempt core.AttemptID, iters int64, includeProgram bool) *wire.Assign {
	data, err := stdtasks.Bytecode("spin")
	if err != nil {
		panic(err)
	}
	a := &wire.Assign{
		Attempt: attempt, Tasklet: core.TaskletID(attempt), Program: core.HashProgram(data),
		Params: []tvm.Value{tvm.Int(iters)}, Fuel: 10_000_000, Seed: 1,
	}
	if includeProgram {
		a.ProgramData = data
	}
	return a
}

func startProvider(t *testing.T, fb *fakeBroker, opts Options) *Provider {
	t.Helper()
	opts.BrokerAddr = fb.addr()
	if opts.Speed == 0 {
		opts.Speed = 100
	}
	p, err := Connect(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	fb.waitRegistered()
	return p
}

func TestProviderRegistersAdvertisedCapacity(t *testing.T) {
	fb := newFakeBroker(t)
	opts := Options{BrokerAddr: fb.addr(), Slots: 3, Speed: 55, Class: core.ClassLaptop}
	p, err := Connect(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reg := fb.waitRegistered()
	if reg.Slots != 3 || reg.Speed != 55 || reg.Class != core.ClassLaptop {
		t.Fatalf("register = %+v", reg)
	}
	if p.ID() != 7 {
		t.Fatalf("id = %d, want broker-assigned 7", p.ID())
	}
}

func TestProviderThrottleScalesAdvertisedSpeed(t *testing.T) {
	fb := newFakeBroker(t)
	p, err := Connect(Options{BrokerAddr: fb.addr(), Speed: 100, Throttle: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reg := fb.waitRegistered()
	if reg.Speed != 25 {
		t.Fatalf("advertised speed = %v, want 25", reg.Speed)
	}
}

func TestProviderExecutesAndReports(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	if err := fb.conn.Send(assignSpin(1, 1000, true)); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Status != core.StatusOK || res.Attempt != 1 {
		t.Fatalf("result = %+v", res)
	}
	if res.Return.I != stdtasks.RefSpin(1000) {
		t.Fatalf("return = %s", res.Return)
	}
	if res.FuelUsed == 0 || res.ExecNanos <= 0 {
		t.Fatalf("accounting missing: %+v", res)
	}
}

func TestProviderCachesProgram(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	if err := fb.conn.Send(assignSpin(1, 10, true)); err != nil {
		t.Fatal(err)
	}
	recvType[*wire.AttemptResult](fb)
	// Second assign ships no bytecode; the provider must use its cache.
	if err := fb.conn.Send(assignSpin(2, 10, false)); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Status != core.StatusOK {
		t.Fatalf("cached-program result = %+v", res)
	}
}

func TestProviderRejectsUnknownProgram(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	if err := fb.conn.Send(assignSpin(1, 10, false)); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Status != core.StatusRejected {
		t.Fatalf("status = %s, want rejected", res.Status)
	}
}

func TestProviderRejectsHashMismatch(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	a := assignSpin(1, 10, true)
	a.Program = 12345 // wrong hash for the attached bytecode
	if err := fb.conn.Send(a); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Status != core.StatusRejected {
		t.Fatalf("status = %s, want rejected on hash mismatch", res.Status)
	}
}

// longSpin is an attempt that runs until cancelled.
func longSpin(attempt core.AttemptID) *wire.Assign {
	a := assignSpin(attempt, 1<<40, true)
	a.Fuel = 1 << 50
	return a
}

func TestProviderRejectsOverCommit(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	// Fill the single slot with a long-running tasklet and the one-deep
	// FIFO behind it, then over-commit past the 2×Slots window.
	long := assignSpin(1, 50_000_000, true)
	long.Fuel = 1 << 40
	if err := fb.conn.Send(long); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let it start
	if err := fb.conn.Send(assignSpin(2, 10, false)); err != nil {
		t.Fatal(err)
	}
	if err := fb.conn.Send(assignSpin(3, 11, false)); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Attempt != 3 || res.Status != core.StatusRejected {
		t.Fatalf("over-commit result = %+v", res)
	}
}

// TestProviderQueuesWithinWindow fills both slots of a 2-slot provider with
// attempts that run until cancelled and queues two short ones behind them.
// Freeing one slot must run the queued attempts on it in FIFO order, while
// the other slot stays busy.
func TestProviderQueuesWithinWindow(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 2})
	for _, a := range []*wire.Assign{
		longSpin(1), longSpin(2), assignSpin(3, 10, false), assignSpin(4, 11, false),
	} {
		if err := fb.conn.Send(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.conn.Send(&wire.CancelAttempt{Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		attempt core.AttemptID
		status  core.ResultStatus
		ret     int64
	}{{1, core.StatusFault, 0}, {3, core.StatusOK, stdtasks.RefSpin(10)}, {4, core.StatusOK, stdtasks.RefSpin(11)}}
	for _, w := range want {
		res := recvType[*wire.AttemptResult](fb)
		if res.Attempt != w.attempt || res.Status != w.status {
			t.Fatalf("got attempt %d %s, want attempt %d %s (FIFO order)", res.Attempt, res.Status, w.attempt, w.status)
		}
		if w.status == core.StatusOK && res.Return.I != w.ret {
			t.Fatalf("attempt %d returned %s", res.Attempt, res.Return)
		}
	}
	if err := fb.conn.Send(&wire.CancelAttempt{Attempt: 2}); err != nil {
		t.Fatal(err)
	}
	if res := recvType[*wire.AttemptResult](fb); res.Attempt != 2 || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("second slot result = %+v", res)
	}
}

// TestProviderCancelQueuedAttempt cancels an attempt still waiting in the
// FIFO: it must be answered FaultCancelled at once (its slot is still busy),
// free its FIFO place, and never run.
func TestProviderCancelQueuedAttempt(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	for _, m := range []wire.Message{longSpin(1), assignSpin(2, 10, false), &wire.CancelAttempt{Attempt: 2}} {
		if err := fb.conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Attempt != 2 || res.Status != core.StatusFault || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("queued cancel result = %+v", res)
	}
	// The FIFO place is free again: a new attempt queues instead of being
	// rejected, and runs right after the slot frees — attempt 2 never runs.
	for _, m := range []wire.Message{assignSpin(3, 11, false), &wire.CancelAttempt{Attempt: 1}} {
		if err := fb.conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if res := recvType[*wire.AttemptResult](fb); res.Attempt != 1 || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("running cancel result = %+v", res)
	}
	if res := recvType[*wire.AttemptResult](fb); res.Attempt != 3 || res.Status != core.StatusOK {
		t.Fatalf("after cancelled queue entry: got %+v, want attempt 3 OK", res)
	}
}

// TestProviderCloseDropsQueue shuts a provider down with an attempt queued
// behind a running one: only the running attempt may finish.
func TestProviderCloseDropsQueue(t *testing.T) {
	fb := newFakeBroker(t)
	p := startProvider(t, fb, Options{Slots: 1})
	for _, a := range []*wire.Assign{longSpin(1), assignSpin(2, 10, false)} {
		if err := fb.conn.Send(a); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		queued := len(p.queue)
		p.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("attempt 2 never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Executed(); got != 1 {
		t.Fatalf("executed = %d after Close, want 1 (the queued attempt must not run)", got)
	}
}

func TestProviderCancelAbortsRunningAttempt(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	long := assignSpin(1, 1<<40, true)
	long.Fuel = 1 << 50
	if err := fb.conn.Send(long); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := fb.conn.Send(&wire.CancelAttempt{Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Status != core.StatusFault || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("cancelled result = %+v", res)
	}
}

func TestProviderReportsProgramFault(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	tiny := assignSpin(1, 1_000_000, true)
	tiny.Fuel = 100 // guaranteed out-of-fuel
	if err := fb.conn.Send(tiny); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Status != core.StatusFault || res.FaultCode != tvm.FaultOutOfFuel {
		t.Fatalf("fault result = %+v", res)
	}
}

func TestProviderFailAfterDisconnects(t *testing.T) {
	fb := newFakeBroker(t)
	p := startProvider(t, fb, Options{Slots: 1, FailAfter: 2})
	// The first result must arrive; the second races the injected crash
	// (a crash is allowed to eat its own last result — the broker treats
	// it as lost either way), so only send it and wait for the
	// disconnect.
	// Distinct content both times: FailAfter counts real executions, and an
	// identical repeat would be served from the memo instead of running.
	if err := fb.conn.Send(assignSpin(1, 10, true)); err != nil {
		t.Fatal(err)
	}
	recvType[*wire.AttemptResult](fb)
	if err := fb.conn.Send(assignSpin(2, 11, false)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { p.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("provider did not fail after 2 tasklets")
	}
	if p.Executed() != 2 {
		t.Fatalf("executed = %d", p.Executed())
	}
}

func TestProviderHeartbeats(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 2, HeartbeatInterval: 20 * time.Millisecond})
	hb := recvType[*wire.Heartbeat](fb)
	if hb.FreeSlots != 2 {
		t.Fatalf("free slots = %d", hb.FreeSlots)
	}
}

func TestProviderValidatesOptions(t *testing.T) {
	if _, err := Connect(Options{}); err == nil {
		t.Fatal("missing broker address accepted")
	}
	if _, err := Connect(Options{BrokerAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable broker accepted")
	}
}

func TestProviderCloseIdempotent(t *testing.T) {
	fb := newFakeBroker(t)
	p := startProvider(t, fb, Options{Slots: 1})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestProviderWindowStress keeps a 3-slot provider's window (slots plus
// FIFO) full for thousands of attempts, as a broker holding 2×Slots
// credits would, and cancels every seventh attempt right after assigning
// it, so cancels race the slot hand-off while the attempt is queued,
// running or done. Every attempt must be answered exactly once and none
// rejected.
func TestProviderWindowStress(t *testing.T) {
	const slots, total = 3, 3000
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: slots, MemoEntries: -1})
	next := core.AttemptID(1)
	assign := func() {
		if err := fb.conn.Send(assignSpin(next, int64(next%50+1), next == 1)); err != nil {
			t.Fatal(err)
		}
		if next%7 == 0 {
			if err := fb.conn.Send(&wire.CancelAttempt{Attempt: next}); err != nil {
				t.Fatal(err)
			}
		}
		next++
	}
	for i := 0; i < 2*slots; i++ {
		assign()
	}
	seen := make(map[core.AttemptID]bool, total)
	for len(seen) < total {
		res := recvType[*wire.AttemptResult](fb)
		if seen[res.Attempt] {
			t.Fatalf("attempt %d answered twice", res.Attempt)
		}
		seen[res.Attempt] = true
		cancelled := res.Status == core.StatusFault && res.FaultCode == tvm.FaultCancelled
		if res.Status != core.StatusOK && !(cancelled && res.Attempt%7 == 0) {
			t.Fatalf("attempt %d: %s %q", res.Attempt, res.Status, res.FaultMsg)
		}
		if next <= total {
			assign()
		}
	}
}
