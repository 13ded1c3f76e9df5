package broker

import (
	"net"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// windowRun is what a hand-built provider saw while serving one job.
type windowRun struct {
	maxOutstanding int // most attempts assigned and not yet answered
	freeAtPeak     int // fleet_info free slots while at maxOutstanding
	gossipAtPeak   int // freeSlotsSample while at maxOutstanding
	freeIdle       int // fleet_info free slots before any work
	snapshotSlots  int // Snapshot's Slots for the provider
}

// runWindowProvider serves a job of n squares from a provider hand-built
// over net.Pipe, which advertises caps and registers slots. It answers
// assignments only after no further one has arrived for a quiet period,
// so the broker can fill every credit it grants before any comes back.
func runWindowProvider(t *testing.T, caps uint8, slots, n int) windowRun {
	t.Helper()
	b := New(Options{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	brokerEnd, provEnd := net.Pipe()
	t.Cleanup(func() { provEnd.Close() })
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.handleConn(brokerEnd)
	}()

	conn := wire.NewConn(provEnd)
	if err := conn.Send(&wire.Hello{Version: wire.ProtocolVersion, Role: wire.RoleProvider, Caps: caps}); err != nil {
		t.Fatal(err)
	}
	if m, err := conn.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*wire.Welcome); !ok {
		t.Fatalf("handshake reply = %#v", m)
	}
	if err := conn.Send(&wire.Register{Slots: slots, Speed: 100}); err != nil {
		t.Fatal(err)
	}
	msgs := make(chan wire.Message, 64)
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

	var run windowRun
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := b.Snapshot(); len(s.Providers) == 1 && s.Providers[0].Slots == slots {
			run.snapshotSlots = s.Providers[0].Slots
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("provider never registered")
		}
		time.Sleep(time.Millisecond)
	}
	run.freeIdle = b.fleetInfo().Providers[0].FreeSlots

	c, err := consumer.Connect(addr, "window")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan []consumer.TaskResult, 1)
	go func() {
		res, err := job.Collect(ctxT(t))
		if err != nil {
			t.Error(err)
		}
		collected <- res
	}()

	outstanding := map[core.AttemptID]*wire.Assign{}
	take := func(a *wire.Assign) {
		outstanding[a.Attempt] = a
		if len(outstanding) > run.maxOutstanding {
			run.maxOutstanding = len(outstanding)
			run.freeAtPeak = b.fleetInfo().Providers[0].FreeSlots
			run.gossipAtPeak = b.freeSlotsSample()
		}
	}
	const quiet = 20 * time.Millisecond
	for {
		select {
		case m, ok := <-msgs:
			if !ok {
				t.Fatal("broker closed the provider link")
			}
			switch m := m.(type) {
			case *wire.Assign:
				take(m)
			case *wire.AssignBatch:
				for i := range m.Assigns {
					take(&m.Assigns[i])
				}
			}
		case <-time.After(quiet):
			var rb wire.AttemptResultBatch
			for _, a := range outstanding {
				v := a.Params[0].I
				rb.Results = append(rb.Results, wire.AttemptResult{
					Attempt: a.Attempt, Tasklet: a.Tasklet, Status: core.StatusOK,
					Return: tvm.Int(v * v), FuelUsed: 1, ExecNanos: 1,
				})
			}
			clear(outstanding)
			if err := conn.Send(&wire.Heartbeat{}); err != nil {
				t.Fatal(err)
			}
			if len(rb.Results) > 0 {
				if err := conn.Send(&rb); err != nil {
					t.Fatal(err)
				}
			}
		case res := <-collected:
			checkSquares(t, res, n)
			return run
		}
	}
}

// TestBrokerAssignmentWindow pins how many attempts the broker keeps
// outstanding on one provider: Slots for a provider whose Hello lacks
// CapQueue (a pre-window binary), 2×Slots for one that advertises it —
// while every reported capacity (fleet_info, shard gossip, Snapshot) keeps
// counting execution slots, not placement credits.
func TestBrokerAssignmentWindow(t *testing.T) {
	const slots, n = 2, 24
	cases := []struct {
		name string
		caps uint8
		want int
	}{
		{"legacy", wire.CapFlagsTail | wire.CapBatch, slots},
		{"legacy-single-frames", wire.CapFlagsTail, slots},
		{"queue", wire.CapFlagsTail | wire.CapBatch | wire.CapQueue, 2 * slots},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := runWindowProvider(t, tc.caps, slots, n)
			if run.maxOutstanding != tc.want {
				t.Fatalf("broker kept up to %d attempts outstanding, want exactly %d", run.maxOutstanding, tc.want)
			}
			if run.freeIdle != slots || run.snapshotSlots != slots {
				t.Fatalf("idle provider reported %d free slots and %d slots, want %d and %d",
					run.freeIdle, run.snapshotSlots, slots, slots)
			}
			if run.freeAtPeak != 0 || run.gossipAtPeak != 0 {
				t.Fatalf("with the window full: fleet_info free %d, gossip free %d, want 0 and 0",
					run.freeAtPeak, run.gossipAtPeak)
			}
		})
	}
}

// TestAssignmentWindowHealthyFleetNoRejections runs a burst through real
// providers, which advertise CapQueue: with the window in use no
// assignment may be rejected as state drift.
func TestAssignmentWindowHealthyFleetNoRejections(t *testing.T) {
	regs := make([]*metrics.Registry, 2)
	addr := testStack(t, Options{}, 2, func(i int) provider.Options {
		regs[i] = &metrics.Registry{}
		return provider.Options{Slots: 2, Speed: 100, Metrics: regs[i], MemoEntries: -1}
	})
	c, err := consumer.Connect(addr, "healthy")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 400
	job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	checkSquares(t, res, n)
	for i, reg := range regs {
		if got := reg.Counter("provider.attempts.rejected").Value(); got != 0 {
			t.Fatalf("provider %d rejected %d assignments in a healthy fleet", i, got)
		}
	}
}
