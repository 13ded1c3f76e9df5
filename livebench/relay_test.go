package main

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// relayFrames is one of every frame the relay decodes, plus one it only
// forwards.
func relayFrames() []wire.Message {
	params := []tvm.Value{tvm.Int(320), tvm.Int(1_000_000_007)}
	assign := wire.Assign{Attempt: 11, Tasklet: 5, Program: 99, Params: params, Fuel: 1000, Seed: 3}
	result := wire.AttemptResult{Attempt: 11, Tasklet: 5, Status: core.StatusOK, Return: tvm.Int(42), FuelUsed: 700, ExecNanos: 1234}
	push := wire.ResultPush{Job: 2, Tasklet: 5, Index: 4, Status: core.StatusOK, Return: tvm.Int(42), Provider: 1, Attempts: 1}
	return []wire.Message{
		&wire.SubmitJob{Program: []byte{1, 2, 3}, Params: [][]tvm.Value{params, params}},
		&wire.JobAccepted{Job: 2, Tasklets: 2},
		&assign,
		&wire.AssignBatch{Programs: []wire.ProgramBlob{{ID: 99, Data: []byte{1, 2, 3}}},
			Assigns: []wire.Assign{assign, {Attempt: 12, Tasklet: 6, Program: 99, Params: params}}},
		&result,
		&wire.AttemptResultBatch{Results: []wire.AttemptResult{result, {Attempt: 12, Tasklet: 6, Status: core.StatusOK}}},
		&push,
		&wire.ResultPushBatch{Results: []wire.ResultPush{push, {Job: 2, Tasklet: 6, Index: 5}}},
		&wire.Heartbeat{FreeSlots: 2},
	}
}

// wantKinds is the event sequence relayFrames produces.
var wantKinds = []uint8{evSubmit, evAccepted, evAssign, evAssign, evAssign, evResult, evResult, evResult, evPush, evPush, evPush}

func TestRelayForwardsRealFramesByteIdentical(t *testing.T) {
	msgs := relayFrames()
	var want []byte
	for _, m := range msgs {
		b, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}

	peer, relayIn := net.Pipe()
	relayOut, far := net.Pipe()
	tp := &tap{conn: 1, start: time.Now()}
	done := make(chan error, 1)
	go func() {
		err := forward(relayIn, relayOut, tp)
		relayOut.Close()
		done <- err
	}()
	go func() {
		c := wire.NewConn(peer)
		for _, m := range msgs {
			if err := c.Send(m); err != nil {
				t.Error(err)
				break
			}
		}
		peer.Close()
	}()
	got, err := io.ReadAll(far)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("forward: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("relay changed the bytes: got %d bytes, want %d", len(got), len(want))
	}
	checkEvents(t, tp)
}

// A frame split across reads at any point decodes to the same events.
func TestTapReassemblesSplitFrames(t *testing.T) {
	var stream []byte
	for _, m := range relayFrames() {
		b, err := wire.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, b...)
	}
	for _, chunk := range []int{1, 3, 7, len(stream)} {
		tp := &tap{conn: 1, start: time.Now()}
		for i := 0; i < len(stream); i += chunk {
			tp.feed(stream[i:min(i+chunk, len(stream))], time.Now())
		}
		if len(tp.buf) != 0 {
			t.Fatalf("chunk %d: %d bytes left over", chunk, len(tp.buf))
		}
		checkEvents(t, tp)
	}
}

func checkEvents(t *testing.T, tp *tap) {
	t.Helper()
	if tp.errs != 0 {
		t.Fatalf("%d frames failed to decode", tp.errs)
	}
	if len(tp.events) != len(wantKinds) {
		t.Fatalf("got %d events, want %d", len(tp.events), len(wantKinds))
	}
	for i, e := range tp.events {
		if e.kind != wantKinds[i] {
			t.Fatalf("event %d kind = %d, want %d", i, e.kind, wantKinds[i])
		}
	}
	if e := tp.events[10]; e.a != 2 || e.b != 5 || e.c != 6 {
		t.Fatalf("batched push event = %+v, want job 2 index 5 tasklet 6", e)
	}
}
