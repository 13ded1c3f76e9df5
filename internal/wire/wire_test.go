package wire

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/tvm"
)

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	return []Message{
		&Hello{Version: ProtocolVersion, Role: RoleProvider, Name: "node-7"},
		&Hello{Version: ProtocolVersion, Role: RoleConsumer, Name: "app", Caps: CapFlagsTail},
		&Welcome{ID: 42},
		&ErrorMsg{Code: ErrCodeBadJob, Msg: "no such program"},
		&Register{Slots: 4, Class: core.ClassLaptop, Speed: 123.5},
		&Heartbeat{FreeSlots: 2},
		&Assign{
			Attempt: 9, Tasklet: 8, Program: 77,
			ProgramData: []byte{1, 2, 3},
			Params:      []tvm.Value{tvm.Int(1), tvm.Str("x"), tvm.Arr(tvm.Float(2.5))},
			Fuel:        1000, Seed: 5,
		},
		&Assign{
			Attempt: 10, Tasklet: 8, Program: 77,
			ProgramData: []byte{4},
			Params:      []tvm.Value{tvm.Int(2)},
			Fuel:        1, NoCache: true,
		},
		&CancelAttempt{Attempt: 9},
		&AttemptResult{
			Attempt: 9, Tasklet: 8, Status: core.StatusFault,
			Return:    tvm.Nil(),
			Emitted:   []tvm.Value{tvm.Int(3)},
			FaultCode: tvm.FaultOutOfFuel, FaultMsg: "budget exhausted",
			FuelUsed: 999, ExecNanos: 12345,
		},
		&SubmitJob{
			Program: []byte{9, 9, 9},
			Params:  [][]tvm.Value{{tvm.Int(1)}, {tvm.Int(2)}},
			QoC: core.QoC{
				Mode: core.QoCVoting, Replicas: 3, MaxRetries: 2,
				Deadline: 5 * time.Second, PreferFast: true,
			},
			Fuel: 10_000, Seed: 1,
		},
		&SubmitJob{
			Program: []byte{7},
			Params:  [][]tvm.Value{{}},
			QoC:     core.QoC{NoCache: true},
			Fuel:    1, Seed: 2,
		},
		&JobAccepted{Job: 3, Tasklets: 128},
		&ResultPush{
			Job: 3, Tasklet: 8, Index: 17, Status: core.StatusOK,
			Return:   tvm.Float(3.14),
			Emitted:  []tvm.Value{tvm.Str("out")},
			Provider: 2, Attempts: 2, ExecNanos: 777,
		},
		&JobDone{Job: 3, Completed: 120, Failed: 8},
		&CancelJob{Job: 3},
		&Bye{},
		&QueryFleet{},
		&FleetInfo{
			Providers: []ProviderEntry{
				{ID: 1, Class: core.ClassServer, Slots: 4, FreeSlots: 2,
					Speed: 200.5, Reliability: 0.95, Executed: 1234},
				{ID: 2, Class: core.ClassMobile, Slots: 1, FreeSlots: 1, Speed: 25},
			},
			Pending: 7,
		},
		&Hello{Version: ProtocolVersion, Role: RolePeer, Name: "shard-2"},
		&ShardGossip{Shard: 2, Seq: 41, QueueDepth: 120, FreeSlots: 3, Rate: 812.5},
		&MigrateRequest{Shard: 1, Max: 32},
		&MigrateTasklet{
			Origin: 55, Program: 77,
			ProgramData: []byte{1, 2, 3},
			Params:      []tvm.Value{tvm.Int(9), tvm.Str("k")},
			QoC: core.QoC{
				Mode: core.QoCVoting, Replicas: 3, MaxRetries: 2,
				Deadline: time.Second, PreferFast: true, NoCache: true,
			},
			Fuel: 5000, Seed: 11,
		},
		&MigrateTasklet{Origin: 56, Program: 77, ProgramData: []byte{}, Params: []tvm.Value{}},
		&MigrateAck{Shard: 2, Origin: 55, Accepted: true},
		&MigrateAck{Shard: 2, Origin: 56},
		&MigrateResult{
			Origin: 55, Status: core.StatusOK,
			Return:   tvm.Int(81),
			Emitted:  []tvm.Value{tvm.Str("log")},
			Provider: 4, Attempts: 1, ExecNanos: 4242,
		},
		&MigrateResult{
			Origin: 56, Status: core.StatusFault,
			Return:    tvm.Nil(),
			Emitted:   []tvm.Value{},
			FaultCode: tvm.FaultOutOfFuel, FaultMsg: "budget exhausted",
			Attempts: 3,
		},
		&AssignBatch{
			Programs: []ProgramBlob{{ID: 77, Data: []byte{1, 2, 3}}, {ID: 78, Data: []byte{}}},
			Assigns: []Assign{
				{Attempt: 9, Tasklet: 8, Program: 77,
					Params: []tvm.Value{tvm.Int(1), tvm.Str("x")}, Fuel: 1000, Seed: 5},
				{Attempt: 10, Tasklet: 9, Program: 78,
					Params: []tvm.Value{}, Fuel: 1, NoCache: true},
			},
		},
		&AssignBatch{Programs: []ProgramBlob{}, Assigns: []Assign{
			{Attempt: 11, Tasklet: 10, Program: 77, Params: []tvm.Value{tvm.Int(4)}},
		}},
		&AttemptResultBatch{Results: []AttemptResult{
			{Attempt: 9, Tasklet: 8, Status: core.StatusOK,
				Return: tvm.Int(7), Emitted: []tvm.Value{tvm.Str("out")},
				FuelUsed: 42, ExecNanos: 1234},
			{Attempt: 10, Tasklet: 9, Status: core.StatusFault,
				Return: tvm.Nil(), Emitted: []tvm.Value{},
				FaultCode: tvm.FaultOutOfFuel, FaultMsg: "budget exhausted",
				FuelUsed: 999, ExecNanos: 555},
		}},
		&ResultPushBatch{Results: []ResultPush{
			{Job: 3, Tasklet: 8, Index: 17, Status: core.StatusOK,
				Return: tvm.Float(3.14), Emitted: []tvm.Value{tvm.Str("out")},
				Provider: 2, Attempts: 2, ExecNanos: 777},
			{Job: 3, Tasklet: 9, Index: 18, Status: core.StatusFault,
				Return: tvm.Nil(), Emitted: []tvm.Value{},
				FaultCode: tvm.FaultOutOfFuel, FaultMsg: "budget exhausted",
				Provider: 4, Attempts: 1, ExecNanos: 12},
		}},
	}
}

func TestMarshalRoundTripAllTypes(t *testing.T) {
	for _, m := range allMessages() {
		t.Run(m.Type().String(), func(t *testing.T) {
			frame, err := Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			payload := frame[5:]
			got, err := Unmarshal(m.Type(), payload)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m, got) {
				t.Fatalf("round trip:\n in: %#v\nout: %#v", m, got)
			}
		})
	}
}

// hasOptionalTail reports whether a message instance encodes with the
// 1-byte optional tail (caps on Hello, flags on SubmitJob/Assign).
func hasOptionalTail(m Message) bool {
	switch v := m.(type) {
	case *Hello:
		return v.Caps != 0
	case *SubmitJob:
		return v.QoC.NoCache
	case *Assign:
		return v.NoCache
	}
	return false
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	for _, m := range allMessages() {
		frame, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		payload := frame[5:]
		for cut := 1; cut <= len(payload); cut++ {
			// Removing exactly the optional-tail byte yields a valid
			// *old-format* frame by design (append-only protocol
			// discipline), covered by TestTaillessFramesMatchLegacyFormat.
			// Every deeper truncation must still fail.
			if cut == 1 && hasOptionalTail(m) {
				continue
			}
			if _, err := Unmarshal(m.Type(), payload[:len(payload)-cut]); err == nil {
				// Some prefixes of variable-length messages can decode by
				// coincidence only if every field is length-guarded; any
				// success here is a framing bug.
				t.Fatalf("%s: truncation by %d accepted", m.Type(), cut)
			}
		}
	}
}

// TestTaillessFramesMatchLegacyFormat proves both directions of the
// append-only discipline for Hello/SubmitJob/Assign. A frame with no set
// bits carries no tail at all — byte-identical to the pre-tail revision, so
// a legacy peer's strict trailing-bytes check accepts it — and is exactly
// one byte shorter than its flagged twin. And a frame that *does* carry a
// zero tail (the interim revision emitted one unconditionally) still
// decodes to the same message, with every bit false.
func TestTaillessFramesMatchLegacyFormat(t *testing.T) {
	pairs := []struct {
		name             string
		tailless, tailed Message
	}{
		{
			"hello",
			&Hello{Version: ProtocolVersion, Role: RoleProvider, Name: "n"},
			&Hello{Version: ProtocolVersion, Role: RoleProvider, Name: "n", Caps: CapFlagsTail},
		},
		{
			"assign",
			&Assign{Attempt: 1, Tasklet: 2, Program: 3, ProgramData: []byte{9},
				Params: []tvm.Value{tvm.Int(1)}, Fuel: 4, Seed: 5},
			&Assign{Attempt: 1, Tasklet: 2, Program: 3, ProgramData: []byte{9},
				Params: []tvm.Value{tvm.Int(1)}, Fuel: 4, Seed: 5, NoCache: true},
		},
		{
			"submit_job",
			&SubmitJob{Program: []byte{1}, Params: [][]tvm.Value{{tvm.Int(1)}}, Fuel: 2, Seed: 3},
			&SubmitJob{Program: []byte{1}, Params: [][]tvm.Value{{tvm.Int(1)}}, Fuel: 2, Seed: 3,
				QoC: core.QoC{NoCache: true}},
		},
	}
	for _, p := range pairs {
		plain, err := Marshal(p.tailless)
		if err != nil {
			t.Fatal(err)
		}
		flagged, err := Marshal(p.tailed)
		if err != nil {
			t.Fatal(err)
		}
		if len(flagged) != len(plain)+1 {
			t.Fatalf("%s: tailed frame is %d bytes, tailless %d; want exactly one extra",
				p.name, len(flagged), len(plain))
		}
		// A legacy frame equals the tailless encoding; decoding it must
		// reproduce the message with all tail bits false.
		got, err := Unmarshal(p.tailless.Type(), plain[5:])
		if err != nil {
			t.Fatalf("%s: legacy frame rejected: %v", p.name, err)
		}
		if !reflect.DeepEqual(p.tailless, got) {
			t.Fatalf("%s legacy decode:\n in: %#v\nout: %#v", p.name, p.tailless, got)
		}
		// The interim always-emit revision appended a zero tail; those
		// frames must keep decoding identically.
		withZero := append(append([]byte(nil), plain[5:]...), 0)
		got, err = Unmarshal(p.tailless.Type(), withZero)
		if err != nil {
			t.Fatalf("%s: zero-tail frame rejected: %v", p.name, err)
		}
		if !reflect.DeepEqual(p.tailless, got) {
			t.Fatalf("%s zero-tail decode:\n in: %#v\nout: %#v", p.name, p.tailless, got)
		}
	}
}

// TestFlagsTailRoundTrip pins the flag bit assignments on the wire.
func TestFlagsTailRoundTrip(t *testing.T) {
	sj := &SubmitJob{
		Program: []byte{1},
		Params:  [][]tvm.Value{{tvm.Int(1)}},
		QoC:     core.QoC{NoCache: true},
		Fuel:    5, Seed: 6,
	}
	frame, err := Marshal(sj)
	if err != nil {
		t.Fatal(err)
	}
	if tail := frame[len(frame)-1]; tail != flagNoCache {
		t.Fatalf("SubmitJob flags tail = %#x, want %#x", tail, flagNoCache)
	}
	got, err := Unmarshal(TypeSubmitJob, frame[5:])
	if err != nil {
		t.Fatal(err)
	}
	if !got.(*SubmitJob).QoC.NoCache {
		t.Fatal("SubmitJob NoCache lost in round trip")
	}

	as := &Assign{Attempt: 1, Tasklet: 2, Program: 3, Fuel: 4, Seed: 5, NoCache: true}
	frame, err = Marshal(as)
	if err != nil {
		t.Fatal(err)
	}
	if tail := frame[len(frame)-1]; tail != flagNoCache {
		t.Fatalf("Assign flags tail = %#x, want %#x", tail, flagNoCache)
	}
	got, err = Unmarshal(TypeAssign, frame[5:])
	if err != nil {
		t.Fatal(err)
	}
	if !got.(*Assign).NoCache {
		t.Fatal("Assign NoCache lost in round trip")
	}

	h := &Hello{Version: ProtocolVersion, Role: RoleProvider, Name: "n", Caps: CapFlagsTail}
	frame, err = Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if tail := frame[len(frame)-1]; tail != CapFlagsTail {
		t.Fatalf("Hello caps tail = %#x, want %#x", tail, CapFlagsTail)
	}
	got, err = Unmarshal(TypeHello, frame[5:])
	if err != nil {
		t.Fatal(err)
	}
	if got.(*Hello).Caps != CapFlagsTail {
		t.Fatal("Hello Caps lost in round trip")
	}
}

func TestUnmarshalRejectsTrailing(t *testing.T) {
	frame, _ := Marshal(&Welcome{ID: 1})
	payload := append(frame[5:], 0xAB)
	if _, err := Unmarshal(TypeWelcome, payload); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestUnmarshalUnknownType(t *testing.T) {
	if _, err := Unmarshal(MsgType(250), nil); err == nil {
		t.Fatal("unknown type accepted")
	}
}

// Property: random byte payloads never panic the decoder.
func TestUnmarshalRobustProperty(t *testing.T) {
	f := func(tByte uint8, payload []byte) bool {
		_, _ = Unmarshal(MsgType(tByte%25), payload)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitJobRejectsHugeParamCount(t *testing.T) {
	// Claiming 2^31 parameter sets in a small buffer must fail fast.
	var e enc
	e.bytes([]byte("prog"))
	e.u32(1 << 31)
	if _, err := Unmarshal(TypeSubmitJob, e.buf); err == nil {
		t.Fatal("absurd param count accepted")
	}
}

func TestConnSendRecv(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	cc, sc := NewConn(client), NewConn(server)

	done := make(chan error, 1)
	go func() {
		for _, m := range allMessages() {
			if err := cc.Send(m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	for _, want := range allMessages() {
		got, err := sc.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Type(), err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("over pipe:\n in: %#v\nout: %#v", want, got)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
}

func TestConnRecvTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			time.Sleep(200 * time.Millisecond)
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc)
	defer c.Close()
	c.ReadTimeout = 30 * time.Millisecond
	if _, err := c.Recv(); err == nil {
		t.Fatal("expected timeout error")
	}
}

// deadlineCountConn counts SetReadDeadline calls on a net.Conn.
type deadlineCountConn struct {
	net.Conn
	sets int
}

func (c *deadlineCountConn) SetReadDeadline(t time.Time) error {
	c.sets++
	return c.Conn.SetReadDeadline(t)
}

// TestConnHandshakeDeadlineDoesNotLinger reads a handshake frame under a
// short ReadTimeout, then disables the timeout: a frame arriving after the
// handshake deadline has passed must still be read, and the untimed reads
// must reset the deadline once, not on every frame.
func TestConnHandshakeDeadlineDoesNotLinger(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	const handshake = 30 * time.Millisecond
	go func() {
		cc := NewConn(client)
		_ = cc.Send(&Hello{Version: ProtocolVersion, Role: RoleProvider})
		time.Sleep(5 * handshake)
		for i := 0; i < 3; i++ {
			_ = cc.Send(&Heartbeat{FreeSlots: i})
		}
	}()
	nc := &deadlineCountConn{Conn: server}
	sc := NewConn(nc)
	sc.ReadTimeout = handshake
	if _, err := sc.Recv(); err != nil {
		t.Fatalf("handshake recv: %v", err)
	}
	sc.ReadTimeout = 0
	armed := nc.sets
	for i := 0; i < 3; i++ {
		m, err := sc.Recv()
		if err != nil {
			t.Fatalf("recv %d after the handshake: %v (handshake deadline lingered)", i, err)
		}
		if hb, ok := m.(*Heartbeat); !ok || hb.FreeSlots != i {
			t.Fatalf("recv %d = %#v", i, m)
		}
	}
	if got := nc.sets - armed; got != 1 {
		t.Fatalf("%d SetReadDeadline calls over 3 untimed reads, want 1 (the reset)", got)
	}
}

func TestConnRejectsOversizedFrame(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(TypeHello)}
		client.Write(hdr)
	}()
	sc := NewConn(server)
	if _, err := sc.Recv(); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestConcurrentSendersInterleaveWholeFrames(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	cc, sc := NewConn(client), NewConn(server)

	const perSender, senders = 50, 4
	for i := 0; i < senders; i++ {
		go func(id int) {
			for j := 0; j < perSender; j++ {
				_ = cc.Send(&Heartbeat{FreeSlots: id})
			}
		}(i)
	}
	counts := map[int]int{}
	for i := 0; i < senders*perSender; i++ {
		m, err := sc.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		hb, ok := m.(*Heartbeat)
		if !ok {
			t.Fatalf("frame corrupted: got %T", m)
		}
		counts[hb.FreeSlots]++
	}
	for i := 0; i < senders; i++ {
		if counts[i] != perSender {
			t.Fatalf("sender %d delivered %d frames, want %d", i, counts[i], perSender)
		}
	}
}

func TestMarshalFrameLayout(t *testing.T) {
	frame, err := Marshal(&Welcome{ID: 0x0102030405060708})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 8, // payload length
		byte(TypeWelcome),
		1, 2, 3, 4, 5, 6, 7, 8,
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("frame = %x, want %x", frame, want)
	}
}

func TestValueArraysSurviveWire(t *testing.T) {
	nested := tvm.Arr(tvm.Arr(tvm.Int(1), tvm.Int(2)), tvm.Str("deep"), tvm.Nil())
	m := &Assign{Params: []tvm.Value{nested}}
	frame, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(TypeAssign, frame[5:])
	if err != nil {
		t.Fatal(err)
	}
	if !got.(*Assign).Params[0].Equal(nested) {
		t.Fatalf("nested array mangled: %s", got.(*Assign).Params[0])
	}
}
