package main

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// The tracing relay sits between every peer and the broker on loopback.
// It forwards each chunk of bytes exactly as read, before looking at it,
// so write grouping (and with it the flush behaviour under test) reaches
// the far side unchanged. A tap then splits the copied bytes into frames,
// decodes them with wire.Unmarshal and records a timestamped event per
// lifecycle step. Events stay in memory until the run ends.

// Trace event kinds and the meaning of their fields.
const (
	evSubmit   uint8 = iota + 1 // SubmitJob: a = relay conn, b = tasklets
	evAccepted                  // JobAccepted: a = relay conn, b = job
	evAssign                    // Assign: a = tasklet, b = attempt
	evResult                    // AttemptResult: a = attempt, b = tasklet
	evPush                      // ResultPush: a = job, b = index, c = tasklet
)

type traceEv struct {
	t       int64 // ns since the relay started
	kind    uint8
	a, b, c uint64
}

// frameSample is one frame kept for the encode/decode replay.
type frameSample struct {
	typ     wire.MsgType
	payload []byte
}

// sampleEvery keeps one frame in this many for the replay, which keeps the
// run's mix of frame types and sizes at bounded memory.
const (
	sampleEvery = 8
	maxSamples  = 4096
)

// tap decodes one direction of one connection.
type tap struct {
	conn    uint64
	start   time.Time
	buf     []byte
	events  []traceEv
	samples []frameSample
	frames  int
	errs    int
}

// feed consumes bytes read at time now and records the frames they
// complete.
func (t *tap) feed(b []byte, now time.Time) {
	t.buf = append(t.buf, b...)
	ts := now.Sub(t.start).Nanoseconds()
	off := 0
	for len(t.buf)-off >= 5 {
		n := int(binary.BigEndian.Uint32(t.buf[off : off+4]))
		if len(t.buf)-off < 5+n {
			break
		}
		typ := wire.MsgType(t.buf[off+4])
		payload := t.buf[off+5 : off+5+n]
		t.frames++
		if t.frames%sampleEvery == 0 && len(t.samples) < maxSamples {
			t.samples = append(t.samples, frameSample{typ, append([]byte(nil), payload...)})
		}
		if m, err := wire.Unmarshal(typ, payload); err == nil {
			t.record(m, ts)
		} else {
			t.errs++
		}
		off += 5 + n
	}
	// Move the unconsumed tail to the front so the buffer does not grow.
	t.buf = t.buf[:copy(t.buf, t.buf[off:])]
}

func (t *tap) add(ts int64, kind uint8, a, b, c uint64) {
	t.events = append(t.events, traceEv{t: ts, kind: kind, a: a, b: b, c: c})
}

func (t *tap) record(m wire.Message, ts int64) {
	switch m := m.(type) {
	case *wire.SubmitJob:
		t.add(ts, evSubmit, t.conn, uint64(len(m.Params)), 0)
	case *wire.JobAccepted:
		t.add(ts, evAccepted, t.conn, uint64(m.Job), 0)
	case *wire.Assign:
		t.add(ts, evAssign, uint64(m.Tasklet), uint64(m.Attempt), 0)
	case *wire.AssignBatch:
		for i := range m.Assigns {
			t.add(ts, evAssign, uint64(m.Assigns[i].Tasklet), uint64(m.Assigns[i].Attempt), 0)
		}
	case *wire.AttemptResult:
		t.add(ts, evResult, uint64(m.Attempt), uint64(m.Tasklet), 0)
	case *wire.AttemptResultBatch:
		for i := range m.Results {
			t.add(ts, evResult, uint64(m.Results[i].Attempt), uint64(m.Results[i].Tasklet), 0)
		}
	case *wire.ResultPush:
		t.add(ts, evPush, uint64(m.Job), uint64(m.Index), uint64(m.Tasklet))
	case *wire.ResultPushBatch:
		for i := range m.Results {
			r := &m.Results[i]
			t.add(ts, evPush, uint64(r.Job), uint64(r.Index), uint64(r.Tasklet))
		}
	}
}

// forward copies src to dst chunk by chunk, writing each chunk on before
// the tap decodes it. It returns when either side fails or src ends.
func forward(src io.Reader, dst io.Writer, t *tap) error {
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			now := time.Now()
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return werr
			}
			if t != nil {
				t.feed(buf[:n], now)
			}
		}
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// relay accepts peers and forwards each to the broker.
type relay struct {
	ln     net.Listener
	target string
	start  time.Time

	mu    sync.Mutex
	taps  []*tap
	conns []net.Conn
	next  uint64
	wg    sync.WaitGroup
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, start: time.Now()}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) acceptLoop() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		r.mu.Lock()
		r.next++
		up := &tap{conn: r.next, start: r.start}
		down := &tap{conn: r.next, start: r.start}
		r.taps = append(r.taps, up, down)
		r.conns = append(r.conns, in, out)
		r.wg.Add(2)
		r.mu.Unlock()
		go r.pump(in, out, up)
		go r.pump(out, in, down)
	}
}

// pump forwards one direction; when it ends it closes both sides so the
// opposite pump and the peers see the disconnect.
func (r *relay) pump(src, dst net.Conn, t *tap) {
	defer r.wg.Done()
	forward(src, dst, t)
	src.Close()
	dst.Close()
}

// close stops accepting, disconnects everything and waits for the pumps.
// The taps are safe to read afterwards.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// collect returns every recorded event and frame sample.
func (r *relay) collect() (evs []traceEv, samples []frameSample, decodeErrs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.taps {
		evs = append(evs, t.events...)
		samples = append(samples, t.samples...)
		decodeErrs += t.errs
	}
	return evs, samples, decodeErrs
}
