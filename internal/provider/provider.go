// Package provider implements the Tasklet provider runtime: the daemon that
// donates a device's idle cycles to the middleware. A provider connects to
// the broker, measures and advertises its execution speed, then executes
// assigned tasklets in sandboxed TVMs — one goroutine per slot — and
// reports results.
//
// Heterogeneity hooks: a Throttle factor slows execution to emulate weaker
// device classes on a fast test machine, and FailAfter makes the provider
// vanish mid-workload for churn experiments.
package provider

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/speedbench"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// Options configures a provider.
type Options struct {
	// BrokerAddr is the broker's TCP address. Required.
	BrokerAddr string
	// Slots is the number of concurrent tasklet executions. Zero selects 1.
	Slots int
	// Class is the advertised device class (cosmetic in live mode; the
	// measured speed is what schedulers use).
	Class core.DeviceClass
	// Throttle in (0, 1] scales the advertised speed and stretches each
	// execution by sleeping (1/Throttle - 1) times the compute time,
	// emulating a slower device. Zero selects 1 (no throttle).
	Throttle float64
	// Speed overrides the measured benchmark score when positive (tests
	// and deterministic experiments set it; real deployments measure).
	Speed float64
	// HeartbeatInterval defaults to 1s.
	HeartbeatInterval time.Duration
	// Name identifies the provider in broker logs.
	Name string
	// Logger receives operational logs; nil discards them.
	Logger *log.Logger
	// FailAfter, when positive, makes the provider abruptly close its
	// connection after executing that many tasklets (churn injection).
	// Only real TVM executions count — attempts answered from the local
	// result memo don't, so fault-injection timing is identical whether
	// the memo is enabled or not.
	FailAfter int
	// CacheSize bounds the decoded-program LRU cache. Zero selects
	// defaultProgramCacheSize.
	CacheSize int
	// MemoEntries, MemoBytes and MemoTTL bound the local result memo:
	// attempts whose (program, seed, params) this node already executed
	// successfully are answered from cache without running the TVM, with
	// the original FuelUsed so accounting is unchanged. Zero selects the
	// provider defaults (512 entries, 4 MiB, memo.DefaultTTL); any
	// negative value disables the memo. Assignments flagged NoCache
	// bypass it either way.
	MemoEntries int
	MemoBytes   int
	MemoTTL     time.Duration
	// Metrics receives provider counters ("provider.memo.*" plus the
	// "provider.attempts.*" family) when non-nil.
	Metrics *metrics.Registry
	// NoCoalesce disables write coalescing on the broker connection: every
	// outgoing message is flushed individually instead of batching a burst
	// of results into one syscall. Ablation and differential tests only.
	NoCoalesce bool
	// NoBatch stops this provider from advertising CapBatch (so the broker
	// sends one Assign per attempt) and from folding its result bursts into
	// AttemptResultBatch frames. Ablation and differential tests only; job
	// results are identical either way.
	NoBatch bool
}

// Local result memo defaults: deliberately smaller than the broker tier —
// a donated device keeps a modest footprint.
const (
	defaultMemoEntries = 512
	defaultMemoBytes   = 4 << 20
)

// defaultProgramCacheSize bounds the program cache when Options.CacheSize is
// zero. 64 decoded programs comfortably cover the working set of every
// workload in this repo while keeping a small provider's memory bounded.
const defaultProgramCacheSize = 64

// Provider is a running provider instance.
type Provider struct {
	opts Options
	logf func(string, ...any)

	conn *wire.Conn
	nc   net.Conn
	id   core.ProviderID

	slotSem  chan struct{}
	out      chan wire.Message
	executed atomic.Int64 // attempts finished, memo-served included
	ran      atomic.Int64 // real TVM executions only; drives FailAfter
	closed   atomic.Bool

	mu      sync.Mutex
	cancels map[core.AttemptID]*atomic.Bool
	cache   *programLRU
	memo    *memo.Cache // nil when disabled; guarded by mu

	wg   sync.WaitGroup
	done chan struct{}

	// Hot-path metric handles, resolved once at Connect so the per-attempt
	// path never takes the registry lock (the memo cache resolves its
	// "provider.memo.*" handles the same way at construction).
	mExecuted   *metrics.Counter
	mMemoServed *metrics.Counter
	mRejected   *metrics.Counter
	mBatches    *metrics.Counter
}

// Connect dials the broker, performs the handshake, measures (or adopts)
// the speed score, registers, and starts the execution loops.
func Connect(opts Options) (*Provider, error) {
	if opts.BrokerAddr == "" {
		return nil, errors.New("provider: broker address required")
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.Throttle <= 0 || opts.Throttle > 1 {
		opts.Throttle = 1
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = time.Second
	}
	if opts.Speed <= 0 {
		score, err := speedbench.Measure(speedbench.Options{MinDuration: 30 * time.Millisecond})
		if err != nil {
			return nil, fmt.Errorf("provider: speed benchmark: %w", err)
		}
		opts.Speed = score.MegaOpsPerSec
	}
	nc, err := net.Dial("tcp", opts.BrokerAddr)
	if err != nil {
		return nil, fmt.Errorf("provider: dial broker: %w", err)
	}
	return connect(nc, opts)
}

// connect runs the provider protocol over an established broker connection
// (handshake, registration, execution loops) with opts already defaulted
// and the speed score resolved. It owns nc and closes it on failure.
func connect(nc net.Conn, opts Options) (*Provider, error) {
	logf := func(string, ...any) {}
	if opts.Logger != nil {
		logf = opts.Logger.Printf
	}
	speed := opts.Speed * opts.Throttle

	conn := wire.NewConn(nc)
	conn.NoCoalesce = opts.NoCoalesce
	caps := wire.CapFlagsTail
	if !opts.NoBatch {
		caps |= wire.CapBatch
	}
	if err := conn.Send(&wire.Hello{
		Version: wire.ProtocolVersion, Role: wire.RoleProvider, Name: opts.Name,
		Caps: caps,
	}); err != nil {
		nc.Close()
		return nil, err
	}
	msg, err := conn.Recv()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("provider: handshake: %w", err)
	}
	welcome, ok := msg.(*wire.Welcome)
	if !ok {
		nc.Close()
		return nil, fmt.Errorf("provider: handshake: unexpected %s", msg.Type())
	}

	p := &Provider{
		opts:    opts,
		logf:    logf,
		conn:    conn,
		nc:      nc,
		id:      core.ProviderID(welcome.ID),
		slotSem: make(chan struct{}, opts.Slots),
		out:     make(chan wire.Message, 1024),
		cancels: map[core.AttemptID]*atomic.Bool{},
		cache:   newProgramLRU(opts.CacheSize),
		done:    make(chan struct{}),
	}
	reg := opts.Metrics
	if reg == nil {
		reg = &metrics.Registry{} // private sink; keeps handles non-nil
	}
	p.mExecuted = reg.Counter("provider.attempts.executed")
	p.mMemoServed = reg.Counter("provider.attempts.memo_served")
	p.mRejected = reg.Counter("provider.attempts.rejected")
	p.mBatches = reg.Counter("provider.batches.received")
	if opts.MemoEntries >= 0 && opts.MemoBytes >= 0 && opts.MemoTTL >= 0 {
		entries, bytes := opts.MemoEntries, opts.MemoBytes
		if entries == 0 {
			entries = defaultMemoEntries
		}
		if bytes == 0 {
			bytes = defaultMemoBytes
		}
		p.memo = memo.New(memo.Config{
			MaxEntries: entries,
			MaxBytes:   bytes,
			TTL:        opts.MemoTTL,
			Metrics:    opts.Metrics,
			Prefix:     "provider.memo.",
		})
	}

	if err := conn.Send(&wire.Register{Slots: opts.Slots, Class: opts.Class, Speed: speed}); err != nil {
		nc.Close()
		return nil, err
	}
	logf("provider %d: registered %d slots at %.1f Mops/s", p.id, opts.Slots, speed)

	p.wg.Add(3)
	go func() { defer p.wg.Done(); p.writerLoop() }()
	go func() { defer p.wg.Done(); p.heartbeatLoop() }()
	go func() { defer p.wg.Done(); p.readLoop() }()
	return p, nil
}

// ID returns the broker-assigned provider ID.
func (p *Provider) ID() core.ProviderID { return p.id }

// Executed reports how many tasklets this provider has finished.
func (p *Provider) Executed() int64 { return p.executed.Load() }

// Close disconnects and waits for in-flight executions to unwind.
func (p *Provider) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	close(p.done)
	// Cancel running VMs so slots drain quickly.
	p.mu.Lock()
	for _, c := range p.cancels {
		c.Store(true)
	}
	p.mu.Unlock()
	p.nc.Close()
	p.wg.Wait()
	return nil
}

// Wait blocks until the provider's connection ends (broker gone or Close).
func (p *Provider) Wait() { p.wg.Wait() }

// writerBatchMax bounds how many queued messages one flush may cover; it
// mirrors the broker's writer batching so a slot-wide burst of results
// costs one syscall instead of one per result.
const writerBatchMax = 128

func (p *Provider) writerLoop() {
	// Fold each flush window's run of results into one AttemptResultBatch
	// frame; the broker always decodes batches regardless of capability
	// negotiation (liberal ingest), so the fold is gated only on NoBatch.
	var fold func([]wire.Message) []wire.Message
	if !p.opts.NoBatch {
		fold = wire.FoldBatchFrames
	}
	wire.WriterLoop(p.conn, p.out, wire.WriterOpts{
		Max:        writerBatchMax,
		NoCoalesce: p.opts.NoCoalesce,
		Fold:       fold,
		Done:       p.done,
		Closer:     p.nc,
	})
}

func (p *Provider) heartbeatLoop() {
	tick := time.NewTicker(p.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			free := p.opts.Slots - len(p.slotSem)
			p.send(&wire.Heartbeat{FreeSlots: free})
		case <-p.done:
			return
		}
	}
}

// send enqueues an outgoing message unless the provider is shutting down.
func (p *Provider) send(m wire.Message) {
	select {
	case p.out <- m:
	case <-p.done:
	}
}

func (p *Provider) readLoop() {
	defer p.nc.Close()
	for {
		msg, err := p.conn.Recv()
		if err != nil {
			if !p.closed.Load() {
				p.logf("provider %d: connection lost: %v", p.id, err)
			}
			return
		}
		switch m := msg.(type) {
		case *wire.Assign:
			p.onAssign(m)
		case *wire.AssignBatch:
			p.onAssignBatch(m)
		case *wire.CancelAttempt:
			p.mu.Lock()
			if c := p.cancels[m.Attempt]; c != nil {
				c.Store(true)
			}
			p.mu.Unlock()
		case *wire.ErrorMsg:
			p.logf("provider %d: broker error %d: %s", p.id, m.Code, m.Msg)
		case *wire.Bye:
			return
		default:
			p.logf("provider %d: unexpected %s", p.id, msg.Type())
		}
	}
}

// onAssign admits one execution attempt arriving as a single frame.
func (p *Provider) onAssign(m *wire.Assign) {
	prog, err := p.resolveProgram(m)
	if err != nil {
		p.reject(m, err.Error())
		return
	}
	p.admit(m, prog)
}

// onAssignBatch admits a burst of attempts from one AssignBatch frame: the
// frame's program table is installed and every distinct referenced program
// resolved under ONE mutex acquisition, then each entry goes through the
// same admission path a single Assign would.
func (p *Provider) onAssignBatch(m *wire.AssignBatch) {
	p.mBatches.Inc()
	progs := p.resolveBatch(m)
	for i := range m.Assigns {
		a := &m.Assigns[i]
		prog := progs[a.Program]
		if prog == nil {
			p.reject(a, fmt.Sprintf("unknown program %d in batch", a.Program))
			continue
		}
		p.admit(a, prog)
	}
}

// resolveBatch installs the batch's program table into the cache and maps
// every program its entries reference, holding the mutex once for the whole
// frame. Programs that fail verification or decoding are simply absent from
// the result, so the entries naming them get rejected individually.
func (p *Provider) resolveBatch(m *wire.AssignBatch) map[core.ProgramID]*tvm.Program {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range m.Programs {
		blob := &m.Programs[i]
		if _, ok := p.cache.get(blob.ID); ok {
			continue
		}
		if got := core.HashProgram(blob.Data); got != blob.ID {
			p.logf("provider %d: batch program hash mismatch: got %d want %d", p.id, got, blob.ID)
			continue
		}
		var prog tvm.Program
		if err := prog.UnmarshalBinary(blob.Data); err != nil {
			p.logf("provider %d: batch program %d: bad bytecode: %v", p.id, blob.ID, err)
			continue
		}
		prog.Optimize()
		p.cache.put(blob.ID, &prog)
	}
	progs := make(map[core.ProgramID]*tvm.Program, len(m.Programs)+1)
	for i := range m.Assigns {
		id := m.Assigns[i].Program
		if _, seen := progs[id]; seen {
			continue
		}
		prog, _ := p.cache.get(id) // nil on miss → entry rejected
		progs[id] = prog
	}
	return progs
}

// reject reports an attempt the provider will not run.
func (p *Provider) reject(m *wire.Assign, why string) {
	p.logf("provider %d: attempt %d rejected: %s", p.id, m.Attempt, why)
	p.mRejected.Inc()
	p.send(&wire.AttemptResult{
		Attempt: m.Attempt, Tasklet: m.Tasklet,
		Status: core.StatusRejected, FaultMsg: why,
	})
}

// admit runs one resolved assignment: memo short-circuit, slot claim, then
// an execution goroutine. The broker never over-commits a provider's slots,
// so a full semaphore indicates state drift; such attempts are rejected
// rather than queued to keep accounting exact.
func (p *Provider) admit(m *wire.Assign, prog *tvm.Program) {
	if p.memoServe(m) {
		return
	}
	select {
	case p.slotSem <- struct{}{}:
	default:
		p.reject(m, "no free slot")
		return
	}

	cancel := &atomic.Bool{}
	p.mu.Lock()
	p.cancels[m.Attempt] = cancel
	p.mu.Unlock()

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		out := p.execute(m, prog, cancel)
		// Release the slot before reporting: the broker may answer the
		// result with the next Assign at once, and that Assign must find
		// the slot free rather than be rejected as state drift.
		p.mu.Lock()
		delete(p.cancels, m.Attempt)
		p.mu.Unlock()
		<-p.slotSem
		p.send(out)
		p.noteFinished()
	}()
}

// resolveProgram returns the cached or freshly-decoded program.
func (p *Provider) resolveProgram(m *wire.Assign) (*tvm.Program, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if prog, ok := p.cache.get(m.Program); ok {
		return prog, nil
	}
	if len(m.ProgramData) == 0 {
		return nil, fmt.Errorf("unknown program %d and no bytecode attached", m.Program)
	}
	if got := core.HashProgram(m.ProgramData); got != m.Program {
		return nil, fmt.Errorf("program hash mismatch: got %d want %d", got, m.Program)
	}
	var prog tvm.Program
	if err := prog.UnmarshalBinary(m.ProgramData); err != nil {
		return nil, fmt.Errorf("bad bytecode: %w", err)
	}
	// Run the load-time optimization pass once at cache-insert time, while
	// the program is still private to this goroutine; every subsequent
	// execution shares the fused streams.
	prog.Optimize()
	p.cache.put(m.Program, &prog)
	return &prog, nil
}

// memoServe answers an assignment from the local result memo when this node
// has already executed identical content, skipping the TVM entirely. The
// reply carries the original FuelUsed (accounting unchanged) and the actual
// near-zero serve time in ExecNanos. Reports whether the attempt was served.
func (p *Provider) memoServe(m *wire.Assign) bool {
	if p.memo == nil || m.NoCache {
		return false
	}
	key, ok := memo.KeyFor(uint64(m.Program), m.Seed, m.Params)
	if !ok {
		return false
	}
	fuel := m.Fuel
	if fuel == 0 {
		fuel = tvm.DefaultConfig().Fuel
	}
	start := time.Now()
	p.mu.Lock()
	e := p.memo.Get(key, 0, fuel)
	p.mu.Unlock()
	if e == nil {
		return false
	}
	ret, em := e.CachedResult()
	p.send(&wire.AttemptResult{
		Attempt: m.Attempt, Tasklet: m.Tasklet, Status: core.StatusOK,
		Return: ret, Emitted: em, FuelUsed: e.FuelUsed,
		ExecNanos: int64(time.Since(start)),
	})
	// A memo hit finishes the attempt without running the TVM: it counts
	// toward Executed but not toward the FailAfter churn threshold, which
	// models failures of real executions.
	p.executed.Add(1)
	p.mExecuted.Inc()
	p.mMemoServed.Inc()
	return true
}

// execute runs one attempt in a fresh VM and returns the outcome report.
func (p *Provider) execute(m *wire.Assign, prog *tvm.Program, cancel *atomic.Bool) *wire.AttemptResult {
	cfg := tvm.DefaultConfig()
	if m.Fuel > 0 {
		cfg.Fuel = m.Fuel
	}
	cfg.Seed = m.Seed
	cfg.Cancel = cancel

	start := time.Now()
	res, err := tvm.New(prog, cfg).Run(m.Params...)
	elapsed := time.Since(start)

	// Throttle emulation: stretch wall time as a slower device would.
	if p.opts.Throttle < 1 {
		extra := time.Duration(float64(elapsed) * (1/p.opts.Throttle - 1))
		select {
		case <-time.After(extra):
			elapsed += extra
		case <-p.done:
		}
	}

	out := &wire.AttemptResult{Attempt: m.Attempt, Tasklet: m.Tasklet, ExecNanos: int64(elapsed)}
	if err != nil {
		f, ok := tvm.AsFault(err)
		if !ok {
			f = &tvm.Fault{Code: tvm.FaultBadProgram, Msg: err.Error()}
		}
		out.Status = core.StatusFault
		out.FaultCode = f.Code
		out.FaultMsg = f.Msg
	} else {
		out.Status = core.StatusOK
		out.Return = res.Return
		out.Emitted = res.Emitted
		out.FuelUsed = res.FuelUsed
		// Remember our own successful executions only — a pure function of
		// content, so replaying one later is indistinguishable from
		// re-running it (voting replicas still land on distinct nodes).
		if p.memo != nil && !m.NoCache {
			if key, ok := memo.KeyFor(uint64(m.Program), m.Seed, m.Params); ok {
				p.mu.Lock()
				p.memo.Put(key, res.Return, res.Emitted, res.FuelUsed, elapsed, 0)
				p.mu.Unlock()
			}
		}
	}
	return out
}

// noteFinished counts a completed execution and fires the FailAfter churn
// injection when armed.
func (p *Provider) noteFinished() {
	p.executed.Add(1)
	p.mExecuted.Inc()
	n := p.ran.Add(1)
	if p.opts.FailAfter > 0 && int(n) >= p.opts.FailAfter && !p.closed.Swap(true) {
		p.logf("provider %d: injected failure after %d tasklets", p.id, n)
		close(p.done)
		p.nc.Close()
	}
}
