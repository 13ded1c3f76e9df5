// Package broker implements the Tasklet broker: the mediator between
// resource consumers and providers. It keeps the provider registry with
// heartbeat-based failure detection, routes bytecode and results, and drives
// the pluggable placement policy. The tasklet lifecycle itself — QoC attempt
// fan-out, memoization, coalescing, re-issue of lost attempts, finalization —
// lives in internal/lifecycle; the broker is the wire/wall-clock driver of
// that shared engine (the simulator drives the same engine in virtual time).
//
// Concurrency model: one reader goroutine per connection, one writer
// goroutine per connection (fed by a bounded queue so a slow peer cannot
// stall the broker), one scheduler goroutine, one timer-wheel goroutine, and
// one lifecycle engine (engine.go) guarding all per-tasklet state under the
// engine mutex. Ownership runs in one direction:
//
//	provider readers ─┐
//	                  ├─▶ ingress ring ─▶ combiner ──▶ engine mu ───▶ scheduler (b.mu)
//	timer wheel ──────┘   (MPSC)          (one bulk     (Engine,        (Index, one pass
//	                                       Apply)        job queues)     per burst)
//
// Reader goroutines push decoded results into the ring and the first arrival
// elects itself combiner, folding the backlog into one bulk Engine.Apply;
// deadlines and retry backoffs enter the same ring from the timer wheel
// instead of one runtime timer per tasklet. Placement stays single-writer:
// events set a dirty flag and wake the scheduler goroutine, which owns
// scheduler.Index exclusively and drains the placement queue round-robin
// across jobs (queue.go), so a burst of events costs one placement pass
// instead of one per event. Heartbeats
// bypass every lock (atomic timestamp per provider). Writer goroutines drain
// their queue in batches so one socket flush covers a burst of Assigns or
// ResultPushes (see wire.Conn for the flush policy).
package broker

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Options configures a Broker. The zero value is usable: work-stealing
// policy, 5-second heartbeat timeout, silent logger.
type Options struct {
	// Policy is the placement policy; nil selects work_steal.
	Policy scheduler.Policy
	// HeartbeatTimeout is how long a provider may stay silent before it is
	// declared dead. Zero selects 5s.
	HeartbeatTimeout time.Duration
	// Logger receives operational logs; nil discards them.
	Logger *log.Logger
	// Metrics receives broker counters and histograms; nil allocates a
	// private registry (retrievable via Broker.Metrics).
	Metrics *metrics.Registry
	// MaxPendingPerConsumer bounds queued tasklets per consumer; zero
	// selects 1<<20.
	MaxPendingPerConsumer int
	// DisableProgramCache ships the full bytecode with every assignment
	// instead of once per provider. Exists for the program-cache ablation
	// benchmark; never enable it in a real deployment.
	DisableProgramCache bool

	// MemoEntries, MemoBytes, and MemoTTL configure the broker-tier result
	// memo (content-addressed cache of QoC-finalized results, plus
	// coalescing of identical in-flight tasklets). Zero selects the memo
	// package defaults (memo.DefaultMaxEntries etc.); any negative value
	// disables memoization and coalescing entirely.
	MemoEntries int
	MemoBytes   int
	MemoTTL     time.Duration

	// MaxAttempts caps the total attempts one tasklet may consume across
	// lost-attempt re-issues; zero (or negative) means unlimited — bounded
	// only by the QoC retry budget. A tasklet whose attempt cap is exhausted
	// with nothing left in flight finalizes as StatusLost.
	MaxAttempts int
	// RetryBackoff delays the n-th re-issue of a lost tasklet by
	// RetryBackoff << min(n-1, 6); zero re-issues immediately.
	RetryBackoff time.Duration

	// NoCoalesce disables write coalescing on this broker's connections:
	// writer loops send one message per flush instead of draining their
	// queue in batches, and the wire layer flushes after every frame.
	// Exists for the coalescing ablation and differential tests; frame
	// bytes are identical either way.
	NoCoalesce bool

	// NoBatch disables the batch control-plane frames on this broker:
	// placement sends one Assign per attempt instead of grouped
	// AssignBatches, and result pushes are never folded into
	// ResultPushBatches, regardless of what peers advertise. Incoming
	// batches are still decoded (liberal ingest). Exists for the batching
	// ablation (experiment E12) and differential tests; job results are
	// identical either way.
	NoBatch bool

	// NoIndex disables the incremental scheduler index and forces the
	// legacy full-scan placement path (rebuild candidates + Policy.Pick per
	// pending tasklet). Exists for the placement ablation (experiment E10)
	// and the differential tests; provider choices are identical either
	// way. Custom policies without an index fall back to the scan
	// automatically.
	NoIndex bool

	// ShardID names this broker within a shard group; zero means unsharded
	// and peer connections are refused. Consistent-hash routing happens on
	// the client (or in ShardGroup): brokers accept whatever they are handed
	// and rebalance queued work through the exchange. See internal/shard.
	ShardID uint64
	// GossipInterval is how often shard load gossip is emitted on every peer
	// link and exchange pulls are planned. Zero selects 100ms.
	GossipInterval time.Duration
	// Exchange enables pull-based migration toward this shard when it is
	// underloaded. Even with Exchange off the broker still answers peers'
	// MigrateRequests and emits gossip, so exchange can be enabled on any
	// subset of a group.
	Exchange bool
	// ExchangePolicy tunes the pull policy; zero fields take the shard
	// package defaults.
	ExchangePolicy shard.Policy
}

// sendQueueDepth bounds per-connection outgoing messages. A peer that
// cannot drain this many messages is broken or hostile and is dropped.
const sendQueueDepth = 4096

// writerBatchMax bounds how many queued messages a writer loop folds into
// one flush.
const writerBatchMax = 128

// Broker is the central coordinator. Create with New, start with Serve.
//
// Locking: b.mu guards the listener, the provider registry structure and
// all scheduler state (index, staged batches, scratch); jobMu guards
// consumers/jobs and their accounting (the delivery path); progMu guards
// the program store; exMu guards the shard-exchange state (shard.go); pmu
// is a read gate on the providers map for engine-side cancel sends; emu
// guards the lifecycle engine (engine.go documents the full lock order).
// No goroutine ever holds two of {b.mu, jobMu, exMu} at once.
type Broker struct {
	opts Options
	reg  *metrics.Registry
	logf func(format string, args ...any)

	mu        sync.Mutex
	ln        net.Listener
	providers map[core.ProviderID]*providerState

	// closed flips once in Close; lock-free paths (combiners, wheels) read
	// it without b.mu.
	closed atomic.Bool

	// pmu guards the providers map alongside b.mu: writers hold both, so a
	// reader may hold either. Engine effect application cancels attempts
	// under pmu.RLock, which lets provider removal barrier on pmu before
	// the send queue is closed.
	pmu sync.RWMutex

	jobMu        sync.Mutex
	consumers    map[core.ConsumerID]*consumerState
	jobs         map[core.JobID]*jobState
	nextConsumer core.ConsumerID
	nextJob      core.JobID

	progMu   sync.RWMutex
	programs map[core.ProgramID][]byte

	// emu guards the lifecycle core (engine.go): the engine, the placement
	// queue and the combiner scratch. The wheel and ring carry their own
	// synchronization.
	emu   sync.Mutex
	life  *lifecycle.Engine
	queue placementQueue
	wheel *timerWheel
	ring  *ingressRing
	// draining is the combiner election flag: the goroutine that CASes it
	// true owns ring consumption and the combiner scratch below until it
	// stores false again.
	draining   atomic.Bool
	inScratch  []engineEvent
	evScratch  []lifecycle.Event
	outScratch []lifecycle.Effect
	// memoOn gates content-key computation on submission (pure CPU saving;
	// the engine would ignore the key anyway when memoization is off).
	memoOn bool
	// pendingN counts the queue's entries for lock-free readers (gossip,
	// fleet queries, snapshots).
	pendingN atomic.Int64

	// index is the incremental placement index mirroring provider
	// free/backlog state; nil when Options.NoIndex is set or the policy has
	// no indexed form, in which case the legacy scan runs. All Index
	// methods are nil-safe. The scheduler goroutine owns it exclusively
	// (everything touching it runs under b.mu); the combiner publishes slot
	// changes through the dirty-provider list instead.
	index *scheduler.Index

	// dirtyMu guards the dirty-provider list: providers whose slot
	// accounting moved since the last pass and need an index resync.
	dirtyMu    sync.Mutex
	dirtyProv  []*providerState
	dirtySpare []*providerState

	// exclScratch and candScratch are placement-pass scratch buffers,
	// reused across picks so a pass over a deep queue performs no
	// allocations. Only touched under b.mu by the scheduler goroutine.
	exclScratch []core.ProviderID
	candScratch []scheduler.Candidate
	// stagedScratch lists the providers holding a staged AssignBatch this
	// pass; flushAssignBatchesLocked drains it.
	stagedScratch []*providerState

	// schedDirty marks that scheduling state changed since the last
	// placement pass; schedWake pokes the scheduler goroutine. Events
	// between two passes collapse into one flag, so a burst costs one pass.
	schedDirty atomic.Bool
	schedWake  chan struct{}

	// peers maps remote shard IDs to their bound peer links; links holds
	// every live peer connection, including inbound ones not yet named by a
	// first gossip. migrated records tasklets handed to a peer under
	// Cancel-before-launch — enough to re-Submit locally if the peer rejects
	// or dies, and to route the MigrateResult back into job accounting.
	// adopted records tasklets accepted from a peer, keyed by their fresh
	// local ID, so their finals return as MigrateResult instead of a
	// consumer push. All five live under exMu; see shard.go.
	exMu     sync.Mutex
	peers    map[uint64]*peerState
	links    map[*peerState]bool
	migrated map[core.TaskletID]migratedRec
	adopted  map[core.TaskletID]adoptedRec

	gossipSeq  uint64
	lastFinal  int64
	exchRate   float64
	exchRateOK bool
	// finalizedN counts finals processed (local + adopted); feeds the
	// gossip rate. Atomic: delivery bumps it, gossipTick reads it.
	finalizedN atomic.Int64

	nextProvider core.ProviderID // under b.mu
	nextTasklet  atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup

	// Hot-path metric handles, resolved once at construction so the
	// per-result path never takes the registry lock.
	mSendDropped   *metrics.Counter
	mAttemptsOK    *metrics.Counter
	mAttemptsFlt   *metrics.Counter
	mAttemptsOth   *metrics.Counter
	mAttemptsLost  *metrics.Counter
	mLaunched      *metrics.Counter
	mCompleted     *metrics.Counter
	mFailed        *metrics.Counter
	mDeadlineExp   *metrics.Counter
	mProvidersLost *metrics.Counter
	mSubmitted     *metrics.Counter
	mExecMS        *metrics.Histogram
	mLatencyMS     *metrics.Histogram
	mSchedPassNS   *metrics.Histogram
	mPendingDep    *metrics.Gauge
	mPlaced        *metrics.Counter
	mExchMigrated  *metrics.Counter
	mExchRequests  *metrics.Counter
	mExchAdopted   *metrics.Counter
	mShardQueue    *metrics.Gauge
}

type providerState struct {
	info  core.ProviderInfo
	out   chan wire.Message
	nc    net.Conn
	label string // "provider N", precomputed for hot-path logs
	caps  uint8  // protocol extensions advertised in Hello

	// free/backlog/finished are atomics: the engine combiner settles them as
	// results arrive while the scheduler reads them under b.mu. assigned
	// and the reliability estimate inside info stay scheduler-only.
	free     atomic.Int64
	backlog  atomic.Int64
	finished atomic.Int64 // attempts that returned any result
	assigned int          // under b.mu

	sent map[core.ProgramID]bool // programs already shipped; under b.mu

	gone atomic.Bool
	// dirty marks membership in the broker's dirty-provider list (one
	// index resync per pass however many results arrived).
	dirty atomic.Bool

	// staged accumulates this pass's assignments into one AssignBatch frame
	// (batch-capable providers only); flushed at the end of every placement
	// pass. Only touched under b.mu by the scheduler goroutine.
	staged *wire.AssignBatch

	// lastBeat is the UnixNano timestamp of the latest heartbeat, updated
	// without the broker mutex so heartbeats never queue behind scheduling.
	lastBeat atomic.Int64

	// dropWarned limits the send-queue-overflow log to once per connection.
	dropWarned atomic.Bool
}

type consumerState struct {
	id      core.ConsumerID
	out     chan wire.Message
	nc      net.Conn
	label   string // "consumer N", precomputed for hot-path logs
	caps    uint8  // protocol extensions advertised in Hello
	jobs    map[core.JobID]bool
	pending int // queued tasklets across this consumer's jobs
	gone    bool

	dropWarned atomic.Bool
}

type jobState struct {
	id        core.JobID
	consumer  core.ConsumerID
	tasklets  []core.TaskletID
	total     int
	completed int
	failed    int
	cancelled bool
}

// New creates a broker with the given options.
func New(opts Options) *Broker {
	if opts.Policy == nil {
		opts.Policy = scheduler.NewWorkSteal()
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 5 * time.Second
	}
	if opts.MaxPendingPerConsumer <= 0 {
		opts.MaxPendingPerConsumer = 1 << 20
	}
	if opts.GossipInterval <= 0 {
		opts.GossipInterval = 100 * time.Millisecond
	}
	opts.ExchangePolicy = opts.ExchangePolicy.Normalize()
	reg := opts.Metrics
	if reg == nil {
		reg = &metrics.Registry{}
	}
	logf := func(string, ...any) {}
	if opts.Logger != nil {
		logf = opts.Logger.Printf
	}
	b := &Broker{
		opts:      opts,
		reg:       reg,
		logf:      logf,
		providers: map[core.ProviderID]*providerState{},
		consumers: map[core.ConsumerID]*consumerState{},
		jobs:      map[core.JobID]*jobState{},
		programs:  map[core.ProgramID][]byte{},
		peers:     map[uint64]*peerState{},
		links:     map[*peerState]bool{},
		migrated:  map[core.TaskletID]migratedRec{},
		adopted:   map[core.TaskletID]adoptedRec{},
		schedWake: make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	b.mSendDropped = reg.Counter("broker.send_dropped")
	b.mAttemptsOK = reg.Counter("attempts.ok")
	b.mAttemptsFlt = reg.Counter("attempts.fault")
	b.mAttemptsOth = reg.Counter("attempts.other")
	b.mAttemptsLost = reg.Counter("attempts.lost")
	b.mLaunched = reg.Counter("attempts.launched")
	b.mCompleted = reg.Counter("tasklets.completed")
	b.mFailed = reg.Counter("tasklets.failed")
	b.mDeadlineExp = reg.Counter("tasklets.deadline_expired")
	b.mProvidersLost = reg.Counter("providers.lost")
	b.mSubmitted = reg.Counter("tasklets.submitted")
	b.mExecMS = reg.Histogram("attempt.exec_ms")
	b.mLatencyMS = reg.Histogram("tasklet.latency_ms")
	b.mSchedPassNS = reg.Histogram("broker.sched_pass_ns")
	b.mPendingDep = reg.Gauge("broker.pending_depth")
	b.mPlaced = reg.Counter("broker.placed_per_pass")
	b.mExchMigrated = reg.Counter("broker.exchange.migrated")
	b.mExchRequests = reg.Counter("broker.exchange.requests")
	b.mExchAdopted = reg.Counter("broker.exchange.adopted")
	b.mShardQueue = reg.Gauge("broker.shard.queue_depth")
	if !opts.NoIndex {
		// Custom policies outside the scheduler package have no indexed
		// form; the legacy scan handles them.
		if ix, err := scheduler.NewIndexFor(opts.Policy); err == nil {
			b.index = ix
		}
	}

	var lopts lifecycle.Options
	lopts.MaxAttempts = opts.MaxAttempts
	lopts.RetryBackoff = opts.RetryBackoff
	if opts.MemoEntries >= 0 && opts.MemoBytes >= 0 && opts.MemoTTL >= 0 {
		lopts.Memo = memo.New(memo.Config{
			MaxEntries: opts.MemoEntries,
			MaxBytes:   opts.MemoBytes,
			TTL:        opts.MemoTTL,
			Metrics:    reg,
			Prefix:     "memo.",
		})
		lopts.Flights = memo.NewFlightTable(reg, "memo.")
		b.memoOn = true
	}
	b.life = lifecycle.New(lopts)
	b.ring = newIngressRing()
	b.wheel = newTimerWheel(b.wheelFire)
	return b
}

// Metrics returns the broker's metrics registry.
func (b *Broker) Metrics() *metrics.Registry { return b.reg }

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving in background
// goroutines. It returns the bound address.
func (b *Broker) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("broker: listen %s: %w", addr, err)
	}
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		ln.Close()
		return "", errors.New("broker: already closed")
	}
	b.ln = ln
	b.mu.Unlock()

	b.wg.Add(4)
	go func() {
		defer b.wg.Done()
		b.acceptLoop(ln)
	}()
	go func() {
		defer b.wg.Done()
		b.reaperLoop()
	}()
	go func() {
		defer b.wg.Done()
		b.schedLoop()
	}()
	go func() {
		defer b.wg.Done()
		b.wheel.run(b.stop)
	}()
	if b.opts.ShardID != 0 {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.gossipLoop()
		}()
	}
	return ln.Addr().String(), nil
}

// Close stops the broker: closes the listener and all connections, and
// waits for the handler goroutines to drain.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return nil
	}
	b.closed.Store(true)
	close(b.stop)
	ln := b.ln
	var conns []net.Conn
	for _, p := range b.providers {
		conns = append(conns, p.nc)
	}
	b.mu.Unlock()
	b.jobMu.Lock()
	for _, c := range b.consumers {
		conns = append(conns, c.nc)
	}
	b.jobMu.Unlock()
	b.exMu.Lock()
	for ps := range b.links {
		conns = append(conns, ps.nc)
	}
	b.exMu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, nc := range conns {
		nc.Close()
	}
	b.wg.Wait()
	return nil
}

func (b *Broker) acceptLoop(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.handleConn(nc)
		}()
	}
}

// reaperLoop expires providers that miss heartbeats.
func (b *Broker) reaperLoop() {
	interval := b.opts.HeartbeatTimeout / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-b.stop:
			return
		}
		b.mu.Lock()
		if b.closed.Load() {
			b.mu.Unlock()
			return
		}
		cutoff := time.Now().Add(-b.opts.HeartbeatTimeout).UnixNano()
		var dead []*providerState
		for _, p := range b.providers {
			if !p.gone.Load() && p.lastBeat.Load() < cutoff {
				dead = append(dead, p)
			}
		}
		b.mu.Unlock()
		for _, p := range dead {
			b.logf("broker: provider %d missed heartbeats, removing", p.info.ID)
			b.removeProvider(p)
			p.nc.Close()
		}
	}
}

// handleConn performs the handshake and dispatches to the role loop.
func (b *Broker) handleConn(nc net.Conn) {
	defer nc.Close()
	conn := wire.NewConn(nc)
	conn.NoCoalesce = b.opts.NoCoalesce
	conn.ReadTimeout = 30 * time.Second

	msg, err := conn.Recv()
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		_ = conn.Send(&wire.ErrorMsg{Code: wire.ErrCodeProtocol, Msg: "expected hello"})
		return
	}
	if hello.Version != wire.ProtocolVersion {
		_ = conn.Send(&wire.ErrorMsg{Code: wire.ErrCodeVersion,
			Msg: fmt.Sprintf("protocol version %d unsupported", hello.Version)})
		return
	}

	switch hello.Role {
	case wire.RoleProvider:
		b.serveProvider(nc, conn, hello)
	case wire.RoleConsumer:
		b.serveConsumer(nc, conn, hello)
	case wire.RolePeer:
		b.servePeer(nc, conn, hello)
	default:
		_ = conn.Send(&wire.ErrorMsg{Code: wire.ErrCodeProtocol, Msg: "unknown role"})
	}
}

// schedLoop is the single scheduler goroutine: it runs one placement pass
// per wake-up. While a pass holds b.mu and the engine lock, arriving
// events settle into engine state, set the dirty flag, and are all
// covered by the next pass — so a burst of N results costs one or two walks
// of the placement queue, not N.
func (b *Broker) schedLoop() {
	for {
		select {
		case <-b.schedWake:
		case <-b.stop:
			return
		}
		for b.schedDirty.Swap(false) {
			if b.closed.Load() {
				return
			}
			b.mu.Lock()
			b.schedulePassLocked()
			b.mu.Unlock()
		}
	}
}

// schedule records that scheduling state changed and wakes the scheduler
// goroutine. Callers need no lock; the pass itself runs on the scheduler
// goroutine so event handlers return immediately.
func (b *Broker) schedule() {
	b.schedDirty.Store(true)
	select {
	case b.schedWake <- struct{}{}:
	default: // a wake-up is already pending; it will cover this event
	}
}

// writerLoop drains a connection's outgoing queue through the shared
// wire.WriterLoop. fold, when non-nil, rewrites each drained burst before it
// is sent (batch-frame folding on capable consumer links).
func (b *Broker) writerLoop(conn *wire.Conn, out <-chan wire.Message, nc net.Conn, fold func([]wire.Message) []wire.Message) {
	wire.WriterLoop(conn, out, wire.WriterOpts{
		Max:        writerBatchMax,
		NoCoalesce: b.opts.NoCoalesce,
		Fold:       fold,
		Closer:     nc,
	})
}

// enqueue appends to a bounded send queue. A peer that cannot drain
// sendQueueDepth messages is broken or hostile: the drop is counted in
// broker.send_dropped, logged once per connection, and the connection is
// closed so the reader tears the peer down.
func (b *Broker) enqueue(out chan wire.Message, m wire.Message, nc net.Conn, warned *atomic.Bool, label string) {
	select {
	case out <- m:
	default:
		b.mSendDropped.Inc()
		if !warned.Swap(true) {
			b.logf("broker: %s send queue full; dropping %s and closing the connection", label, m.Type())
		}
		nc.Close()
	}
}

// ---------- provider side ----------

func (b *Broker) serveProvider(nc net.Conn, conn *wire.Conn, hello *wire.Hello) {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return
	}
	b.nextProvider++
	id := b.nextProvider
	now := time.Now()
	p := &providerState{
		info: core.ProviderInfo{
			ID:            id,
			Addr:          conn.RemoteAddr(),
			Reliability:   1,
			Joined:        now,
			LastHeartbeat: now,
		},
		out:   make(chan wire.Message, sendQueueDepth),
		nc:    nc,
		label: fmt.Sprintf("provider %d", id),
		caps:  hello.Caps,
		sent:  map[core.ProgramID]bool{},
	}
	p.lastBeat.Store(now.UnixNano())
	b.pmu.Lock()
	b.providers[id] = p
	b.pmu.Unlock()
	b.mu.Unlock()

	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.writerLoop(conn, p.out, nc, nil)
	}()

	b.enqueue(p.out, &wire.Welcome{ID: uint64(id)}, nc, &p.dropWarned, p.label)
	b.reg.Counter("providers.joined").Inc()
	b.logf("broker: provider %d connected from %s (%s)", id, conn.RemoteAddr(), hello.Name)

	conn.ReadTimeout = b.opts.HeartbeatTimeout * 2
	for {
		msg, err := conn.Recv()
		if err != nil {
			break
		}
		switch m := msg.(type) {
		case *wire.Register:
			p.lastBeat.Store(time.Now().UnixNano())
			b.mu.Lock()
			p.info.Slots = m.Slots
			p.info.Class = m.Class
			p.info.Speed = m.Speed
			p.free.Store(int64(m.Slots))
			b.index.Upsert(&p.info, m.Slots, int(p.backlog.Load()))
			b.mu.Unlock()
			b.schedule()
			b.logf("broker: provider %d registered: %d slots, %.1f Mops/s, class %s",
				id, m.Slots, m.Speed, m.Class)
		case *wire.Heartbeat:
			// Liveness only; no broker state changes, so heartbeats never
			// queue behind any lock.
			p.lastBeat.Store(time.Now().UnixNano())
		case *wire.AttemptResult:
			b.onAttemptResult(p, m)
		case *wire.AttemptResultBatch:
			b.onAttemptResultBatch(p, m)
		case *wire.Bye:
			goto done
		default:
			b.logf("broker: provider %d sent unexpected %s", id, msg.Type())
			goto done
		}
	}
done:
	b.removeProvider(p)
	// Barrier: a combiner applying a CancelAttempt may hold a reference
	// from before the map delete; it enqueues under pmu.RLock, so one write
	// acquisition guarantees no send races the close below.
	b.pmu.Lock()
	b.pmu.Unlock() //lint:ignore SA2001 empty section is the barrier
	close(p.out)
	b.mProvidersLost.Inc()
	b.logf("broker: provider %d disconnected", id)
}

// removeProvider declares a provider dead: its in-flight attempts are fed
// back to the engine as lost. Idempotent; callers hold no locks.
func (b *Broker) removeProvider(p *providerState) {
	b.mu.Lock()
	if p.gone.Swap(true) {
		b.mu.Unlock()
		return
	}
	b.pmu.Lock()
	delete(b.providers, p.info.ID)
	b.pmu.Unlock()
	b.index.Remove(p.info.ID)
	b.mu.Unlock()

	b.emu.Lock()
	lost, fx := b.life.ProviderLost(p.info.ID)
	out, _ := b.applyFxLocked(fx, nil)
	b.emu.Unlock()
	if lost > 0 {
		b.mAttemptsLost.Add(int64(lost))
	}
	b.applyOutFx(out)
	b.schedule()
}

// onAttemptResult pushes a provider's result report into the engine.
func (b *Broker) onAttemptResult(p *providerState, m *wire.AttemptResult) {
	b.pushResult(p, m)
	b.pump()
}

// onAttemptResultBatch pushes a provider's folded burst of result reports
// and pumps once, so the whole burst becomes one bulk Engine.Apply.
func (b *Broker) onAttemptResultBatch(p *providerState, m *wire.AttemptResultBatch) {
	for i := range m.Results {
		b.pushResult(p, &m.Results[i])
	}
	b.pump()
}

// pushResult publishes one result report on the ingress ring.
func (b *Broker) pushResult(p *providerState, r *wire.AttemptResult) {
	b.ring.push(&engineEvent{
		kind: evResult,
		prov: p,
		res: core.Result{
			Tasklet:   r.Tasklet,
			Attempt:   r.Attempt,
			Provider:  p.info.ID,
			Status:    r.Status,
			Return:    r.Return,
			Emitted:   r.Emitted,
			FaultCode: r.FaultCode,
			FaultMsg:  r.FaultMsg,
			FuelUsed:  r.FuelUsed,
			Exec:      time.Duration(r.ExecNanos),
		},
	})
}

// updateReliabilityLocked refreshes the completion-ratio estimate. Callers
// hold b.mu (info.Reliability is scheduler-owned).
func (b *Broker) updateReliabilityLocked(p *providerState) {
	if p.assigned > 0 {
		p.info.Reliability = float64(p.finished.Load()) / float64(p.assigned)
		if p.info.Reliability > 1 {
			p.info.Reliability = 1
		}
	}
}

// ---------- consumer side ----------

func (b *Broker) serveConsumer(nc net.Conn, conn *wire.Conn, hello *wire.Hello) {
	if b.closed.Load() {
		return
	}
	b.jobMu.Lock()
	b.nextConsumer++
	id := b.nextConsumer
	c := &consumerState{
		id:    id,
		out:   make(chan wire.Message, sendQueueDepth),
		nc:    nc,
		label: fmt.Sprintf("consumer %d", id),
		caps:  hello.Caps,
		jobs:  map[core.JobID]bool{},
	}
	b.consumers[id] = c
	b.jobMu.Unlock()

	// Batch-capable consumers get each writer burst's run of ResultPushes
	// folded into one ResultPushBatch frame; legacy consumers keep receiving
	// byte-identical single frames.
	var fold func([]wire.Message) []wire.Message
	if c.caps&wire.CapBatch != 0 && !b.opts.NoBatch {
		fold = wire.FoldBatchFrames
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.writerLoop(conn, c.out, nc, fold)
	}()

	b.enqueue(c.out, &wire.Welcome{ID: uint64(id)}, nc, &c.dropWarned, c.label)
	b.logf("broker: consumer %d connected from %s (%s)", id, conn.RemoteAddr(), hello.Name)

	conn.ReadTimeout = 0 // consumers may idle while awaiting results
	for {
		msg, err := conn.Recv()
		if err != nil {
			break
		}
		switch m := msg.(type) {
		case *wire.SubmitJob:
			if err := b.acceptJob(c, m); err != nil {
				b.enqueue(c.out, &wire.ErrorMsg{Code: wire.ErrCodeBadJob, Msg: err.Error()}, nc, &c.dropWarned, c.label)
			}
		case *wire.CancelJob:
			b.cancelJob(c, m.Job)
		case *wire.QueryFleet:
			b.enqueue(c.out, b.fleetInfo(), nc, &c.dropWarned, c.label)
		case *wire.Bye:
			goto done
		default:
			b.logf("broker: consumer %d sent unexpected %s", id, msg.Type())
			goto done
		}
	}
done:
	b.removeConsumer(c)
	close(c.out)
	b.logf("broker: consumer %d disconnected", id)
}

// acceptJob validates and admits a job, submitting its tasklets to the
// lifecycle engine.
func (b *Broker) acceptJob(c *consumerState, m *wire.SubmitJob) error {
	spec := core.JobSpec{
		Program: m.Program, Params: m.Params, QoC: m.QoC, Fuel: m.Fuel, Seed: m.Seed,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	fuel := m.Fuel
	if fuel == 0 {
		fuel = 100_000_000
	}

	progID := core.HashProgram(m.Program)
	b.progMu.Lock()
	if _, ok := b.programs[progID]; !ok {
		data := make([]byte, len(m.Program))
		copy(data, m.Program)
		b.programs[progID] = data
	}
	b.progMu.Unlock()

	n := len(m.Params)
	b.jobMu.Lock()
	if c.gone {
		b.jobMu.Unlock()
		return errors.New("broker: consumer disconnected")
	}
	if c.pending+n > b.opts.MaxPendingPerConsumer {
		b.jobMu.Unlock()
		return fmt.Errorf("broker: consumer queue limit %d exceeded", b.opts.MaxPendingPerConsumer)
	}

	b.nextJob++
	job := &jobState{id: b.nextJob, consumer: c.id, total: n}
	b.jobs[job.id] = job
	c.jobs[job.id] = true
	c.pending += n

	// Tasklet IDs are allocated as one contiguous run and the whole job is
	// one bulk Submit. JobAccepted is queued before the engine runs so the
	// consumer has registered the job before its first ResultPush (cache
	// hits deliver from feed below).
	base := core.TaskletID(b.nextTasklet.Add(uint64(n)) - uint64(n))
	now := time.Now()
	evs := make([]lifecycle.Event, 0, n)
	for i, params := range m.Params {
		tid := base + core.TaskletID(i) + 1
		t := core.Tasklet{
			ID: tid, Job: job.id, Index: i,
			Program: progID, Params: params,
			QoC: m.QoC, Fuel: fuel, Seed: m.Seed, Submitted: now,
		}
		job.tasklets = append(job.tasklets, t.ID)

		ev := lifecycle.Event{Kind: lifecycle.EventSubmit, Tasklet: t}
		if b.memoOn {
			ev.Key, ev.HaveKey = memo.KeyFor(uint64(progID), t.Seed, t.Params)
		}
		evs = append(evs, ev)
	}
	b.mSubmitted.Add(int64(n))
	b.enqueue(c.out, &wire.JobAccepted{Job: job.id, Tasklets: job.total}, c.nc, &c.dropWarned, c.label)
	b.jobMu.Unlock()

	b.feed(evs)
	b.logf("broker: job %d accepted: %d tasklets, qoc %s", job.id, job.total, m.QoC.Mode)
	b.schedule()
	return nil
}

// cancelJob abandons a job's outstanding tasklets.
func (b *Broker) cancelJob(c *consumerState, id core.JobID) {
	b.jobMu.Lock()
	job := b.jobs[id]
	if job == nil || job.consumer != c.id || job.cancelled {
		b.jobMu.Unlock()
		return
	}
	job.cancelled = true
	tids := append([]core.TaskletID(nil), job.tasklets...)
	b.jobMu.Unlock()

	// Migrated tasklets die here: the origin-side record is the unit of
	// ownership; the peer's copy runs to waste and its MigrateResult will
	// find no record.
	migN := 0
	wasMigrated := map[core.TaskletID]bool{}
	if b.opts.ShardID != 0 {
		b.exMu.Lock()
		for _, tid := range tids {
			if _, ok := b.migrated[tid]; ok {
				delete(b.migrated, tid)
				wasMigrated[tid] = true
				migN++
			}
		}
		b.exMu.Unlock()
	}

	dropped := 0
	for _, tid := range tids {
		if wasMigrated[tid] {
			continue
		}
		if b.cancelOne(tid) {
			dropped++
		}
	}
	b.purgePending()
	b.schedule() // a dropped leader may have promoted a waiter

	b.jobMu.Lock()
	// A racing final delivery may have completed the job and sent its
	// JobDone already; only account and reply if the job record survived.
	if b.jobs[id] == job {
		job.failed += dropped + migN
		c.pending -= dropped + migN
		if !c.gone {
			b.enqueue(c.out, &wire.JobDone{Job: job.id, Completed: job.completed, Failed: job.failed}, c.nc, &c.dropWarned, c.label)
		}
	}
	b.jobMu.Unlock()
	b.logf("broker: job %d cancelled", id)
}

// removeConsumer drops a consumer and abandons its outstanding work.
// Idempotent; callers hold no locks.
func (b *Broker) removeConsumer(c *consumerState) {
	b.jobMu.Lock()
	if c.gone {
		b.jobMu.Unlock()
		return
	}
	c.gone = true
	delete(b.consumers, c.id)
	var tids []core.TaskletID
	for jid := range c.jobs {
		job := b.jobs[jid]
		if job == nil {
			continue
		}
		tids = append(tids, job.tasklets...)
		delete(b.jobs, jid)
	}
	b.jobMu.Unlock()

	if b.opts.ShardID != 0 && len(tids) > 0 {
		b.exMu.Lock()
		for _, tid := range tids {
			delete(b.migrated, tid)
		}
		b.exMu.Unlock()
	}
	for _, tid := range tids {
		// Deliver effects from promoted waiters find their jobs deleted and
		// no-op; cancels of in-flight attempts still go out.
		b.cancelOne(tid)
	}
	b.purgePending()
	b.schedule() // a dropped leader may have promoted a waiter
}

// ---------- scheduling ----------

// schedulePassLocked drains the placement queue, assigning attempts to
// providers according to the policy. Entries whose
// tasklet vanished (job cancelled, already complete) are purged. Entries
// with no eligible provider stay queued. Event handlers never call this
// directly — they call schedule, which batches an event-burst into one pass
// run by schedLoop. The pass starts by folding combiner-side slot
// settlements into the index (syncDirtyProvidersLocked), keeping the index
// single-writer.
//
// Two per-entry implementations exist: the indexed batch pass (default)
// feeds the queue through the incremental scheduler index — each pick is a
// heap peek or an order-statistics query, zero allocations — while the
// legacy pass (Options.NoIndex, or a policy without an indexed form)
// rebuilds the candidate slice per pick. Both place the same provider
// sequence; the differential tests pin that equivalence.
func (b *Broker) schedulePassLocked() {
	b.syncDirtyProvidersLocked()
	b.mPendingDep.Set(b.pendingN.Load())
	if b.pendingN.Load() == 0 || len(b.providers) == 0 {
		return
	}
	start := time.Now()
	var placed int
	b.emu.Lock()
	if b.index != nil {
		placed = b.drainIndexedLocked()
	} else {
		placed = b.drainLegacyLocked()
	}
	b.emu.Unlock()
	if placed > 0 {
		// Counted before the staged batches leave, so their results are
		// never seen ahead of their launches. One counter update per pass,
		// not per attempt.
		b.mPlaced.Add(int64(placed))
		b.mLaunched.Add(int64(placed))
	}
	b.flushAssignBatchesLocked()
	b.mSchedPassNS.Observe(float64(time.Since(start)))
	b.mPendingDep.Set(b.pendingN.Load())
}

// drainIndexedLocked walks the placement queue through the incremental
// index. Callers hold b.mu and b.emu.
func (b *Broker) drainIndexedLocked() int {
	placed := 0
	removed := b.queue.walk(func(tid core.TaskletID) (remove, stop bool) {
		// Without free capacity nothing further can place; leave the rest
		// of the queue unwalked (it can hold many thousands of entries and
		// a pass runs on every result burst).
		if b.index.FreeSlots() <= 0 {
			return false, true
		}
		t := b.life.Tasklet(tid)
		if t == nil {
			return true, false
		}
		b.exclScratch = b.life.AppendActiveProviders(tid, b.exclScratch[:0])
		pid, ok := b.index.Pick(t, b.exclScratch)
		if !ok {
			return false, false
		}
		p := b.providers[pid]
		if p == nil || p.free.Load() <= 0 {
			return false, false
		}
		if b.launchAttemptLocked(t, p) {
			placed++
		}
		return true, false
	})
	b.pendingN.Add(-int64(removed))
	return placed
}

// drainLegacyLocked is the full-scan variant: the candidate view is rebuilt
// for every pick because free/backlog change as attempts are assigned. Kept
// for the E10 ablation and for policies without an indexed form. Callers
// hold b.mu and b.emu.
func (b *Broker) drainLegacyLocked() int {
	totalFree := 0
	for _, p := range b.providers {
		if p.info.Slots > 0 {
			totalFree += int(p.free.Load())
		}
	}
	placed := 0
	removed := b.queue.walk(func(tid core.TaskletID) (remove, stop bool) {
		if totalFree <= 0 {
			return false, true
		}
		t := b.life.Tasklet(tid)
		if t == nil {
			return true, false
		}
		cands := b.candScratch[:0]
		for _, p := range b.providers {
			if p.info.Slots == 0 {
				continue // not yet registered
			}
			cands = append(cands, scheduler.Candidate{
				Info: &p.info, FreeSlots: int(p.free.Load()), Backlog: int(p.backlog.Load()),
			})
		}
		b.candScratch = cands
		b.exclScratch = b.life.AppendActiveProviders(tid, b.exclScratch[:0])
		pid, ok := b.opts.Policy.Pick(scheduler.Request{Tasklet: t, ExcludeIDs: b.exclScratch}, cands)
		if !ok {
			return false, false
		}
		p := b.providers[pid]
		if p == nil || p.free.Load() <= 0 {
			return false, false
		}
		if b.launchAttemptLocked(t, p) {
			placed++
		}
		totalFree--
		return true, false
	})
	b.pendingN.Add(-int64(removed))
	return placed
}

// launchAttemptLocked creates and dispatches one attempt. For
// batch-capable providers the assignment is staged into the provider's
// per-pass AssignBatch (flushed by flushAssignBatchesLocked at the end of
// the placement pass) instead of sent as its own frame. Callers hold b.mu
// and b.emu.
func (b *Broker) launchAttemptLocked(t *core.Tasklet, p *providerState) bool {
	aid, ok := b.life.Launched(t.ID, p.info.ID)
	if !ok {
		return false // defensive; callers checked liveness under the same lock
	}
	p.free.Add(-1)
	p.backlog.Add(1)
	p.assigned++
	b.updateReliabilityLocked(p)
	b.index.Assign(p.info.ID) // after the reliability update so rank refreshes

	a := wire.Assign{
		Attempt: aid,
		Tasklet: t.ID,
		Program: t.Program,
		Params:  t.Params,
		Fuel:    t.Fuel,
		Seed:    t.Seed,
		// A provider that never advertised the flags tail can't decode it;
		// drop the flag rather than the peer — a legacy provider has no
		// result memo for NoCache to bypass anyway.
		NoCache: t.QoC.NoCache && p.caps&wire.CapFlagsTail != 0,
	}
	var progData []byte
	if b.opts.DisableProgramCache {
		progData = b.program(t.Program)
	} else if !p.sent[t.Program] {
		progData = b.program(t.Program)
		p.sent[t.Program] = true
	}

	if !b.opts.NoBatch && p.caps&wire.CapBatch != 0 {
		if p.staged == nil {
			p.staged = &wire.AssignBatch{}
			b.stagedScratch = append(b.stagedScratch, p)
		}
		if len(progData) > 0 && !batchHasProgram(p.staged, t.Program) {
			// Program bytes are deduplicated within the frame: shipped once
			// in the table however many entries reference them.
			p.staged.Programs = append(p.staged.Programs, wire.ProgramBlob{ID: t.Program, Data: progData})
		}
		p.staged.Assigns = append(p.staged.Assigns, a)
		return true
	}
	a.ProgramData = progData
	b.enqueue(p.out, &a, p.nc, &p.dropWarned, p.label)
	return true
}

// program returns the stored bytecode for id (nil if unknown).
func (b *Broker) program(id core.ProgramID) []byte {
	b.progMu.RLock()
	data := b.programs[id]
	b.progMu.RUnlock()
	return data
}

// batchHasProgram reports whether the staged batch's program table already
// carries id. Tables hold the pass's distinct fresh programs — almost
// always zero or one entry — so a linear scan wins over any map.
func batchHasProgram(ab *wire.AssignBatch, id core.ProgramID) bool {
	for i := range ab.Programs {
		if ab.Programs[i].ID == id {
			return true
		}
	}
	return false
}

// flushAssignBatchesLocked ships every staged AssignBatch accumulated by
// the current placement pass: one frame per provider per pass. A batch that
// holds a single assignment degenerates to a plain Assign frame, so
// low-rate traffic stays byte-identical to the pre-batch revision.
func (b *Broker) flushAssignBatchesLocked() {
	for _, p := range b.stagedScratch {
		ab := p.staged
		p.staged = nil
		if ab == nil || len(ab.Assigns) == 0 {
			continue
		}
		if len(ab.Assigns) == 1 {
			a := ab.Assigns[0]
			if len(ab.Programs) == 1 {
				a.ProgramData = ab.Programs[0].Data
			}
			b.enqueue(p.out, &a, p.nc, &p.dropWarned, p.label)
			continue
		}
		b.enqueue(p.out, ab, p.nc, &p.dropWarned, p.label)
	}
	b.stagedScratch = b.stagedScratch[:0]
}

// fleetInfo builds the provider-directory reply for QueryFleet.
func (b *Broker) fleetInfo() *wire.FleetInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	info := &wire.FleetInfo{Pending: int(b.pendingN.Load())}
	for _, p := range b.providers {
		info.Providers = append(info.Providers, wire.ProviderEntry{
			ID:          p.info.ID,
			Class:       p.info.Class,
			Slots:       p.info.Slots,
			FreeSlots:   int(p.free.Load()),
			Speed:       p.info.Speed,
			Reliability: p.info.Reliability,
			Executed:    p.finished.Load(),
		})
	}
	sort.Slice(info.Providers, func(i, j int) bool {
		return info.Providers[i].ID < info.Providers[j].ID
	})
	return info
}

// Snapshot is a point-in-time view of broker state for tests and the CLI.
type Snapshot struct {
	Providers []core.ProviderInfo
	Pending   int
	InFlight  int
	Jobs      int
}

// Snapshot returns current broker state.
func (b *Broker) Snapshot() Snapshot {
	s := Snapshot{Pending: int(b.pendingN.Load())}
	b.emu.Lock()
	s.InFlight = b.life.InFlight()
	b.emu.Unlock()
	b.jobMu.Lock()
	s.Jobs = len(b.jobs)
	b.jobMu.Unlock()
	b.mu.Lock()
	for _, p := range b.providers {
		info := p.info
		info.LastHeartbeat = time.Unix(0, p.lastBeat.Load())
		s.Providers = append(s.Providers, info)
	}
	b.mu.Unlock()
	return s
}

var _ io.Closer = (*Broker)(nil)
