package sim

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/shard"
)

// ShardedConfig describes a multi-shard broker cluster scenario: the base
// single-broker scenario plus the cluster shape and the work-exchange
// policy. Tasklets route to shards by consistent hash of their program
// hash (TaskSpec.Program, falling back to Key, then a per-task spread), so
// repeated programs always land where their memo entries live.
type ShardedConfig struct {
	Base Config

	// Shards is the cluster size. 1 reproduces Run exactly (the
	// differential tests pin this), with devices and tasks unpartitioned.
	Shards int

	// Multihome splits every device into this many sub-providers
	// registered with consecutive shards, each advertising Slots/Multihome
	// slots — the provider-side half of the sharding design. 0 or 1 means
	// each device registers with exactly one shard (round-robin).
	Multihome int

	// BrokerOverhead is the serialized dispatcher CPU cost charged per
	// placement dispatch and per result processed, per shard. Virtual-time
	// execution has no intrinsic broker cost, so this is what makes the
	// broker a bottleneck that sharding can relieve; zero disables the
	// model (then sharding only redistributes device capacity).
	BrokerOverhead time.Duration

	// FrameOverhead is the per-wire-frame serialized cost (encode, syscall,
	// decode) added on top of BrokerOverhead for each frame the dispatcher
	// handles; zero disables the frame model, keeping runs bit-identical to
	// the pre-batching simulator. Batch selects the batched control plane:
	// with Batch off every dispatch and every result carries its own frame;
	// with Batch on a placement pass pays one frame per destination device
	// (AssignBatch) and a result pays a frame only when the dispatcher is
	// idle (AttemptResultBatch folding) — mirroring the live broker's
	// capability-gated batching, which E12 ablates.
	FrameOverhead time.Duration
	Batch         bool

	// Exchange enables gossip-driven work migration between shards;
	// GossipInterval is the load-snapshot period (default 10ms), and
	// ExchangePolicy tunes the pull decision (zero fields = defaults).
	Exchange       bool
	GossipInterval time.Duration
	ExchangePolicy shard.Policy

	// PolicyFor supplies one placement policy per shard (policies are
	// stateful, so shards must not share one). Nil gives every shard a
	// fresh work_steal unless Base.Policy is set, which is then shared —
	// only valid for Shards==1 (the differential configuration).
	PolicyFor func(i int) scheduler.Policy

	// Vnodes overrides the ring's virtual-node count (0 = default).
	Vnodes int
}

// ShardStat is one shard's slice of a sharded run.
type ShardStat struct {
	Shard       uint64
	Completed   int
	Attempts    int
	MigratedIn  int
	MigratedOut int
}

// ShardedStats extends Stats with exchange accounting. BusyTime and
// DeviceExecuted are indexed by sub-device in shard-major order; Finals is
// indexed like Base.Tasks regardless of which shard finalized each task.
type ShardedStats struct {
	Stats
	Migrated        int // tasklets moved between shards
	MigrateRequests int // pull requests issued
	PerShard        []ShardStat
}

// shardSim is one shard's world plus its exchange bookkeeping.
type shardSim struct {
	*sim
	pos     int            // 0-based shard position; ring ID is pos+1
	nextTid core.TaskletID // shard-local tasklet ID allocator
	rate    float64        // EWMA finals/sec, gossiped
	rateOK  bool
	lastFin int // finals at previous gossip tick
	in, out int // migration counts
}

// shardWorld drives N shard sims over one shared event engine.
type shardWorld struct {
	cfg    ShardedConfig
	eng    *engine
	ring   *shard.Ring
	xpol   shard.Policy
	shards []*shardSim
	total  int
	stats  ShardedStats
	lat    *metrics.Histogram
	qd     *metrics.Histogram
}

// routeKey is the consistent-hash routing key for task i.
func routeKey(i int, ts TaskSpec) uint64 {
	if ts.Program != 0 {
		return ts.Program
	}
	if ts.Key != 0 {
		return ts.Key
	}
	// Anonymous tasks spread uniformly instead of all hashing to one arc.
	return 0x517cc1b727220a95 ^ uint64(i+1)
}

// RunSharded executes the scenario on a cluster of Shards brokers and
// returns merged statistics. With Shards==1 the event sequence is
// identical to Run on the same Base config.
func RunSharded(cfg ShardedConfig) (*ShardedStats, error) {
	base, err := cfg.Base.normalize()
	if err != nil {
		return nil, err
	}
	cfg.Base = base
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Multihome <= 0 {
		cfg.Multihome = 1
	}
	if cfg.Multihome > cfg.Shards {
		cfg.Multihome = cfg.Shards
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 10 * time.Millisecond
	}

	w := &shardWorld{
		cfg:   cfg,
		eng:   newEngine(base.Seed),
		ring:  shard.NewRing(cfg.Vnodes),
		xpol:  cfg.ExchangePolicy.Normalize(),
		total: len(base.Tasks),
		lat:   &metrics.Histogram{},
		qd:    &metrics.Histogram{},
	}

	// Partition devices: device i contributes Multihome sub-providers to
	// consecutive shards starting at i%Shards, splitting its slot budget.
	perShard := make([][]DeviceSpec, cfg.Shards)
	for i, spec := range base.Devices {
		if spec.Slots <= 0 {
			spec.Slots = 1
		}
		sub := spec
		sub.Slots = spec.Slots / cfg.Multihome
		if sub.Slots <= 0 {
			sub.Slots = 1
		}
		for k := 0; k < cfg.Multihome; k++ {
			perShard[(i+k)%cfg.Shards] = append(perShard[(i+k)%cfg.Shards], sub)
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		if len(perShard[i]) == 0 {
			return nil, fmt.Errorf("sim: shard %d owns no devices (%d devices × multihome %d over %d shards)",
				i+1, len(base.Devices), cfg.Multihome, cfg.Shards)
		}
	}

	for i := 0; i < cfg.Shards; i++ {
		scfg := base
		scfg.Devices = perShard[i]
		if cfg.PolicyFor != nil {
			scfg.Policy = cfg.PolicyFor(i)
		} else if cfg.Shards > 1 {
			scfg.Policy = scheduler.NewWorkSteal()
		}
		ss := &shardSim{sim: newSim(scfg, w.eng), pos: i}
		ss.overhead = cfg.BrokerOverhead
		ss.frameOverhead = cfg.FrameOverhead
		ss.batched = cfg.Batch
		// All shards observe into the world's shared distributions.
		ss.latency, ss.queueDelay = w.lat, w.qd
		w.shards = append(w.shards, ss)
		w.ring.Add(uint64(i + 1))
	}

	// Route and schedule arrivals. Tasklet IDs are shard-local, assigned
	// in task order — for one shard that reproduces Run's i+1 exactly.
	firstArr := time.Duration(-1)
	for i, tspec := range base.Tasks {
		owner, _ := w.ring.Owner(routeKey(i, tspec))
		ss := w.shards[owner-1]
		ss.nextTid++
		fuel := tspec.Fuel
		if fuel == 0 {
			fuel = 1_000_000
		}
		t := core.Tasklet{
			ID: ss.nextTid, Job: 1, Index: i,
			Fuel: fuel, QoC: tspec.QoC,
		}
		if firstArr < 0 || tspec.Arrival < firstArr {
			firstArr = tspec.Arrival
		}
		content := tspec.Key
		w.eng.at(tspec.Arrival, func() { ss.onArrival(t, content) })
	}

	if cfg.Exchange && cfg.Shards > 1 {
		w.eng.after(cfg.GossipInterval, w.gossipTick)
	}

	for w.finalized() < w.total {
		if len(w.eng.heap) > 0 && w.eng.heap[0].at > base.MaxTime {
			return nil, fmt.Errorf("sim: exceeded max virtual time %v with %d tasklets unfinished",
				base.MaxTime, w.total-w.finalized())
		}
		if !w.eng.step() {
			return nil, errors.New("sim: event queue drained with tasklets unfinished (fleet dead?)")
		}
	}

	return w.merge(firstArr), nil
}

// finalized counts tasklets that reached a final state across all shards.
func (w *shardWorld) finalized() int {
	n := 0
	for _, ss := range w.shards {
		n += ss.stats.Completed + ss.stats.Failed
	}
	return n
}

// gossipTick is the cluster's periodic load exchange: refresh every
// shard's EWMA service rate, then let each underloaded shard plan one pull
// against the snapshot. Planned pulls reach the source a network latency
// later, like a MigrateRequest frame would.
func (w *shardWorld) gossipTick() {
	if w.finalized() >= w.total {
		return // run is over; stop rescheduling
	}
	loads := make([]shard.Load, len(w.shards))
	for i, ss := range w.shards {
		fin := ss.stats.Completed + ss.stats.Failed
		sample := float64(fin-ss.lastFin) / w.cfg.GossipInterval.Seconds()
		ss.lastFin = fin
		if !ss.rateOK {
			ss.rate, ss.rateOK = sample, true
		} else {
			ss.rate = shard.EWMA(ss.rate, sample)
		}
		free := 0
		if ss.index != nil {
			free = ss.index.FreeSlots()
		} else {
			for _, d := range ss.devices {
				if d.up {
					free += d.free
				}
			}
		}
		loads[i] = shard.Load{
			Shard: uint64(i + 1), Queue: len(ss.pending), Free: free, Rate: ss.rate,
		}
	}
	for i := range w.shards {
		dst := w.shards[i]
		from, n, ok := w.xpol.PlanPull(loads[i], loads)
		if !ok {
			continue
		}
		w.stats.MigrateRequests++
		src := w.shards[from-1]
		w.eng.after(w.cfg.Base.Latency, func() { w.migrate(src, dst, n) })
	}
	w.eng.after(w.cfg.GossipInterval, w.gossipTick)
}

// migrate is the source shard's side of a pull: pick up to max queued,
// never-in-flight tasklets off the back of the placement queue, Cancel
// them locally, and hand the batch to the destination one latency later
// (the MigrateTasklet flight). Eligibility is re-checked here, not at plan
// time — the queue may have drained since the gossip snapshot.
func (w *shardWorld) migrate(src, dst *shardSim, max int) {
	var picked []core.Tasklet
	taken := make(map[core.TaskletID]bool)
	for i := len(src.pending) - 1; i >= 0 && len(picked) < max; i-- {
		tid := src.pending[i].tasklet
		if taken[tid] {
			continue // voting fan-out queues one tid multiple times
		}
		t := src.life.Tasklet(tid)
		if t == nil {
			continue
		}
		// Deadline timers are armed on the source engine and cannot move;
		// in-flight fan-outs are never migrated by design.
		if t.QoC.Deadline > 0 {
			continue
		}
		if len(src.life.AppendActiveProviders(tid, src.excl[:0])) > 0 {
			continue
		}
		taken[tid] = true
		picked = append(picked, *t) // copy before Cancel recycles the state
	}
	if len(picked) == 0 {
		return
	}
	kept := src.pending[:0]
	for _, pe := range src.pending {
		if !taken[pe.tasklet] {
			kept = append(kept, pe)
		}
	}
	src.pending = kept
	launched := false
	for i := range picked {
		_, fx := src.life.Cancel(picked[i].ID)
		if src.apply(fx) { // a cancelled flight leader promotes a waiter
			launched = true
		}
	}
	if launched {
		src.schedule()
	}
	// The batch transfer costs each dispatcher one serialized operation and
	// one frame — migration frames batch like writer-loop sends, they are
	// not charged per tasklet.
	src.gate(true)
	src.out += len(picked)
	w.stats.Migrated += len(picked)
	w.eng.after(w.cfg.Base.Latency, func() {
		if d := dst.gate(true); d > 0 {
			w.eng.after(d, func() { w.admit(dst, picked) })
			return
		}
		w.admit(dst, picked)
	})
}

// admit is the destination side of a migration: fresh submissions under
// shard-local IDs, re-entering memoization, coalescing and QoC fan-out on
// the receiving engine — applied as ONE bulk lifecycle event burst, the
// same way the live broker ingests a decoded batch frame.
func (w *shardWorld) admit(dst *shardSim, batch []core.Tasklet) {
	dst.in += len(batch)
	evs := make([]lifecycle.Event, 0, len(batch))
	for _, t := range batch {
		dst.nextTid++
		t.ID = dst.nextTid
		ev := lifecycle.Event{Kind: lifecycle.EventSubmit, Tasklet: t}
		if content := w.cfg.Base.Tasks[t.Index].Key; dst.memoOn && content != 0 {
			ev.Key, ev.HaveKey = memo.KeyFor(content, dst.cfg.Seed, nil)
		}
		evs = append(evs, ev)
	}
	if dst.apply(dst.life.Apply(evs)) {
		dst.schedule()
	}
}

// merge folds the per-shard worlds into one ShardedStats.
func (w *shardWorld) merge(firstArr time.Duration) *ShardedStats {
	out := &w.stats
	out.Finals = make([]core.Result, w.total)
	lastDone := time.Duration(0)
	for _, ss := range w.shards {
		st := &ss.stats
		out.Completed += st.Completed
		out.Failed += st.Failed
		out.Attempts += st.Attempts
		out.LostAttempts += st.LostAttempts
		out.WastedAttempts += st.WastedAttempts
		out.CacheHits += st.CacheHits
		out.Coalesced += st.Coalesced
		for i, d := range ss.devices {
			st.BusyTime[i] = d.busy
			st.DeviceExecuted[i] = d.done
		}
		out.BusyTime = append(out.BusyTime, st.BusyTime...)
		out.DeviceExecuted = append(out.DeviceExecuted, st.DeviceExecuted...)
		for i, f := range st.Finals {
			if f.Tasklet != 0 {
				out.Finals[i] = f
			}
		}
		out.Trace = append(out.Trace, st.Trace...)
		if ss.lastDone > lastDone {
			lastDone = ss.lastDone
		}
		out.PerShard = append(out.PerShard, ShardStat{
			Shard: uint64(ss.pos + 1), Completed: st.Completed,
			Attempts: st.Attempts, MigratedIn: ss.in, MigratedOut: ss.out,
		})
	}
	sort.SliceStable(out.Trace, func(i, j int) bool { return out.Trace[i].At < out.Trace[j].At })
	out.Makespan = lastDone - firstArr
	out.Latency = w.lat.Snapshot()
	out.QueueDelay = w.qd.Snapshot()
	return out
}
