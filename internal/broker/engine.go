package broker

import (
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/wire"
)

// This file implements the broker's lifecycle core: one lifecycle.Engine,
// its placement queue (queue.go), a timer wheel (wheel.go) for deadlines and backoff
// re-issues, and an MPSC ingress ring (ingress.go), all guarded by the
// engine mutex b.emu. Reader goroutines push decoded results into the ring
// and the first arrival elects itself combiner, bulk-applying the backlog
// through Engine.Apply. The scheduler goroutine keeps exclusive ownership of
// scheduler.Index and drains the queue under b.mu, so placement stays
// single-writer.
//
// Lock order (outer → inner): b.mu → b.emu → {wheel.mu, dirtyMu}.
// jobMu, exMu, progMu and pmu are taken with no engine lock held; an
// engine-lock holder never takes any of them — effects that need them
// (CancelAttempt, Deliver) are copied out under b.emu and applied after
// release. exMu → b.emu is allowed (migrate-request scan); the reverse
// never happens.

// wheelFire is the timer-wheel callback: firings enter the engine through
// the ingress ring like any other event, so the combiner discipline covers
// them.
func (b *Broker) wheelFire(kind uint8, tid core.TaskletID) {
	ev := engineEvent{kind: evDeadline, tid: tid}
	if kind == wheelLaunch {
		ev.kind = evLaunchReady
	}
	b.ring.push(&ev)
	b.pump()
}

// pump elects the caller combiner and drains the ingress ring to empty.
// Callers must hold no locks. If another goroutine already holds the flag it
// will see our events; the handoff re-check below closes the race where it
// gave up between our push and our CAS.
func (b *Broker) pump() {
	for {
		if !b.draining.CompareAndSwap(false, true) {
			return
		}
		for {
			n := 0
			if b.inScratch == nil {
				b.inScratch = make([]engineEvent, ingressRingSize)
			}
			for n < len(b.inScratch) && b.ring.pop(&b.inScratch[n]) {
				n++
			}
			if n == 0 {
				break
			}
			b.processBatch(b.inScratch[:n])
		}
		b.draining.Store(false)
		if !b.ring.hasData() {
			return
		}
	}
}

// processBatch applies one drained burst to the engine: runs of results
// become one bulk Engine.Apply, wheel firings are applied in arrival order.
// Effects that need broker-wide state are copied and applied after b.emu is
// released; the scheduler is woken once for the burst.
func (b *Broker) processBatch(evs []engineEvent) {
	out := b.outScratch[:0]
	wake := false

	b.emu.Lock()
	i := 0
	for i < len(evs) {
		switch evs[i].kind {
		case evResult:
			j := i
			lev := b.evScratch[:0]
			for j < len(evs) && evs[j].kind == evResult {
				lev = append(lev, lifecycle.Event{Kind: lifecycle.EventResult, Result: evs[j].res})
				j++
			}
			fx := b.life.Apply(lev)
			for k := range lev {
				disp := lev[k].Disp
				if disp == lifecycle.ResultStale {
					continue // unknown attempt or wrong provider; no slot was consumed
				}
				pr := evs[i+k].prov
				pr.free.Add(1)
				pr.backlog.Add(-1)
				pr.finished.Add(1)
				b.markProviderDirty(pr)
				wake = true
				if disp != lifecycle.ResultConsumed {
					continue
				}
				r := &evs[i+k].res
				switch r.Status {
				case core.StatusOK:
					b.mAttemptsOK.Inc()
				case core.StatusFault:
					b.mAttemptsFlt.Inc()
				default:
					b.mAttemptsOth.Inc()
				}
				b.mExecMS.Observe(float64(r.Exec) / 1e6)
			}
			var launched bool
			out, launched = b.applyFxLocked(fx, out)
			wake = wake || launched
			b.evScratch = lev[:0]
			i = j
		case evDeadline:
			expired, fx := b.life.Deadline(evs[i].tid)
			if expired {
				b.mDeadlineExp.Inc()
				out, _ = b.applyFxLocked(fx, out)
				// A deadlined leader's dissolved flight re-queues its
				// waiters.
				wake = true
			}
			i++
		case evLaunchReady:
			// Backoff re-issue became eligible: queue only if the tasklet
			// is still live.
			if !b.closed.Load() && b.life.Live(evs[i].tid) {
				b.appendPendingLocked(evs[i].tid)
				wake = true
			}
			i++
		default:
			i++
		}
	}
	b.emu.Unlock()

	b.applyOutFx(out)
	b.outScratch = out[:0]
	if wake {
		b.schedule()
	}
}

// appendPendingLocked queues tid for placement behind its job's earlier
// entries. A tasklet finalized later in the same bulk Apply has nothing
// left to place. Callers hold b.emu.
func (b *Broker) appendPendingLocked(tid core.TaskletID) {
	t := b.life.Tasklet(tid)
	if t == nil {
		return
	}
	b.queue.push(t.Job, tid)
	b.pendingN.Add(1)
}

// applyFxLocked executes the engine-local half of an effect slice —
// pending-queue appends and timer-wheel arming — and copies the effects
// that need broker-wide state (CancelAttempt, Deliver) into out for
// applyOutFx. Callers hold b.emu; launched reports whether placement work
// was queued.
func (b *Broker) applyFxLocked(fx []lifecycle.Effect, out []lifecycle.Effect) ([]lifecycle.Effect, bool) {
	launched := false
	for i := range fx {
		ef := &fx[i]
		switch ef.Kind {
		case lifecycle.EffectLaunch:
			if ef.Delay > 0 {
				// Backoff re-issue: the wheel re-queues it after the delay
				// (no per-retry AfterFunc goroutine).
				b.wheel.armLaunch(ef.Tasklet, ef.Delay)
			} else {
				b.appendPendingLocked(ef.Tasklet)
				launched = true
			}
		case lifecycle.EffectSetDeadline:
			b.wheel.armDeadline(ef.Tasklet, ef.Delay)
		case lifecycle.EffectCancelAttempt:
			out = append(out, *ef)
		case lifecycle.EffectDeliver:
			// The tasklet is finalized; disarm its deadline while we still
			// hold the engine lock.
			b.wheel.stopDeadline(ef.Tasklet)
			out = append(out, *ef)
		case lifecycle.EffectMemoStore, lifecycle.EffectCoalesced:
			// Informational; the memo package maintains its own counters.
		}
	}
	return out, launched
}

// applyOutFx executes effects copied out of the engine: attempt cancels
// (provider lookup under pmu) and final delivery. Callers must hold no
// locks.
func (b *Broker) applyOutFx(out []lifecycle.Effect) {
	for i := range out {
		ef := &out[i]
		switch ef.Kind {
		case lifecycle.EffectCancelAttempt:
			b.pmu.RLock()
			if p := b.providers[ef.Provider]; p != nil {
				b.enqueue(p.out, &wire.CancelAttempt{Attempt: ef.Attempt}, p.nc, &p.dropWarned, p.label)
			}
			b.pmu.RUnlock()
		case lifecycle.EffectDeliver:
			b.deliver(ef)
		}
	}
}

// feed applies a batch of lifecycle events (submissions, adopted
// migrations) to the engine as one bulk Apply and fully executes the
// effects. Callers must hold no locks and call b.schedule() afterwards.
func (b *Broker) feed(evs []lifecycle.Event) {
	if len(evs) == 0 {
		return
	}
	b.emu.Lock()
	fx := b.life.Apply(evs)
	out, _ := b.applyFxLocked(fx, nil)
	b.emu.Unlock()
	b.applyOutFx(out)
}

// cancelOne cancels tid, reporting whether a live tasklet was dropped.
// Promoted-waiter launches and attempt cancels are fully applied. Callers
// must hold no locks and call b.schedule() afterwards.
func (b *Broker) cancelOne(tid core.TaskletID) bool {
	b.emu.Lock()
	dropped, fx := b.life.Cancel(tid)
	var out []lifecycle.Effect
	if dropped {
		b.wheel.stopDeadline(tid)
		out, _ = b.applyFxLocked(fx, nil)
	}
	b.emu.Unlock()
	b.applyOutFx(out)
	return dropped
}

// purgePending removes queue entries whose tasklet no longer exists.
func (b *Broker) purgePending() {
	b.emu.Lock()
	b.purgeLocked()
	b.emu.Unlock()
}

// purgeLocked is purgePending for callers holding b.emu.
func (b *Broker) purgeLocked() {
	removed := b.queue.walk(func(tid core.TaskletID) (remove, stop bool) {
		return !b.life.Live(tid), false
	})
	b.pendingN.Add(-int64(removed))
}

// markProviderDirty queues p for an index resync at the next pass start.
// The CAS collapses a burst of results into one dirty-list entry.
func (b *Broker) markProviderDirty(p *providerState) {
	if p.dirty.CompareAndSwap(false, true) {
		b.dirtyMu.Lock()
		b.dirtyProv = append(b.dirtyProv, p)
		b.dirtyMu.Unlock()
	}
}

// syncDirtyProvidersLocked folds combiner-side slot settlements into the
// scheduler's view: reliability refresh plus one absolute index Upsert per
// dirty provider. Runs at the start of every placement pass under b.mu —
// the index has a single writer, the scheduler.
func (b *Broker) syncDirtyProvidersLocked() {
	b.dirtyMu.Lock()
	dirty := b.dirtyProv
	b.dirtyProv = b.dirtySpare[:0]
	b.dirtySpare = dirty
	b.dirtyMu.Unlock()
	for _, p := range dirty {
		p.dirty.Store(false)
		if p.gone.Load() {
			continue
		}
		b.updateReliabilityLocked(p)
		b.index.Upsert(&p.info, int(p.free.Load()), int(p.backlog.Load()))
	}
}

// deliver pushes a final result to the consumer and updates job accounting.
// Callers must hold no locks; the tasklet's deadline is already disarmed
// (applyFxLocked does it under the engine lock).
func (b *Broker) deliver(ef *lifecycle.Effect) {
	b.finalizedN.Add(1)
	if b.opts.ShardID != 0 {
		b.exMu.Lock()
		if rec, ok := b.adopted[ef.Tasklet]; ok {
			// An adopted tasklet's final goes home as a MigrateResult: the
			// origin shard owns the consumer connection and the job
			// accounting.
			delete(b.adopted, ef.Tasklet)
			b.returnAdoptedExLocked(rec, ef)
			b.exMu.Unlock()
			return
		}
		b.exMu.Unlock()
	}
	final := ef.Final

	b.jobMu.Lock()
	defer b.jobMu.Unlock()
	job := b.jobs[final.Job]
	if job == nil {
		return
	}
	if final.OK() {
		job.completed++
		b.mCompleted.Inc()
	} else {
		job.failed++
		b.mFailed.Inc()
	}
	b.mLatencyMS.ObserveDuration(time.Since(ef.Submitted))

	c := b.consumers[job.consumer]
	if c == nil || c.gone {
		return
	}
	c.pending--
	b.enqueue(c.out, &wire.ResultPush{
		Job:       final.Job,
		Tasklet:   final.Tasklet,
		Index:     final.Index,
		Status:    final.Status,
		Return:    final.Return,
		Emitted:   final.Emitted,
		FaultCode: final.FaultCode,
		FaultMsg:  final.FaultMsg,
		Provider:  final.Provider,
		Attempts:  ef.Attempts,
		ExecNanos: int64(final.Exec),
	}, c.nc, &c.dropWarned, c.label)
	if job.completed+job.failed == job.total {
		b.enqueue(c.out, &wire.JobDone{Job: job.id, Completed: job.completed, Failed: job.failed}, c.nc, &c.dropWarned, c.label)
		delete(b.jobs, job.id)
		delete(c.jobs, job.id)
		b.logf("broker: job %d done: %d completed, %d failed", job.id, job.completed, job.failed)
	}
}
