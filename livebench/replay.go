package main

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/tasklang"
	"repro/internal/tvm"
	"repro/internal/wire"
	"repro/tasklets"
)

// The replays time one layer's public functions in isolation, on inputs
// taken from the run itself: the frames the relay saw, the run's jobs and
// keys, its fleet and its parameters. They run after the traced stack has
// stopped, so nothing else competes for the CPU.

const defaultFuel = 100_000_000 // the broker's default per-tasklet fuel

// replayWire decodes every sampled frame with wire.Unmarshal and encodes
// the result with wire.AppendFrame, several times over, and returns the
// mean cost per frame of each.
func replayWire(samples []frameSample) (encNS, decNS float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	msgs := make([]wire.Message, 0, len(samples))
	kept := samples[:0:0]
	for _, s := range samples {
		m, err := wire.Unmarshal(s.typ, s.payload)
		if err != nil {
			continue
		}
		msgs = append(msgs, m)
		kept = append(kept, s)
	}
	if len(msgs) == 0 {
		return 0, 0
	}
	const reps = 20
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range kept {
			if _, err := wire.Unmarshal(s.typ, s.payload); err != nil {
				panic(err) // decoded once above, so this cannot fail
			}
		}
	}
	dec := time.Since(t0)
	buf := make([]byte, 0, 64<<10)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range msgs {
			b, err := wire.AppendFrame(buf[:0], m)
			if err != nil {
				panic(err) // a decoded message always re-encodes
			}
			buf = b
		}
	}
	enc := time.Since(t0)
	n := float64(reps * len(msgs))
	return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n
}

// replayLifecycle feeds the run's submissions through one
// lifecycle.Engine configured like a broker partition (memo and flight
// table on): each job's submissions as one Apply, every launch answered
// with the reference result, the results of a round as one Apply, until
// every tasklet is delivered. It returns the Apply time per event.
func replayLifecycle(s *spec, jobs [][]task, progID core.ProgramID) float64 {
	reg := &metrics.Registry{}
	e := lifecycle.New(lifecycle.Options{
		Memo:    memo.New(memo.Config{Metrics: reg}),
		Flights: memo.NewFlightTable(reg, "memo."),
	})
	var (
		applied   int
		spent     time.Duration
		nextTID   core.TaskletID
		evs       []lifecycle.Event
		launches  []core.TaskletID
		wantByTID = map[core.TaskletID]int64{}
	)
	apply := func() {
		t0 := time.Now()
		fx := e.Apply(evs)
		spent += time.Since(t0)
		applied += len(evs)
		for _, f := range fx {
			if f.Kind == lifecycle.EffectLaunch {
				launches = append(launches, f.Tasklet)
			}
		}
	}
	for ji, job := range jobs {
		evs = evs[:0]
		for i, t := range job {
			nextTID++
			wantByTID[nextTID] = t.want
			params := t.params()
			tk := core.Tasklet{ID: nextTID, Job: core.JobID(ji + 1), Index: i, Program: progID,
				Params: params, QoC: s.qoc, Fuel: defaultFuel}
			key, ok := memo.KeyFor(uint64(progID), 0, params)
			evs = append(evs, lifecycle.Event{Kind: lifecycle.EventSubmit, Tasklet: tk, Key: key, HaveKey: ok})
		}
		apply()
		for len(launches) > 0 {
			round := launches
			launches = nil
			evs = evs[:0]
			for i, tid := range round {
				pid := core.ProviderID(i%3 + 1)
				aid, ok := e.Launched(tid, pid)
				if !ok {
					continue
				}
				evs = append(evs, lifecycle.Event{Kind: lifecycle.EventResult, Result: core.Result{
					Attempt: aid, Tasklet: tid, Provider: pid, Status: core.StatusOK,
					Return: tvm.Int(wantByTID[tid]), FuelUsed: 1000,
				}})
			}
			apply()
		}
	}
	if applied == 0 {
		return 0
	}
	return float64(spent.Nanoseconds()) / float64(applied)
}

// replayPick places n tasklets on the run's fleet through a
// scheduler.Index with the broker's default policy, completing the oldest
// attempt whenever every slot is busy, and returns the mean Pick cost.
func replayPick(fleet []tasklets.FleetProvider, n int) float64 {
	ix, err := scheduler.NewIndexFor(scheduler.NewWorkSteal())
	if err != nil || len(fleet) == 0 || n == 0 {
		return 0
	}
	infos := make([]core.ProviderInfo, len(fleet))
	for i, p := range fleet {
		infos[i] = core.ProviderInfo{ID: p.ID, Class: p.Class, Slots: p.Slots, Speed: p.Speed, Reliability: 1}
		ix.Upsert(&infos[i], p.Slots, 0)
	}
	var inflight []core.ProviderID
	t := core.Tasklet{Fuel: defaultFuel}
	var spent time.Duration
	picks := 0
	for i := 0; i < n; i++ {
		t.ID = core.TaskletID(i + 1)
		t0 := time.Now()
		id, ok := ix.Pick(&t, nil)
		spent += time.Since(t0)
		picks++
		if !ok {
			if len(inflight) == 0 {
				break
			}
			ix.Complete(inflight[0])
			inflight = inflight[1:]
			continue
		}
		ix.Assign(id)
		inflight = append(inflight, id)
	}
	return float64(spent.Nanoseconds()) / float64(picks)
}

// replayMemo runs the run's key stream through a broker-sized memo.Cache:
// a Get per tasklet and a Put after each miss. It returns the mean cost
// of each.
func replayMemo(jobs [][]task, progID core.ProgramID) (getNS, putNS float64) {
	c := memo.New(memo.Config{})
	var gets, puts int
	var tg, tp time.Duration
	for _, job := range jobs {
		for _, t := range job {
			key, ok := memo.KeyFor(uint64(progID), 0, t.params())
			if !ok {
				continue
			}
			t0 := time.Now()
			e := c.Get(key, 1, defaultFuel)
			tg += time.Since(t0)
			gets++
			if e == nil {
				ret := tvm.Int(t.want)
				t0 = time.Now()
				c.Put(key, ret, nil, 1000, time.Millisecond, 1)
				tp += time.Since(t0)
				puts++
			}
		}
	}
	if gets > 0 {
		getNS = float64(tg.Nanoseconds()) / float64(gets)
	}
	if puts > 0 {
		putNS = float64(tp.Nanoseconds()) / float64(puts)
	}
	return getNS, putNS
}

// replayTVM executes a sample of the run's tasklets the way a provider
// does (a fresh VM per tasklet) and returns the median execution time and
// the VM's throughput in fuel units (operations) per second, in millions.
func replayTVM(prog *tvm.Program, jobs [][]task, samples int) (p50US, mops float64) {
	var all []task
	for _, j := range jobs {
		all = append(all, j...)
	}
	if len(all) == 0 {
		return 0, 0
	}
	step := max(1, len(all)/samples)
	var times []float64
	var fuel uint64
	var spent time.Duration
	for i := 0; i < len(all); i += step {
		t0 := time.Now()
		res, err := tvm.New(prog, tvm.DefaultConfig()).Run(all[i].params()...)
		d := time.Since(t0)
		if err != nil {
			continue
		}
		times = append(times, float64(d.Nanoseconds())/1e3)
		fuel += res.FuelUsed
		spent += d
	}
	if len(times) == 0 {
		return 0, 0
	}
	sort.Float64s(times)
	return newDist(times).pct(0.5), float64(fuel) / float64(spent.Microseconds()+1)
}

// timeCompile returns the median time of tasklang.Compile on src.
func timeCompile(src string) float64 {
	var ts []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if _, err := tasklang.Compile(src); err != nil {
			return 0
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(ts)
}

// vmModel is the single-thread VM time of spin as a function of its
// iteration count, measured in the benchmark process while no stack runs:
// the times at 0 and at calIters iterations, interpolated linearly.
type vmModel struct {
	zeroUS, topUS float64
}

const calIters = 2048

func (m vmModel) us(iters int64) float64 {
	return m.zeroUS + (m.topUS-m.zeroUS)*float64(iters)/calIters
}

// fastest keeps the faster timing of each point.
func (m vmModel) fastest(o vmModel) vmModel {
	return vmModel{zeroUS: min(m.zeroUS, o.zeroUS), topUS: min(m.topUS, o.topUS)}
}

// calibrateVM times fresh-VM executions of spin at two grains. Each point
// is the fastest of several batches: interference only ever adds time.
func calibrateVM(prog *tvm.Program) vmModel {
	point := func(iters int64, batch int) float64 {
		best := -1.0
		params := []tvm.Value{tvm.Int(iters), tvm.Int(0)}
		for rep := 0; rep < 7; rep++ {
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				if _, err := tvm.New(prog, tvm.DefaultConfig()).Run(params...); err != nil {
					panic(err) // spin cannot fault at these grains
				}
			}
			us := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(batch)
			if best < 0 || us < best {
				best = us
			}
		}
		return best
	}
	point(0, 500) // warm up
	return vmModel{zeroUS: point(0, 2000), topUS: point(calIters, 20)}
}
