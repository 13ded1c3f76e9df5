package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stdtasks"
	"repro/internal/workload"
	"repro/tasklets"
)

// taggedSpinSource is stdtasks' spin with a second, unused parameter. The
// tag makes every tasklet's parameters unique where a workload needs the
// memo to miss, without changing the grain: spin's cost depends only on
// iters, and its reference result is stdtasks.RefSpin(iters).
func taggedSpinSource() (string, error) {
	src := stdtasks.Sources["spin"]
	const sig = "func main(iters int) int"
	if strings.Count(src, sig) != 1 {
		return "", fmt.Errorf("stdtasks spin no longer declares %q", sig)
	}
	return strings.Replace(src, sig, "func main(iters int, tag int) int", 1), nil
}

// task is one tasklet: its parameters and the reference result.
type task struct {
	iters, tag int64
	want       int64
}

func (t task) params() []tasklets.Value {
	return []tasklets.Value{tasklets.Int(t.iters), tasklets.Int(t.tag)}
}

// phase is a set of jobs all submitters run together. A run is a warm-up
// phase followed by rounds; a round of the burst ladder has one phase per
// rung, a round of every other workload a single phase.
type phase struct {
	label string
	round int // -1 for the warm-up
	rung  int
	jobs  [][][]task // [submitter][job][tasklet]
}

// spec is a generated workload segment: the fleet, the load generator's
// shape and the fixed job list. The same name, seed, seconds and segment
// give the same spec.
type spec struct {
	fleet  []provSpec
	subs   int // submitting goroutines, one consumer session each
	qoc    core.QoC
	single bool // each call is Client.Run on one tasklet
	phases []phase
	rounds int
}

func (s *spec) slots() int {
	n := 0
	for _, p := range s.fleet {
		n += p.Slots
	}
	return n
}

func (s *spec) tasklets() int {
	n := 0
	for _, ph := range s.phases {
		for _, jobs := range ph.jobs {
			for _, j := range jobs {
				n += len(j)
			}
		}
	}
	return n
}

// inWindow reports whether phase i is one the per-layer counters cover:
// the smallest rung of every measured round.
func (s *spec) inWindow(i int) bool {
	return s.phases[i].round >= 0 && s.phases[i].rung == 0
}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"burst", "interactive", "hetero", "zipf-vote"}

// burstIters is the grain ladder in spin iterations: about 0.7, 4, 14, 55,
// 210 and 830 µs of single-thread VM time on the 2-vCPU Xeon host the
// benchmark was sized on.
var burstIters = []int64{0, 20, 80, 320, 1280, 5120}

// burstJobs is how many 1024-tasklet jobs each of the two submitters runs
// per rung in one round. The smallest rung, which sets the control-plane
// figures, gets the most work.
var burstJobs = []int{2, 1, 1, 1, 1, 1}

// segments is how many times a run builds a fresh stack. Each stack runs
// the same number of rounds, and every end-to-end metric is the median
// over all rounds of the run, which keeps one slow stack or one noisy
// second from setting a run's figure.
const segments = 4

// Per-round work and rounds per segment of a 20 s run, sized on a 2-vCPU
// host so that each workload measures for about 20 s.
const (
	burstRounds       = 2
	interactiveCalls  = 1500
	interactiveRounds = 8
	heteroJobs        = 2 // per submitter, 256 tasklets each
	heteroRounds      = 6
	zipfJobs          = 8 // per submitter, 256 tasklets each
	zipfRounds        = 8
)

// scaledRounds sizes the rounds per segment for a run of the given
// seconds, at least one.
func scaledRounds(per20s, seconds int) int {
	return max(1, int(math.Round(float64(per20s*seconds)/20)))
}

// memoRefs caches stdtasks.RefSpin so expected results are computed once
// per distinct grain, before timing starts.
type memoRefs map[int64]int64

func (m memoRefs) spin(iters int64) int64 {
	v, ok := m[iters]
	if !ok {
		v = stdtasks.RefSpin(iters)
		m[iters] = v
	}
	return v
}

// buildSpec generates the fleet and job list of one segment of a run from
// the seed.
func buildSpec(name string, seed uint64, seconds, seg int) (*spec, error) {
	refs := memoRefs{}
	// Tags are unique within a run and differ between seeds.
	nextTag := int64(seed%1_000_000)*1_000_000_000 + int64(seg)*100_000_000
	tag := func() int64 { nextTag++; return nextTag }
	rng := rand.New(rand.NewPCG(seed, uint64(seg)))

	// fill builds a phase of the given number of calls per submitter.
	fill := func(label string, round, rung, subs, calls, size int, next func() task) phase {
		ph := phase{label: label, round: round, rung: rung, jobs: make([][][]task, subs)}
		for sub := range ph.jobs {
			for j := 0; j < calls; j++ {
				job := make([]task, size)
				for i := range job {
					job[i] = next()
				}
				ph.jobs[sub] = append(ph.jobs[sub], job)
			}
		}
		return ph
	}
	spin := func(iters int64) func() task {
		return func() task { return task{iters: iters, tag: tag(), want: refs.spin(iters)} }
	}

	// A provider sends its result before it frees the slot, so the broker
	// can re-dispatch into a slot that is not free yet and the provider
	// rejects the attempt "no free slot". The broker re-issues at once, and
	// while the provider's slot goroutine is descheduled (the host is
	// shared) each re-issue can meet the same full slot: with the default
	// budget of 3, about one burst tasklet in a million then fails. The
	// gated workloads give their tasklets the largest budget QoC allows,
	// so the race costs attempts (lifecycle.rejected_per_1k,
	// lifecycle.attempts_per_tasklet) and not tasklets; hetero keeps the
	// default, so the race's failures still show in its failed_ratio.
	const gatedRetries = 64

	// Phase 0 warms the fresh stack up (connections, program caches, heap
	// sizing) with a small share of the workload's own kind of call; it is
	// checked like every phase but not measured.
	var s *spec
	switch name {
	case "burst":
		s = &spec{subs: 2, fleet: []provSpec{{2, 1}, {2, 1}},
			qoc: core.QoC{MaxRetries: gatedRetries}, rounds: scaledRounds(burstRounds, seconds)}
		s.phases = []phase{fill("warm-up", -1, 0, s.subs, 1, 1024, spin(burstIters[0]))}
		for r := 0; r < s.rounds; r++ {
			for i, iters := range burstIters {
				s.phases = append(s.phases, fill(fmt.Sprintf("round %d rung %d", r, i), r, i, s.subs,
					burstJobs[i], 1024, spin(iters)))
			}
		}

	case "interactive":
		s = &spec{subs: 1, single: true, fleet: []provSpec{{2, 1}, {2, 1}},
			qoc: core.QoC{MaxRetries: gatedRetries}, rounds: scaledRounds(interactiveRounds, seconds)}
		const iters = 100 // about 20 µs
		s.phases = []phase{fill("warm-up", -1, 0, 1, 300, 1, spin(iters))}
		for r := 0; r < s.rounds; r++ {
			s.phases = append(s.phases, fill(fmt.Sprintf("round %d", r), r, 0, 1, interactiveCalls, 1, spin(iters)))
		}

	case "hetero":
		s = &spec{subs: 2, fleet: []provSpec{{1, 0.5}, {1, 0.25}, {1, 0.125}, {1, 0.0625}},
			rounds: scaledRounds(heteroRounds, seconds)}
		// Heavy-tailed grain: 500 iterations (~0.1 ms) plus an
		// exponential tail, capped at ~1 ms.
		heavy := func() task {
			return spin(500 + int64(math.Min(rng.ExpFloat64()*800, 4700)))()
		}
		s.phases = []phase{fill("warm-up", -1, 0, s.subs, 1, 256, heavy)}
		for r := 0; r < s.rounds; r++ {
			s.phases = append(s.phases, fill(fmt.Sprintf("round %d", r), r, 0, s.subs, heteroJobs, 256, heavy))
		}

	case "zipf-vote":
		s = &spec{subs: 2, fleet: []provSpec{{2, 1}, {2, 1}, {2, 1}},
			qoc: core.QoC{Mode: core.QoCVoting, Replicas: 3, MaxRetries: gatedRetries}, rounds: scaledRounds(zipfRounds, seconds)}
		const pool = 65536
		contents := workload.ZipfIndices(s.rounds*s.subs*zipfJobs*256, pool, 1.0, seed*segments+uint64(seg))
		// Each content has its own fixed grain, 40–150 µs, and is its
		// own tag. Warm-up contents lie outside the pool, so they never
		// meet the measured ones in the memo.
		content := func(c int64) task {
			iters := 200 + int64(splitmix(uint64(c))%600)
			return task{iters: iters, tag: c, want: refs.spin(iters)}
		}
		warm := int64(pool)
		s.phases = []phase{fill("warm-up", -1, 0, s.subs, 1, 256, func() task { warm++; return content(warm) })}
		k := 0
		for r := 0; r < s.rounds; r++ {
			s.phases = append(s.phases, fill(fmt.Sprintf("round %d", r), r, 0, s.subs, zipfJobs, 256, func() task {
				k++
				return content(int64(contents[k-1]))
			}))
		}

	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return s, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jobRec is what the load generator saw of one call.
type jobRec struct {
	phase, sub int
	tasks      []task
	id         uint64    // broker job ID (0 when the call failed early)
	start, ack time.Time // call start; Map returned
	end        time.Time // last result received
	recv       []time.Time
	ok, failed int
}

// outcome is the load generator's view of a whole run.
type outcome struct {
	jobs       []*jobRec
	phaseStart []time.Time
	phaseEnd   []time.Time
	faults     map[string]int
	mismatches int
	attempted  int
	ok, failed int
}

// phaseHook runs between phases, with no load in flight: before phase i
// when start is true, after it otherwise.
type phaseHook func(i int, start bool) error

// runSpec drives the workload through the stack's sessions as a closed
// loop: each submitter waits for every result of a call before making the
// next. Calls that would start after the deadline are not made, and their
// tasklets count as failed, so a stack too slow to finish its fixed work
// still ends in bounded time.
func runSpec(st *stack, s *spec, prog *tasklets.Program, mapSingle bool, deadline time.Time, hook phaseHook) (*outcome, error) {
	out := &outcome{faults: map[string]int{}}
	var mu sync.Mutex
	for pi, ph := range s.phases {
		if hook != nil {
			if err := hook(pi, true); err != nil {
				return nil, err
			}
		}
		var wg sync.WaitGroup
		recs := make([][]*jobRec, len(ph.jobs))
		start := time.Now()
		for sub := range ph.jobs {
			wg.Add(1)
			go func(sub int) {
				defer wg.Done()
				client := st.clients[sub%len(st.clients)]
				for _, job := range ph.jobs[sub] {
					rec := &jobRec{phase: pi, sub: sub, tasks: job, recv: make([]time.Time, len(job))}
					recs[sub] = append(recs[sub], rec)
					if time.Now().After(deadline) {
						rec.failed = len(job)
						mu.Lock()
						out.faults["not submitted: run deadline passed"] += len(job)
						mu.Unlock()
						continue
					}
					runCall(client, prog, s, rec, mapSingle, deadline, out, &mu)
				}
			}(sub)
		}
		wg.Wait()
		out.phaseStart = append(out.phaseStart, start)
		out.phaseEnd = append(out.phaseEnd, time.Now())
		for _, rs := range recs {
			out.jobs = append(out.jobs, rs...)
		}
		if hook != nil {
			if err := hook(pi, false); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range out.jobs {
		out.attempted += len(r.tasks)
		out.ok += r.ok
		out.failed += r.failed
	}
	return out, nil
}

// runCall makes one call and checks every result against the reference.
func runCall(client *tasklets.Client, prog *tasklets.Program, s *spec, rec *jobRec, mapSingle bool,
	deadline time.Time, out *outcome, mu *sync.Mutex) {
	opts := tasklets.JobOptions{QoC: s.qoc}
	check := func(r tasklets.TaskResult, now time.Time) {
		if r.Index < 0 || r.Index >= len(rec.tasks) || !rec.recv[r.Index].IsZero() {
			mu.Lock()
			out.mismatches++
			mu.Unlock()
			return
		}
		rec.recv[r.Index] = now
		if !r.OK() {
			rec.failed++
			why := r.Fault
			if why == "" {
				why = r.Status.String()
			}
			mu.Lock()
			out.faults[why]++
			mu.Unlock()
			return
		}
		if !r.Return.Equal(tasklets.Int(rec.tasks[r.Index].want)) {
			mu.Lock()
			out.mismatches++
			mu.Unlock()
		}
		rec.ok++
	}
	fail := func(why string, n int) {
		rec.failed += n
		mu.Lock()
		out.faults[why] += n
		mu.Unlock()
	}

	params := make([][]tasklets.Value, len(rec.tasks))
	for i, t := range rec.tasks {
		params[i] = t.params()
	}
	rec.start = time.Now()
	if s.single && !mapSingle {
		r, err := client.Run(prog, params[0], opts)
		now := time.Now()
		rec.ack, rec.end = now, now
		if err != nil {
			fail("call error: "+err.Error(), 1)
			return
		}
		check(r, now)
		return
	}
	job, err := client.Map(prog, params, opts)
	rec.ack = time.Now()
	if err != nil {
		rec.end = rec.ack
		fail("call error: "+err.Error(), len(rec.tasks))
		return
	}
	rec.id = uint64(job.ID)
	// A job gets until the run deadline plus a grace period; whatever has
	// not arrived by then is cancelled and counted as failed.
	timer := time.NewTimer(time.Until(deadline) + 30*time.Second)
	defer timer.Stop()
	got := 0
	for got < len(rec.tasks) {
		select {
		case r, ok := <-job.Results():
			if !ok {
				if err := job.Err(); err != nil {
					fail("job error: "+err.Error(), len(rec.tasks)-got)
				} else {
					fail("job ended without a result", len(rec.tasks)-got)
				}
				got = len(rec.tasks)
				continue
			}
			check(r, time.Now())
			got++
		case <-timer.C:
			client.Cancel(job)
			fail("no result by the run deadline", len(rec.tasks)-got)
			got = len(rec.tasks)
		}
	}
	rec.end = time.Now()
}
