package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/tasklang"
	"repro/internal/tvm"
	"repro/tasklets"
)

// metricVal is one reported metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run, the benchmark's contract.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// environment identifies the host and build a run was made on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// record is everything a run measured; compare reads these.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Env      environment        `json:"env"`
	Exits    []string           `json:"child_exits"`
	Result   result             `json:"result"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	Layers   map[string]float64 `json:"per_layer,omitempty"`
	Samples  map[string]int     `json:"samples"`
	Faults   map[string]int     `json:"faults"`
}

// metricDef names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"tasklets_per_s_adj", "1/s"},
	{"rt_p50_us_adj", "us"},
	{"rt_p90_us_adj", "us"},
	{"ok_ratio", "ratio"},
	{"broker_heap_mb", "MiB"},
}

// rawDefs are printed in the report and kept in the record, but not gated
// on: the first three are the unadjusted forms of the gated ones,
// calls_per_s is tasklets_per_s over the fixed job size, and
// makespan_p50_ms follows rt_p90_us.
var rawDefs = []metricDef{
	{"tasklets_per_s", "1/s"},
	{"rt_p50_us", "us"},
	{"rt_p90_us", "us"},
	{"calls_per_s", "1/s"},
	{"makespan_p50_ms", "ms"},
	{"host_factor", "ratio"},
}

var layerDefs = []metricDef{
	{"metg_us", "us"},
	{"consumer.submit_ack_us", "us"},
	{"consumer.result_wait_us", "us"},
	{"consumer.deliver_us", "us"},
	{"consumer.cpu_us_per_tasklet", "us"},
	{"wire.broker_writes_per_tasklet", "count"},
	{"wire.broker_reads_per_tasklet", "count"},
	{"wire.provider_writes_per_tasklet", "count"},
	{"wire.bytes_per_tasklet", "B"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"broker.cpu_us_per_tasklet", "us"},
	{"broker.alloc_b_per_tasklet", "B"},
	{"broker.gc_per_10k", "count"},
	{"broker.placed_per_pass", "count"},
	{"broker.queue_us", "us"},
	{"broker.result_us", "us"},
	{"lifecycle.attempts_per_tasklet", "count"},
	{"lifecycle.rejected_per_1k", "count"},
	{"lifecycle.apply_ns_per_event", "ns"},
	{"lifecycle.attempts_per_miss", "count"},
	{"scheduler.pick_ns", "ns"},
	{"memo.hit_ratio", "ratio"},
	{"memo.coalesced_per_1k", "count"},
	{"memo.get_ns", "ns"},
	{"memo.put_ns", "ns"},
	{"provider.cpu_us_per_tasklet", "us"},
	{"provider.turnaround_us", "us"},
	{"tvm.mops_per_s", "Mops/s"},
	{"tvm.exec_us", "us"},
	{"tasklang.compile_us", "us"},
	{"provider.register_ms", "ms"},
	{"metrics.heap_b_per_tasklet", "B"},
	{"failed_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	exe      string
}

// window sums /proc counters and broker heap marks over the window phases
// of a segment (see spec.inWindow): the smallest burst rung of every
// round, or every measured round of the other workloads.
type window struct {
	broker, consumer procSample
	providers        []procSample
	alloc            uint64 // broker bytes allocated inside the window
	gcs              int    // broker collections inside the window
	heapFirst        heapStats
	heapLast         heapStats
}

// segment is one share of a run: a fresh stack, its set-up, the share of
// the job list driven through it, and what its children reported.
type segment struct {
	spec     *spec
	setupS   float64
	out      *outcome
	win      window
	reports  []*childReport // broker first, then providers
	exits    []string
	fleet    []tasklets.FleetProvider
	register []float64
	relay    *relay
	// hostFactor is the host's slowness around the segment relative to
	// the reference host (see probe.go).
	hostFactor float64
}

// runSegment builds a stack (timing the set-up), drives the segment's
// jobs through it and stops it.
func runSegment(cfg runConfig, seg int, src string, traced bool, deadline time.Time) (*segment, error) {
	s, err := buildSpec(cfg.workload, cfg.seed, cfg.seconds, seg)
	if err != nil {
		return nil, err
	}
	g := &segment{spec: s}
	t0 := time.Now()
	prog, err := tasklets.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	st, err := startStack(cfg.exe, s.fleet, s.subs, traced)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	g.setupS = time.Since(t0).Seconds()
	g.register = st.registerMS
	g.relay = st.relay
	if g.fleet, _, err = st.clients[0].Fleet(); err != nil {
		st.stop()
		return nil, fmt.Errorf("fleet: %w", err)
	}
	brokerPID, provPIDs := st.pids()
	sample := func() (b, c procSample, ps []procSample, err error) {
		if b, err = readProc(brokerPID); err != nil {
			return
		}
		if c, err = readProc(os.Getpid()); err != nil {
			return
		}
		for _, pid := range provPIDs {
			var x procSample
			if x, err = readProc(pid); err != nil {
				return
			}
			ps = append(ps, x)
		}
		return
	}
	// Between phases no load is in flight, so the marks' forced
	// collections and the /proc reads land outside the measured time.
	var atStart, atStartC procSample
	var atStartProv []procSample
	var heapStart heapStats
	hook := func(i int, start bool) error {
		if !s.inWindow(i) {
			return nil
		}
		if start {
			h, err := st.broker.mark()
			if err != nil {
				return err
			}
			if g.win.heapFirst.NumGC == 0 {
				g.win.heapFirst = h
			}
			heapStart = h
			atStart, atStartC, atStartProv, err = sample()
			return err
		}
		b, c, ps, err := sample()
		if err != nil {
			return err
		}
		g.win.broker = g.win.broker.add(b.sub(atStart))
		g.win.consumer = g.win.consumer.add(c.sub(atStartC))
		if g.win.providers == nil {
			g.win.providers = make([]procSample, len(ps))
		}
		for j := range ps {
			g.win.providers[j] = g.win.providers[j].add(ps[j].sub(atStartProv[j]))
		}
		h, err := st.broker.mark()
		if err != nil {
			return err
		}
		g.win.alloc += h.TotalAlloc - heapStart.TotalAlloc
		// The closing mark forces one collection of its own.
		g.win.gcs += int(h.NumGC) - int(heapStart.NumGC) - 1
		g.win.heapLast = h
		return nil
	}
	g.out, err = runSpec(st, s, prog, traced, deadline, hook)
	stopErr := st.stop()
	g.reports, g.exits = st.reports, st.exits
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, fmt.Errorf("teardown: %w", stopErr)
	}
	return g, nil
}

// medians reduces per-segment metric maps to their per-metric medians.
func medians(ms []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// benchOne makes one run and returns its record.
func benchOne(cfg runConfig) (*record, error) {
	src, err := taggedSpinSource()
	if err != nil {
		return nil, err
	}
	vmProg, err := tasklang.Compile(src)
	if err != nil {
		return nil, err
	}
	// The VM is timed before every segment, while no stack runs; the
	// fastest timing of each point over the run is the single-thread cost.
	vm := calibrateVM(vmProg)
	deadline := time.Now().Add(time.Duration(min(4*cfg.seconds, 100)) * time.Second)
	var segs []*segment
	probe := hostProbe()
	for k := 0; k < segments; k++ {
		if k > 0 {
			vm = vm.fastest(calibrateVM(vmProg))
		}
		g, err := runSegment(cfg, k, src, false, deadline)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", k, err)
		}
		after := hostProbe()
		g.hostFactor = (probe + after) / 2 / probeRefUS
		probe = after
		segs = append(segs, g)
	}
	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: hostEnv(), Faults: map[string]int{}, Samples: map[string]int{},
	}
	correct := true
	var attempted, failed int
	var e2es []map[string]float64
	var setups []float64
	var ladders [][]rung
	var extra []string
	for k, g := range segs {
		rec.Exits = append(rec.Exits, g.exits...)
		for f, n := range g.out.faults {
			rec.Faults[f] += n
		}
		correct = correct && g.out.mismatches == 0
		attempted += g.out.attempted
		failed += g.out.failed
		setups = append(setups, g.setupS)
		rounds, l, lines := endToEnd(g, vm, rec.Samples)
		e2es = append(e2es, rounds...)
		ladders = append(ladders, l...)
		for _, l := range lines {
			extra = append(extra, fmt.Sprintf("seg %d  %s", k, l))
		}
	}
	rec.EndToEnd = medians(e2es)
	rec.EndToEnd["setup_s"] = median(setups)
	rec.Samples["setup_s"] = len(setups)
	metgUS := runMETG(ladders)
	extra = append(extra, fmt.Sprintf("metg_us %.1f (median efficiency of each rung over %d rounds)", metgUS, len(ladders)))
	extra = append(extra, fmt.Sprintf("failed_ratio %.6f (%d of %d)", float64(failed)/float64(max(attempted, 1)), failed, attempted))

	var traceReport string
	if cfg.trace {
		traced, err := runSegment(cfg, 0, src, true, time.Now().Add(time.Duration(min(2*cfg.seconds, 40))*time.Second))
		if err != nil {
			return nil, fmt.Errorf("traced segment: %w", err)
		}
		rec.Exits = append(rec.Exits, traced.exits...)
		correct = correct && traced.out.mismatches == 0
		rec.Layers, traceReport = perLayer(segs, traced, vmProg, src, rec.Samples)
		rec.Layers["failed_ratio"] = float64(failed) / float64(max(attempted, 1))
		attempted += traced.out.attempted
		failed += traced.out.failed
		rec.Layers["metg_us"] = metgUS
		rec.Samples["metg_us"] = len(ladders) * len(ladders[0])
	}

	rec.Result = result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricVal{}}
	defs, vals := endToEndDefs, rec.EndToEnd
	if cfg.trace {
		defs, vals = layerDefs, rec.Layers
	}
	for _, d := range defs {
		rec.Result.Metrics[d.name] = metricVal{Value: vals[d.name], Unit: d.unit}
	}
	mismatches := 0
	for _, g := range segs {
		mismatches += g.out.mismatches
	}
	printReport(rec, segs[0].spec, mismatches, extra, traceReport)
	return rec, nil
}

// endToEnd computes the user-visible metrics of each measured round of
// one untraced segment. Samples accumulate the number of observations
// behind each metric.
func endToEnd(g *segment, vm vmModel, samples map[string]int) ([]map[string]float64, [][]rung, []string) {
	s, out := g.spec, g.out
	var rounds []map[string]float64
	var ladders [][]rung
	var extra []string
	okRatio := float64(out.ok) / float64(max(out.attempted, 1))
	samples["ok_ratio"] += out.attempted
	var heapMB float64
	if len(g.reports) > 0 && g.reports[0] != nil {
		heapMB = float64(g.reports[0].Heap.HeapAlloc) / (1 << 20)
	}
	samples["broker_heap_mb"]++
	// Efficiency: single-thread VM time of the completed tasklets over the
	// wall time of the cores the stack could use.
	width := float64(min(s.slots(), runtime.NumCPU(), s.subs*len(s.phases[0].jobs[0][0])))

	for round := 0; round < s.rounds; round++ {
		m := map[string]float64{"ok_ratio": okRatio, "broker_heap_mb": heapMB}
		var rungs []rung
		for pi, ph := range s.phases {
			if ph.round != round {
				continue
			}
			wall := out.phaseEnd[pi].Sub(out.phaseStart[pi]).Seconds()
			var vmUS float64
			var n int
			for _, r := range out.jobs {
				if r.phase != pi {
					continue
				}
				for i, t := range r.tasks {
					if !r.recv[i].IsZero() {
						vmUS += vm.us(t.iters)
						n++
					}
				}
			}
			eff := vmUS / (wall * 1e6 * width)
			grain := vmUS / math.Max(float64(n), 1)
			rungs = append(rungs, rung{grainUS: grain, efficiency: eff})
			extra = append(extra, fmt.Sprintf("%-18s grain %8.1f us  efficiency %.4f  tasklets %6d  wall %.3f s",
				ph.label, grain, eff, n, wall))
			if ph.rung != 0 {
				continue
			}
			var ok, calls int
			var rts, spans []float64
			for _, r := range out.jobs {
				if r.phase != pi {
					continue
				}
				ok += r.ok
				if r.end.IsZero() {
					continue
				}
				calls++
				spans = append(spans, float64(r.end.Sub(r.start).Nanoseconds())/1e6)
				for _, t := range r.recv {
					if !t.IsZero() {
						rts = append(rts, float64(t.Sub(r.start).Nanoseconds())/1e3)
					}
				}
			}
			m["tasklets_per_s"] = float64(ok) / wall
			samples["tasklets_per_s"] += ok
			m["calls_per_s"] = float64(calls) / wall
			samples["calls_per_s"] += calls
			rt := newDist(rts)
			m["rt_p50_us"], m["rt_p90_us"] = rt.pct(0.5), rt.pct(0.9)
			samples["rt_p50_us"] += rt.n()
			samples["rt_p90_us"] += rt.n()
			ms := newDist(spans)
			m["makespan_p50_ms"] = ms.pct(0.5)
			samples["makespan_p50_ms"] += ms.n()
			// Adjusted to the reference host: a slower host (factor > 1)
			// lowers the raw rate and raises the raw latencies.
			f := g.hostFactor
			m["tasklets_per_s_adj"] = m["tasklets_per_s"] * f
			m["rt_p50_us_adj"], m["rt_p90_us_adj"] = m["rt_p50_us"]/f, m["rt_p90_us"]/f
			m["host_factor"] = f
			samples["tasklets_per_s_adj"] += ok
			samples["rt_p50_us_adj"] += rt.n()
			samples["rt_p90_us_adj"] += rt.n()
			extra = append(extra, fmt.Sprintf("%-18s rt_p99_us %.1f (n=%d, %d beyond)  rt_p99.9_us %.1f (%d beyond)  makespan_p90_ms %.3f (n=%d)",
				"", rt.pct(0.99), rt.n(), rt.beyond(0.99), rt.pct(0.999), rt.beyond(0.999), ms.pct(0.9), ms.n()))
		}
		ladders = append(ladders, rungs)
		rounds = append(rounds, m)
	}
	return rounds, ladders, extra
}

// runMETG computes METG from the median efficiency of each rung over all
// rounds of a run. With a single rung, or when no rung reaches 50%, it
// extrapolates from the largest rung under a constant per-tasklet
// overhead o, where efficiency = g/(g+o) reaches 50% at g = o.
func runMETG(ladders [][]rung) float64 {
	med := make([]rung, len(ladders[0]))
	for i := range med {
		var gs, es []float64
		for _, l := range ladders {
			gs = append(gs, l[i].grainUS)
			es = append(es, l[i].efficiency)
		}
		med[i] = rung{grainUS: median(gs), efficiency: median(es)}
	}
	if v, ok := metg(med); ok && len(med) > 1 {
		return v
	}
	last := med[len(med)-1]
	return last.grainUS * (1 - last.efficiency) / last.efficiency
}

// windowTasklets is the number of tasklets finished in the window phases.
func windowTasklets(s *spec, out *outcome) int {
	n := 0
	for _, r := range out.jobs {
		if s.inWindow(r.phase) {
			n += r.ok + r.failed
		}
	}
	return n
}

// windowRate is the tasklet rate over the window phases.
func windowRate(s *spec, out *outcome) float64 {
	var wall float64
	for pi := range s.phases {
		if s.inWindow(pi) {
			wall += out.phaseEnd[pi].Sub(out.phaseStart[pi]).Seconds()
		}
	}
	return float64(windowTasklets(s, out)) / wall
}

// counterLayers computes the per-layer metrics read at process boundaries
// of one untraced segment: /proc counters and heap marks around the
// measured window, and the children's registries.
func counterLayers(g *segment) map[string]float64 {
	L := map[string]float64{}
	n := float64(max(windowTasklets(g.spec, g.out), 1))
	var provW, provCPU, allW float64
	for _, ps := range g.win.providers {
		provW += float64(ps.IO.SyscW)
		provCPU += ps.Stat.cpuUS()
		allW += float64(ps.IO.WChar)
	}
	allW += float64(g.win.broker.IO.WChar + g.win.consumer.IO.WChar)
	L["wire.broker_writes_per_tasklet"] = float64(g.win.broker.IO.SyscW) / n
	L["wire.broker_reads_per_tasklet"] = float64(g.win.broker.IO.SyscR) / n
	L["wire.provider_writes_per_tasklet"] = provW / n
	L["wire.bytes_per_tasklet"] = allW / n
	L["broker.cpu_us_per_tasklet"] = g.win.broker.Stat.cpuUS() / n
	L["provider.cpu_us_per_tasklet"] = provCPU / n
	L["consumer.cpu_us_per_tasklet"] = g.win.consumer.Stat.cpuUS() / n
	L["broker.alloc_b_per_tasklet"] = float64(g.win.alloc) / n
	L["broker.gc_per_10k"] = float64(max(g.win.gcs, 0)) / n * 1e4
	// Heap growth from the first window to the last, over every tasklet
	// the broker handled in between.
	var between int
	for _, r := range g.out.jobs {
		if g.spec.phases[r.phase].round >= 0 {
			between += len(r.tasks)
		}
	}
	L["metrics.heap_b_per_tasklet"] = (float64(g.win.heapLast.HeapAlloc) - float64(g.win.heapFirst.HeapAlloc)) / float64(max(between, 1))

	var bc map[string]int64
	var bh map[string]string
	if len(g.reports) > 0 && g.reports[0] != nil {
		bc, bh = g.reports[0].Counters, g.reports[0].Hists
	}
	submitted := float64(max(bc["tasklets.submitted"], 1))
	launched := float64(bc["attempts.launched"])
	var rejected float64
	for _, r := range g.reports[1:] {
		if r != nil {
			rejected += float64(r.Counters["provider.attempts.rejected"])
		}
	}
	L["lifecycle.attempts_per_tasklet"] = launched / submitted
	L["lifecycle.rejected_per_1k"] = rejected / submitted * 1e3
	hits, misses := float64(bc["memo.hits"]), float64(bc["memo.misses"])
	L["memo.hit_ratio"] = hits / math.Max(hits+misses, 1)
	L["memo.coalesced_per_1k"] = float64(bc["memo.coalesced"]) / submitted * 1e3
	L["lifecycle.attempts_per_miss"] = launched / math.Max(misses, 1)
	L["broker.placed_per_pass"] = float64(bc["broker.placed_per_pass"]) / math.Max(float64(histCount(bh["broker.sched_pass_ns"])), 1)
	L["provider.register_ms"] = median(g.register)
	return L
}

// perLayer computes the per-layer metrics: counters as the median over the
// untraced segments, spans from the traced segment, and the replays on the
// first segment's inputs.
func perLayer(segs []*segment, tr *segment, vmProg *tvm.Program, src string, samples map[string]int) (map[string]float64, string) {
	var per []map[string]float64
	for _, g := range segs {
		per = append(per, counterLayers(g))
	}
	L := medians(per)
	samples["provider.register_ms"] = len(segs) * len(segs[0].spec.fleet)
	L["tasklang.compile_us"] = timeCompile(src)

	evs, frames, decodeErrs := tr.relay.collect()
	spans := analyzeTrace(evs, tr.spec, tr.out, tr.relay.start)
	for name, key := range map[string]string{
		"consumer.submit": "consumer.submit_ack_us", "consumer.await": "consumer.result_wait_us",
		"consumer.deliver": "consumer.deliver_us", "broker.queue": "broker.queue_us",
		"broker.result": "broker.result_us", "provider.turnaround": "provider.turnaround_us",
	} {
		d := newDist(spans.durs[name])
		L[key] = d.pct(0.5)
		samples[key] = d.n()
	}
	// Tracing overhead: the traced segment against the same segment
	// untraced, on the workload's headline rate.
	rate := func(g *segment) float64 { return windowRate(g.spec, g.out) }
	L["trace.overhead_pct"] = (rate(segs[0])/rate(tr) - 1) * 100

	var jobs [][]task
	for _, r := range segs[0].out.jobs {
		if segs[0].spec.inWindow(r.phase) {
			jobs = append(jobs, r.tasks)
		}
	}
	progID := core.HashProgram(mustMarshal(vmProg))
	L["wire.encode_ns"], L["wire.decode_ns"] = replayWire(frames)
	samples["wire.encode_ns"], samples["wire.decode_ns"] = len(frames), len(frames)
	L["lifecycle.apply_ns_per_event"] = replayLifecycle(segs[0].spec, jobs, progID)
	L["scheduler.pick_ns"] = replayPick(segs[0].fleet, windowTasklets(segs[0].spec, segs[0].out))
	L["memo.get_ns"], L["memo.put_ns"] = replayMemo(jobs, progID)
	L["tvm.exec_us"], L["tvm.mops_per_s"] = replayTVM(vmProg, jobs, 200)

	var sb strings.Builder
	fmt.Fprintf(&sb, "spans (traced segment; %d relay events, %d frames sampled, %d undecodable)\n", len(evs), len(frames), decodeErrs)
	fmt.Fprintf(&sb, "  %-22s %-18s %8s %10s %10s %10s %10s\n", "span", "parent", "n", "p50_us", "p90_us", "mean_us", "self_us")
	for _, name := range spanOrder {
		d := newDist(spans.durs[name])
		fmt.Fprintf(&sb, "  %-22s %-18s %8d %10.1f %10.1f %10.1f %10.1f\n", name, spanParent[name], d.n(),
			d.pct(0.5), d.pct(0.9), d.mean(), spans.self[name])
	}
	fmt.Fprintf(&sb, "tracing overhead: segment 0 untraced %.0f tasklets/s, traced %.0f tasklets/s (%+.1f%%)\n",
		rate(segs[0]), rate(tr), L["trace.overhead_pct"])
	return L, sb.String()
}

func mustMarshal(p *tvm.Program) []byte {
	b, err := p.MarshalBinary()
	if err != nil {
		panic(err) // a compiled program always serializes
	}
	return b
}

// hostEnv describes the host and build.
func hostEnv() environment {
	e := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// git must not look above the working directory: a checkout that is
	// not a repository itself has no commit.
	git := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// printReport writes the human-readable report; the result line follows.
func printReport(rec *record, s *spec, mismatches int, extra []string, traceReport string) {
	w := os.Stdout
	fmt.Fprintf(w, "livebench %s seed=%d seconds=%d trace=%v  nproc=%d GOMAXPROCS=%d %s  cpu=%q commit=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Env.NProc, rec.Env.GOMAXPROCS, rec.Env.GoVersion,
		rec.Env.CPUModel, rec.Env.Commit)
	fmt.Fprintf(w, "fleet:")
	for i, p := range s.fleet {
		fmt.Fprintf(w, " p%d(%d slots, throttle %g)", i+1, p.Slots, p.Throttle)
	}
	fmt.Fprintf(w, "  submitters=%d  tasklets=%d\n", s.subs, s.tasklets())
	fmt.Fprintf(w, "end-to-end:\n")
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-18s %14.4f %-6s n=%d\n", d.name, rec.EndToEnd[d.name], d.unit, rec.Samples[d.name])
	}
	fmt.Fprintf(w, "as measured (not host-adjusted):\n")
	for _, d := range rawDefs {
		fmt.Fprintf(w, "  %-18s %14.4f %-6s n=%d\n", d.name, rec.EndToEnd[d.name], d.unit, rec.Samples[d.name])
	}
	for _, x := range extra {
		fmt.Fprintf(w, "  %s\n", x)
	}
	if len(rec.Faults) > 0 {
		keys := make([]string, 0, len(rec.Faults))
		for k := range rec.Faults {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "non-OK results by fault:\n")
		for _, k := range keys {
			fmt.Fprintf(w, "  %6d  %s\n", rec.Faults[k], k)
		}
	}
	if mismatches > 0 {
		fmt.Fprintf(w, "OUTPUT MISMATCHES: %d results differ from the native reference\n", mismatches)
	}
	if rec.Layers != nil {
		fmt.Fprintf(w, "per-layer:\n")
		for _, d := range layerDefs {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s", d.name, rec.Layers[d.name], d.unit)
			if n, ok := rec.Samples[d.name]; ok {
				fmt.Fprintf(w, " n=%d", n)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, traceReport)
	}
	fmt.Fprintf(w, "children: %s\n", strings.Join(rec.Exits, ", "))
}

// saveRecord writes the run record for compare.
func saveRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
