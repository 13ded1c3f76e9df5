package main

import (
	"sort"
	"time"
)

// Spans of one tasklet, in path order, and the span each one sits in.
// consumer.submit is the Map call, consumer.await runs from its return to
// the job's last result; the other spans are cut from relay timestamps.
// All spans of a tasklet share its identifier, the job ID plus index: the
// relay joins attempts to it through the tasklet ID that Assign,
// AttemptResult and ResultPush frames carry.
var spanOrder = []string{
	"consumer.submit", "broker.accept", "consumer.await",
	"broker.queue", "provider.turnaround", "broker.result", "consumer.deliver",
}

var spanParent = map[string]string{
	"consumer.submit":     "",
	"broker.accept":       "consumer.submit",
	"consumer.await":      "",
	"broker.queue":        "consumer.await",
	"provider.turnaround": "consumer.await",
	"broker.result":       "consumer.await",
	"consumer.deliver":    "consumer.await",
}

// spanStats holds each span's durations (µs) and mean self time (µs):
// the duration minus the part of its interval its child spans cover.
type spanStats struct {
	durs map[string][]float64
	self map[string]float64
}

type interval struct{ lo, hi int64 }

// covered is the total length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := interval{lo: -1, hi: -1}
	flush := func() {
		if cur.hi > cur.lo {
			total += cur.hi - cur.lo
		}
	}
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
		if iv.hi <= iv.lo {
			continue
		}
		if cur.hi < 0 || iv.lo > cur.hi {
			flush()
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	flush()
	return total
}

type jobIndex struct{ job, index uint64 }

// analyzeTrace joins the relay's events with the load generator's records
// of the window phases and cuts them into spans.
func analyzeTrace(evs []traceEv, s *spec, out *outcome, start time.Time) spanStats {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	submits := map[uint64][]int64{} // per relay connection, in order
	accepts := map[uint64][]uint64{}
	acceptT := map[uint64]int64{}
	firstAssign := map[uint64]int64{} // tasklet -> first Assign
	assignAt := map[uint64]int64{}    // attempt -> Assign
	assignOf := map[uint64]uint64{}   // attempt -> tasklet
	lastResult := map[uint64]int64{}  // tasklet -> latest AttemptResult
	var turnaround []struct {
		tasklet uint64
		iv      interval
	}
	pushAt := map[jobIndex]int64{}
	taskletOf := map[jobIndex]uint64{}
	for _, e := range evs {
		switch e.kind {
		case evSubmit:
			submits[e.a] = append(submits[e.a], e.t)
		case evAccepted:
			accepts[e.a] = append(accepts[e.a], e.b)
			acceptT[e.b] = e.t
		case evAssign:
			if _, ok := firstAssign[e.a]; !ok {
				firstAssign[e.a] = e.t
			}
			assignAt[e.b], assignOf[e.b] = e.t, e.a
		case evResult:
			if at, ok := assignAt[e.a]; ok {
				turnaround = append(turnaround, struct {
					tasklet uint64
					iv      interval
				}{assignOf[e.a], interval{at, e.t}})
			}
			lastResult[e.b] = e.t
		case evPush:
			k := jobIndex{e.a, e.b}
			pushAt[k], taskletOf[k] = e.t, e.c
		}
	}
	// JobAccepted answers a connection's submissions in order.
	submitT := map[uint64]int64{}
	for conn, jobs := range accepts {
		for i, job := range jobs {
			if i < len(submits[conn]) {
				submitT[job] = submits[conn][i]
			}
		}
	}

	ns := func(t time.Time) int64 { return t.Sub(start).Nanoseconds() }
	us := func(d int64) float64 { return float64(d) / 1e3 }
	st := spanStats{durs: map[string][]float64{}, self: map[string]float64{}}
	add := func(name string, d int64) { st.durs[name] = append(st.durs[name], us(d)) }
	inWindow := map[uint64]bool{}
	var submitSelf, awaitSelf float64
	var nSubmit, nAwait int
	for _, r := range out.jobs {
		if !s.inWindow(r.phase) || r.id == 0 || r.end.IsZero() {
			continue
		}
		start, ack, end := ns(r.start), ns(r.ack), ns(r.end)
		add("consumer.submit", ack-start)
		add("consumer.await", end-ack)
		self := ack - start
		if sub, ok := submitT[r.id]; ok {
			if acc, ok := acceptT[r.id]; ok {
				add("broker.accept", acc-sub)
				self -= covered([]interval{{sub, acc}}, start, ack)
			}
		}
		submitSelf += us(self)
		nSubmit++
		var children []interval
		for i, recv := range r.recv {
			if recv.IsZero() {
				continue
			}
			k := jobIndex{r.id, uint64(i)}
			tid, ok := taskletOf[k]
			if !ok {
				continue
			}
			inWindow[tid] = true
			push := pushAt[k]
			if sub, ok := submitT[r.id]; ok {
				if fa, ok := firstAssign[tid]; ok {
					add("broker.queue", fa-sub)
				}
				children = append(children, interval{sub, ns(recv)})
			}
			if lr, ok := lastResult[tid]; ok && lr <= push {
				add("broker.result", push-lr)
			}
			add("consumer.deliver", ns(recv)-push)
		}
		awaitSelf += us(end - ack - covered(children, ack, end))
		nAwait++
	}
	for _, ta := range turnaround {
		if inWindow[ta.tasklet] {
			add("provider.turnaround", ta.iv.hi-ta.iv.lo)
		}
	}
	for _, name := range spanOrder {
		st.self[name] = newDist(st.durs[name]).mean()
	}
	if nSubmit > 0 {
		st.self["consumer.submit"] = submitSelf / float64(nSubmit)
	}
	if nAwait > 0 {
		st.self["consumer.await"] = awaitSelf / float64(nAwait)
	}
	return st
}
