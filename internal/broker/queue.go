package broker

import "repro/internal/core"

// placementQueue holds the tasklets waiting for placement: one FIFO per job,
// with the jobs in arrival order. Placement serves it round-robin across
// jobs — each round offers every job its next queued entry, and a pass
// that runs out of capacity resumes at the next job on the following pass —
// so jobs queued at the same time share the fleet instead of a later job
// waiting out the whole of an earlier one. Guarded by the engine mutex.
type placementQueue struct {
	jobs  []*jobQueue
	byJob map[core.JobID]*jobQueue
	next  int // index in jobs of the job the next walk serves first
}

type jobQueue struct {
	job  core.JobID
	tids []core.TaskletID
}

// push appends tid to its job's FIFO.
func (q *placementQueue) push(job core.JobID, tid core.TaskletID) {
	jq := q.byJob[job]
	if jq == nil {
		if q.byJob == nil {
			q.byJob = map[core.JobID]*jobQueue{}
		}
		jq = &jobQueue{job: job}
		q.byJob[job] = jq
		q.jobs = append(q.jobs, jq)
	}
	jq.tids = append(jq.tids, tid)
}

// walk offers queued entries to visit in round-robin order, starting at the
// job where the previous walk stopped, until visit asks to stop or every
// entry was offered once. Entries visit reports as removed leave the queue;
// the rest keep their order. It returns how many left.
func (q *placementQueue) walk(visit func(tid core.TaskletID) (remove, stop bool)) int {
	n := len(q.jobs)
	if q.next >= n {
		q.next = 0
	}
	removed := 0
	rounds := 0
	for offered := true; offered; rounds++ {
		offered = false
		for k := range n {
			j := (q.next + k) % n
			jq := q.jobs[j]
			if rounds >= len(jq.tids) {
				continue
			}
			offered = true
			remove, stop := visit(jq.tids[rounds])
			if remove {
				jq.tids[rounds] = 0 // tasklet IDs start at 1
				removed++
			}
			if stop {
				// The job that found no capacity is served first next time.
				q.next = j
				q.compact(rounds + 1)
				return removed
			}
		}
	}
	q.compact(rounds)
	return removed
}

// walkBack offers entries newest first — jobs from the most recent, each
// job's FIFO from its tail — until visit asks to stop. It changes nothing;
// callers that drop tasklets purge the queue afterwards.
func (q *placementQueue) walkBack(visit func(tid core.TaskletID) (stop bool)) {
	for j := len(q.jobs) - 1; j >= 0; j-- {
		tids := q.jobs[j].tids
		for i := len(tids) - 1; i >= 0; i-- {
			if visit(tids[i]) {
				return
			}
		}
	}
}

// compact drops the removed entries among the first n of every job's FIFO
// (the only ones a walk can have touched) and forgets jobs left empty,
// keeping next on the same job or, if that one emptied, on its successor.
func (q *placementQueue) compact(n int) {
	jobs := q.jobs[:0]
	next := 0
	for j, jq := range q.jobs {
		if j == q.next {
			next = len(jobs)
		}
		lim := min(n, len(jq.tids))
		keep := jq.tids[:0]
		for _, tid := range jq.tids[:lim] {
			if tid != 0 {
				keep = append(keep, tid)
			}
		}
		if len(keep) < lim {
			jq.tids = append(keep, jq.tids[lim:]...)
		}
		if len(jq.tids) == 0 {
			delete(q.byJob, jq.job)
			continue
		}
		jobs = append(jobs, jq)
	}
	clear(q.jobs[len(jobs):])
	q.jobs = jobs
	q.next = next
}
