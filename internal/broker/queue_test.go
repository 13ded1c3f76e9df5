package broker

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestPlacementQueueRoundRobin pins the queue's service order: each round
// offers every job its next entry, a job's own entries stay FIFO, removed
// entries leave while the rest keep their order, a stop leaves the unwalked
// entries untouched, and the next walk resumes at the job that found no
// capacity.
func TestPlacementQueueRoundRobin(t *testing.T) {
	var q placementQueue
	for _, e := range []struct {
		job core.JobID
		tid core.TaskletID
	}{{1, 1}, {1, 2}, {1, 3}, {2, 4}, {2, 5}, {3, 6}} {
		q.push(e.job, e.tid)
	}
	var order []core.TaskletID
	removed := q.walk(func(tid core.TaskletID) (bool, bool) {
		order = append(order, tid)
		return tid%2 == 0, false // place the even ones
	})
	if want := []core.TaskletID{1, 4, 6, 2, 5, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("walk order %v, want %v", order, want)
	}
	if removed != 3 {
		t.Fatalf("removed %d, want 3", removed)
	}

	order = order[:0]
	q.walk(func(tid core.TaskletID) (bool, bool) {
		order = append(order, tid)
		return tid == 1, tid == 5 // stop once job 2 was offered
	})
	if want := []core.TaskletID{1, 5}; !reflect.DeepEqual(order, want) {
		t.Fatalf("second walk order %v, want %v", order, want)
	}

	order = order[:0]
	q.walk(func(tid core.TaskletID) (bool, bool) {
		order = append(order, tid)
		return false, true
	})
	if want := []core.TaskletID{5}; !reflect.DeepEqual(order, want) {
		t.Fatalf("third walk began at %v, want %v (resume at the stopped job)", order, want)
	}

	order = order[:0]
	q.walkBack(func(tid core.TaskletID) bool {
		order = append(order, tid)
		return false
	})
	if want := []core.TaskletID{5, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("queue left %v (newest first), want %v", order, want)
	}
	if len(q.jobs) != 2 || len(q.byJob) != 2 {
		t.Fatalf("%d jobs queued (%d indexed), want 2: the emptied job must be forgotten", len(q.jobs), len(q.byJob))
	}
}
